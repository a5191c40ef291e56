// frame_phy: the paper's mechanism on the sample-domain PHY, one frame
// after another on one thread.  Each frame runs
//
//   sledzig_encode -> wifi_transmit -> mix_at_receiver (AWGN)
//     -> rssi_2mhz_dbm (protected band) -> wifi_receive -> sledzig_decode
//
// and must give back its payload byte for byte.  About a quarter of the
// frames are plain WiFi (SledZig off: no encode/decode step).
//
// The traced run replays every frame through the public stage functions
// the transmitter and receiver are built from, times each stage, and
// checks that the replay reproduces wifi_transmit's samples and
// wifi_receive's bits exactly; the stage times must then add up to within
// 10 % of the untraced frame time (ledger.phy_coverage).

#include <algorithm>
#include <array>
#include <cstdint>
#include <cmath>
#include <optional>
#include <string>

#include "bench.h"
#include "channel/medium.h"
#include "common/bits.h"
#include "common/dsp.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "sledzig/channels.h"
#include "sledzig/encoder.h"
#include "wifi/convolutional.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"
#include "wifi/puncture.h"
#include "wifi/qam.h"
#include "wifi/receiver.h"
#include "wifi/scrambler.h"
#include "wifi/signal_field.h"
#include "wifi/transmitter.h"

namespace perfbench {
namespace {

using namespace sledzig;

/// The modulation/rate pairs bench_fig16 evaluates.
constexpr std::array<std::pair<wifi::Modulation, wifi::CodingRate>, 3> kModes = {{
    {wifi::Modulation::kQam16, wifi::CodingRate::kR12},
    {wifi::Modulation::kQam64, wifi::CodingRate::kR23},
    {wifi::Modulation::kQam256, wifi::CodingRate::kR34},
}};
constexpr std::size_t kMinPayload = 50;
constexpr std::size_t kMaxPayload = 1500;
/// Received WiFi power: ~40 dB over the 20 MHz noise floor, so every mode
/// decodes error-free and a decode failure is a defect, not noise.
constexpr double kRxPowerDbm = -40.0;
/// Noise-only samples before and after the packet.
constexpr std::size_t kGuardSamples = 160;
/// Cycles in the timed frame set; a cycle is 48 frames, 3 modes x 4
/// channels x (3 SledZig + 1 plain).  96 frames leave ten beyond p90.
constexpr std::size_t kPassCycles = 2;

struct FrameInput {
  core::SledzigConfig cfg;
  bool sledzig = true;
  common::Bytes payload;
  std::uint64_t noise_seed = 0;
};

/// Appends `n` frames of one (mode, SledZig on/off) group, cycling the
/// four channels, with payload sizes stratified over [50, 1500] B.
void add_group(std::vector<FrameInput>& frames, wifi::Modulation mod,
               wifi::CodingRate rate, bool sledzig, std::size_t n,
               common::Rng& rng) {
  std::vector<std::size_t> strata(n);
  for (std::size_t k = 0; k < n; ++k) strata[k] = k;
  for (std::size_t k = n - 1; k > 0; --k) {
    std::swap(strata[k], strata[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<std::int64_t>(k)))]);
  }
  const double width = static_cast<double>(kMaxPayload - kMinPayload + 1) /
                       static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    FrameInput in;
    in.cfg.modulation = mod;
    in.cfg.rate = rate;
    in.cfg.channel = core::kAllOverlapChannels[k % 4];
    in.sledzig = sledzig;
    const double u = (static_cast<double>(strata[k]) + rng.uniform()) * width;
    in.payload = rng.bytes(
        std::min(kMaxPayload, kMinPayload + static_cast<std::size_t>(u)));
    in.noise_seed = static_cast<std::uint64_t>(rng.uniform_int(0, INT64_MAX));
    frames.push_back(std::move(in));
  }
}

/// One cycle of 48 frames: every mode on every channel three times with
/// SledZig and once as plain WiFi, in shuffled order.  Sizes are stratified
/// per (mode, SledZig on/off) group, so every cycle does nearly the same
/// work whatever the seed.
std::vector<FrameInput> make_cycle(std::uint64_t seed, std::size_t cycle) {
  common::Rng rng(common::derive_seed(seed, 0xf7a3e, cycle));
  std::vector<FrameInput> frames;
  for (const auto& [mod, rate] : kModes) {
    add_group(frames, mod, rate, /*sledzig=*/true, 12, rng);
    add_group(frames, mod, rate, /*sledzig=*/false, 4, rng);
  }
  for (std::size_t i = frames.size() - 1; i > 0; --i) {
    std::swap(frames[i], frames[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  return frames;
}

wifi::WifiTxConfig tx_config(const core::SledzigConfig& cfg) {
  wifi::WifiTxConfig tx;
  tx.modulation = cfg.modulation;
  tx.rate = cfg.rate;
  tx.scrambler_seed = cfg.scrambler_seed;
  tx.include_service_field = cfg.include_service_field;
  tx.width = cfg.width;
  return tx;
}

wifi::WifiRxConfig rx_config(const core::SledzigConfig& cfg) {
  wifi::WifiRxConfig rx;
  rx.scrambler_seed = cfg.scrambler_seed;
  rx.include_service_field = cfg.include_service_field;
  rx.width = cfg.width;
  return rx;
}

common::CplxVec mix(const common::CplxVec& packet, std::uint64_t noise_seed) {
  channel::Emission e;
  e.samples = &packet;
  e.power_dbm = kRxPowerDbm;
  e.start_sample = kGuardSamples;
  common::Rng rng(noise_seed);
  return channel::mix_at_receiver(std::span<const channel::Emission>(&e, 1),
                                  packet.size() + 2 * kGuardSamples, rng);
}

/// The data field of the received packet (after preamble and SIGNAL),
/// where SledZig lowers the in-band power.
std::span<const common::Cplx> data_field(const common::CplxVec& rx,
                                         std::size_t packet_len) {
  const std::size_t begin = kGuardSamples + wifi::kPreambleLen + wifi::kSymbolLen;
  return std::span<const common::Cplx>(rx).subspan(
      begin, kGuardSamples + packet_len - begin);
}

/// Everything one frame produces, for checking and for comparing a replay.
struct FrameOutput {
  common::Bytes psdu;
  common::CplxVec tx_samples;
  common::CplxVec rx_samples;
  double rssi_dbm = 0.0;
  common::Bits rx_scrambled;
  common::Bytes rx_psdu;
  std::optional<common::Bytes> decoded;
};

/// The untraced frame: exactly the calls a user of the library makes.
FrameOutput run_frame(const FrameInput& in) {
  const auto& cfg = in.cfg;
  FrameOutput out;
  out.psdu = in.sledzig ? core::sledzig_encode(in.payload, cfg).transmit_psdu
                        : in.payload;
  out.tx_samples = wifi::wifi_transmit(out.psdu, tx_config(cfg)).samples;
  out.rx_samples = mix(out.tx_samples, in.noise_seed);
  out.rssi_dbm = channel::rssi_2mhz_dbm(
      data_field(out.rx_samples, out.tx_samples.size()),
      core::channel_center_offset_hz(cfg.channel));
  auto rx = wifi::wifi_receive(out.rx_samples, rx_config(cfg));
  out.rx_scrambled = std::move(rx.scrambled_stream);
  out.rx_psdu = std::move(rx.psdu);
  out.decoded = in.sledzig ? core::sledzig_decode(out.rx_psdu, cfg)
                           : std::optional<common::Bytes>(out.rx_psdu);
  return out;
}

// ---------------------------------------------------------------------------
// Traced replay

enum Stage : std::size_t {
  kEncode,
  kScramble,
  kConvEncode,
  kPuncture,
  kInterleave,
  kQamMap,
  kOfdm,
  kFraming,
  kMix,
  kRssi,
  kSync,
  kChanEst,
  kSignal,
  kOfdmFft,
  kDemap,
  kDeinterleave,
  kViterbi,
  kDescramble,
  kDecode,
  kNumStages,
};

constexpr std::array<const char*, kNumStages> kStageNames = {
    "sledzig.encode_us",    "wifi.tx.scramble_us",   "wifi.tx.conv_encode_us",
    "wifi.tx.puncture_us",  "wifi.tx.interleave_us", "wifi.tx.qam_map_us",
    "wifi.tx.ofdm_us",      "wifi.tx.framing_us",    "channel.mix_us",
    "channel.rssi_2mhz_us", "wifi.rx.sync_us",       "wifi.rx.chan_est_us",
    "wifi.rx.signal_us",    "wifi.rx.ofdm_fft_us",   "wifi.rx.demap_us",
    "wifi.rx.deinterleave_us", "wifi.rx.viterbi_us", "wifi.rx.descramble_us",
    "sledzig.decode_us",
};

/// Charges the time since the previous lap to a stage: one clock read per
/// stage boundary, so the stage times of a frame add up to its traced time.
class Ledger {
 public:
  explicit Ledger(std::array<double, kNumStages>& totals) : totals_(totals) {}
  void start() { last_ = Clock::now(); }
  void lap(Stage s) {
    const auto now = Clock::now();
    totals_[s] += seconds_between(last_, now);
    last_ = now;
  }

 private:
  std::array<double, kNumStages>& totals_;
  Clock::time_point last_;
};

/// wifi_transmit, one public stage function at a time.
common::CplxVec replay_transmit(const common::Bytes& psdu,
                                const wifi::WifiTxConfig& cfg, Ledger& ledger) {
  const auto& plan = cfg.plan();
  const auto payload_bits = common::bytes_to_bits(psdu);
  const std::size_t n_sym = wifi::num_data_symbols(payload_bits.size(), cfg);
  const std::size_t total =
      n_sym * wifi::data_bits_per_symbol(cfg.modulation, cfg.rate, plan);
  common::Bits raw(wifi::payload_bit_offset(cfg), 0);
  raw.insert(raw.end(), payload_bits.begin(), payload_bits.end());
  const std::size_t tail_start = raw.size();
  raw.resize(total, 0);
  auto scrambled = wifi::scramble(raw, cfg.scrambler_seed);
  for (std::size_t i = 0; i < wifi::kTailBits && tail_start + i < total; ++i) {
    scrambled[tail_start + i] = 0;
  }
  ledger.lap(kScramble);
  const auto coded = wifi::convolutional_encode(scrambled);
  ledger.lap(kConvEncode);
  const auto punctured = wifi::puncture(coded, cfg.rate);
  ledger.lap(kPuncture);
  const auto interleaved = wifi::interleave(punctured, cfg.modulation, plan);
  ledger.lap(kInterleave);
  const auto points = wifi::qam_map(interleaved, cfg.modulation);
  ledger.lap(kQamMap);
  common::CplxVec data;
  data.reserve(n_sym * plan.symbol_len());
  for (std::size_t s = 0; s < n_sym; ++s) {
    const auto symbol = wifi::modulate_ofdm_symbol(
        std::span<const common::Cplx>(points).subspan(s * plan.num_data(),
                                                      plan.num_data()),
        s + 1, plan);
    data.insert(data.end(), symbol.begin(), symbol.end());
  }
  ledger.lap(kOfdm);
  wifi::SignalField field;
  field.modulation = cfg.modulation;
  field.rate = cfg.rate;
  field.psdu_octets = psdu.size();
  const auto& preamble = wifi::full_preamble(cfg.width);
  const auto signal = wifi::modulate_signal_symbol(field, plan);
  common::CplxVec samples;
  samples.reserve(preamble.size() + signal.size() + data.size());
  samples.insert(samples.end(), preamble.begin(), preamble.end());
  samples.insert(samples.end(), signal.begin(), signal.end());
  samples.insert(samples.end(), data.begin(), data.end());
  ledger.lap(kFraming);
  return samples;
}

struct ReplayRx {
  common::Bits scrambled;
  common::Bytes psdu;
};

/// wifi_receive (CFO correction and soft decisions on, as by default), one
/// public stage function at a time.  nullopt where wifi_receive would stop
/// early.
std::optional<ReplayRx> replay_receive(std::span<const common::Cplx> raw,
                                       const wifi::WifiRxConfig& cfg,
                                       Ledger& ledger) {
  const auto& plan = wifi::channel_plan(cfg.width);
  for (const auto& s : raw) {
    if (!std::isfinite(s.real()) || !std::isfinite(s.imag())) return std::nullopt;
  }
  const auto sync =
      wifi::synchronize_packet(raw, cfg.detection_threshold, cfg.width);
  if (!sync) return std::nullopt;
  const auto samples =
      common::frequency_shift(raw, -sync->cfo_hz, plan.sample_rate_hz);
  const std::size_t start = sync->packet_start;
  ledger.lap(kSync);
  const std::size_t signal_start = start + wifi::preamble_len(cfg.width);
  if (signal_start + plan.symbol_len() > samples.size()) return std::nullopt;
  const auto channel = wifi::estimate_channel(
      samples, start + wifi::stf_len(cfg.width), cfg.width);
  ledger.lap(kChanEst);
  const std::span<const common::Cplx> all(samples);
  const auto field = wifi::demodulate_signal_symbol(
      all.subspan(signal_start, plan.symbol_len()), channel, plan);
  if (!field || field->psdu_octets > cfg.max_psdu_octets) return std::nullopt;
  wifi::WifiTxConfig txcfg;
  txcfg.modulation = field->modulation;
  txcfg.rate = field->rate;
  txcfg.include_service_field = cfg.include_service_field;
  txcfg.width = cfg.width;
  const std::size_t n_sym =
      wifi::num_data_symbols(field->psdu_octets * 8, txcfg);
  const std::size_t data_start = signal_start + plan.symbol_len();
  if (data_start + n_sym * plan.symbol_len() > samples.size()) return std::nullopt;
  ledger.lap(kSignal);
  std::vector<double> llrs;
  llrs.reserve(n_sym * wifi::coded_bits_per_symbol(field->modulation, plan));
  for (std::size_t s = 0; s < n_sym; ++s) {
    const auto points = wifi::demodulate_ofdm_symbol(
        all.subspan(data_start + s * plan.symbol_len(), plan.symbol_len()),
        s + 1, channel, plan);
    ledger.lap(kOfdmFft);
    const auto symbol_llrs = wifi::qam_demap_soft(points, field->modulation);
    llrs.insert(llrs.end(), symbol_llrs.begin(), symbol_llrs.end());
    ledger.lap(kDemap);
  }
  const auto punctured = wifi::deinterleave_soft(llrs, field->modulation, plan);
  const auto full = wifi::depuncture_soft(punctured, field->rate);
  ledger.lap(kDeinterleave);
  ReplayRx out;
  out.scrambled = wifi::viterbi_decode_soft(full, /*terminated=*/false);
  ledger.lap(kViterbi);
  const auto descrambled = wifi::descramble(out.scrambled, cfg.scrambler_seed);
  const std::size_t offset = wifi::payload_bit_offset(txcfg);
  const std::size_t bits = field->psdu_octets * 8;
  if (offset + bits > descrambled.size()) return std::nullopt;
  out.psdu = common::bits_to_bytes(
      std::span<const common::Bit>(descrambled).subspan(offset, bits));
  ledger.lap(kDescramble);
  return out;
}

/// Replays one frame stage by stage; returns a mismatch description, or
/// an empty string when every stage reproduced the untraced output.
std::string replay_frame(const FrameInput& in, const FrameOutput& ref,
                         Ledger& ledger) {
  const auto& cfg = in.cfg;
  ledger.start();
  common::Bytes psdu = in.payload;
  if (in.sledzig) psdu = core::sledzig_encode(in.payload, cfg).transmit_psdu;
  ledger.lap(kEncode);
  const auto tx = replay_transmit(psdu, tx_config(cfg), ledger);
  const auto rx_samples = mix(tx, in.noise_seed);
  ledger.lap(kMix);
  const double rssi = channel::rssi_2mhz_dbm(
      data_field(rx_samples, tx.size()),
      core::channel_center_offset_hz(cfg.channel));
  ledger.lap(kRssi);
  const auto rx = replay_receive(rx_samples, rx_config(cfg), ledger);
  if (!rx) return "replayed receive stopped early";
  std::optional<common::Bytes> decoded = rx->psdu;
  if (in.sledzig) decoded = core::sledzig_decode(rx->psdu, cfg);
  ledger.lap(kDecode);

  if (psdu != ref.psdu) return "sledzig_encode output differs";
  if (tx != ref.tx_samples) return "replayed TX samples differ from wifi_transmit";
  if (rx_samples != ref.rx_samples) return "mixed samples differ";
  if (rssi != ref.rssi_dbm) return "RSSI differs";
  if (rx->scrambled != ref.rx_scrambled || rx->psdu != ref.rx_psdu) {
    return "replayed RX bits differ from wifi_receive";
  }
  if (decoded != ref.decoded) return "sledzig_decode output differs";
  return {};
}

}  // namespace

Report run_frame_phy(const Args& args) {
  Report report;
  const auto t_setup = Clock::now();
  // Warm every lazily built table (FFT plans, interleaver permutations,
  // constraint plans) with one cycle, which covers every configuration; its
  // index is one the timed loop never reaches.
  for (const auto& in : make_cycle(args.seed, SIZE_MAX)) run_frame(in);
  report.setup_s = seconds_since(t_setup);
  if (args.setup_only) return report;

  // The timed frames: a fixed seeded set, run pass after pass, so that
  // each frame's median time can be taken over the passes.
  std::vector<FrameInput> inputs;
  for (std::size_t c = 0; c < kPassCycles; ++c) {
    for (auto& in : make_cycle(args.seed, c)) inputs.push_back(std::move(in));
  }
  std::vector<double> ref_s;  // reference kernel per pass
  std::vector<std::vector<double>> pass_s;  // untraced time per pass, frame
  std::vector<double> frame_s;              // every untraced frame
  std::array<double, kNumStages> stage_s{};
  Ledger ledger(stage_s);
  double traced_s = 0.0;
  double payload_bytes = 0.0, psdu_bytes = 0.0;
  const auto t_end = Clock::now() + std::chrono::duration<double>(args.seconds);
  for (std::size_t pass = 0; Clock::now() < t_end; ++pass) {
    ref_s.push_back(reference_seconds(1));
    std::vector<double>& times = pass_s.emplace_back();
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const FrameInput& in = inputs[j];
      const std::string id =
          "frame " + std::to_string(pass) + "." + std::to_string(j);
      const auto t0 = Clock::now();
      const FrameOutput out = run_frame(in);
      const double dt = seconds_since(t0);
      times.push_back(dt);
      frame_s.push_back(dt);
      ++report.attempted;
      if (!out.decoded || *out.decoded != in.payload) {
        report.fail(id + ": payload not recovered");
        continue;
      }
      if (in.sledzig) {
        payload_bytes += static_cast<double>(in.payload.size());
        psdu_bytes += static_cast<double>(out.psdu.size());
      }
      if (args.trace) {
        const auto t1 = Clock::now();
        const std::string mismatch = replay_frame(in, out, ledger);
        traced_s += seconds_since(t1);
        if (!mismatch.empty()) report.fail(id + ": " + mismatch);
      }
    }
  }

  add_pass_figures(report, pass_s, ref_s, static_cast<double>(inputs.size()));
  for (std::size_t k = 0; k < 3; ++k) {
    Figure f = report.end_to_end[k];
    f.name = std::array{"frames_per_s", "frame_p50_ms", "frame_p90_ms"}[k];
    if (k == 0) f.unit = "frames/s";
    report.summary.push_back(f);
  }
  report.add_meta("threads", 1.0);

  if (args.trace) {
    double untraced_s = 0.0, staged_s = 0.0;
    for (double s : frame_s) untraced_s += s;
    for (double s : stage_s) staged_s += s;
    const double n = static_cast<double>(frame_s.size());
    for (std::size_t s = 0; s < kNumStages; ++s) {
      report.layers.push_back({kStageNames[s], "us", stage_s[s] * 1e6 / n});
    }
    report.layers.push_back({"sledzig.overhead_ratio", "ratio",
                             psdu_bytes / payload_bytes});
    const double coverage = staged_s / untraced_s;
    report.layers.push_back({"ledger.phy_coverage", "ratio", coverage});
    report.layers.push_back({"bench.trace_overhead", "ratio", traced_s / untraced_s});
    if (std::abs(coverage - 1.0) > 0.10) {
      ++report.attempted;
      report.fail("PHY ledger does not close: stages cover " +
                  std::to_string(coverage * 100.0) + " % of frame time");
    }
  }
  return report;
}

}  // namespace perfbench
