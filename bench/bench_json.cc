// Machine-readable hot-path benchmark: kernel ns/op plus an end-to-end
// Monte-Carlo sweep timed serial vs. pooled, written as JSON (default
// BENCH_hotpath.json, override with argv[1]).  Committed snapshots of this
// file let later PRs regress wall-time without re-reading bench logs.
//
// Every timed section re-checks bit-identity between the serial and pooled
// sweep so a speed regression fix can never silently trade determinism
// away.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "channel/medium.h"
#include "coex/experiment.h"
#include "common/dsp.h"
#include "common/fft.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "sledzig/encoder.h"
#include "wifi/convolutional.h"
#include "wifi/phy_params.h"
#include "wifi/qam.h"
#include "wifi/receiver.h"
#include "wifi/transmitter.h"

using namespace sledzig;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs fn repeatedly until ~80 ms elapse and returns ns per call.
template <typename Fn>
double time_ns_per_op(Fn&& fn) {
  // Warm-up (also builds FFT plans and similar one-time caches).
  fn();
  std::size_t iters = 1;
  while (true) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s = seconds_since(t0);
    if (s > 0.08) return s * 1e9 / static_cast<double>(iters);
    iters *= 4;
  }
}

struct Entry {
  std::string name;
  double value;
  const char* unit;
};

/// The fig14-style end-to-end sweep (one channel, reduced duration), used
/// to time the whole trial pipeline through a given pool.
std::vector<double> sweep_throughput(common::ThreadPool& pool) {
  const double distances[] = {1.0, 3.0, 5.0, 7.0, 10.0};
  // Enough trials that the serial sweep takes O(seconds): the JSON reports
  // the times in milliseconds, so a sub-tenth-of-a-second sweep would
  // quantize both arms into the same bucket and fake a 1.0x speedup.
  const std::size_t seeds = 8;
  return common::parallel_map(pool, std::size(distances) * seeds,
                              [&](std::size_t i) {
                                coex::Scenario s;
                                s.scheme = coex::Scheme::kSledzig;
                                s.d_wz_m = distances[i / seeds];
                                s.d_z_m = 1.0;
                                s.duration_s = 30.0;
                                s.seed = 1 + i % seeds;
                                return coex::run_throughput_experiment(s)
                                    .throughput_kbps;
                              });
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  std::vector<Entry> entries;

  // --- DSP kernels -------------------------------------------------------
  common::Rng rng(0xb33f);
  common::CplxVec x64(64), x256(256), x16k(16384);
  for (auto& v : x64) v = rng.complex_gaussian(1.0);
  for (auto& v : x256) v = rng.complex_gaussian(1.0);
  for (auto& v : x16k) v = rng.complex_gaussian(1.0);

  common::CplxVec work;
  entries.push_back({"fft64_ns", time_ns_per_op([&] {
                       common::fft_into(x64, work, false);
                     }),
                     "ns/op"});
  entries.push_back({"fft256_ns", time_ns_per_op([&] {
                       common::fft_into(x256, work, false);
                     }),
                     "ns/op"});
  entries.push_back({"band_power_16k_ns", time_ns_per_op([&] {
                       volatile double p = common::band_power(
                           x16k, channel::kMediumSampleRateHz, -1e6, 1e6, 256);
                       (void)p;
                     }),
                     "ns/op"});
  entries.push_back({"frequency_shift_16k_ns", time_ns_per_op([&] {
                       auto y = common::frequency_shift(
                           x16k, 3e6, channel::kMediumSampleRateHz);
                     }),
                     "ns/op"});

  // --- Viterbi -----------------------------------------------------------
  auto info = common::Rng(0x777).bits(1024);
  for (std::size_t i = 0; i < wifi::kTailBits; ++i) info.push_back(0);
  const auto coded = wifi::convolutional_encode(info);
  const std::vector<std::int8_t> hard(coded.begin(), coded.end());
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? 4.0 : -4.0;
  }
  entries.push_back({"conv_encode_1k_ns", time_ns_per_op([&] {
                       auto c = wifi::convolutional_encode(info);
                     }),
                     "ns/op"});
  entries.push_back({"viterbi_hard_1k_ns", time_ns_per_op([&] {
                       auto d = wifi::viterbi_decode(hard);
                     }),
                     "ns/op"});
  entries.push_back({"viterbi_soft_1k_ns", time_ns_per_op([&] {
                       auto d = wifi::viterbi_decode_soft(llrs);
                     }),
                     "ns/op"});

  // --- Soft demapping: one 48-subcarrier QAM-256 symbol --------------------
  auto sym_points = wifi::qam_map(common::Rng(0x256).bits(48 * 8),
                                  wifi::Modulation::kQam256);
  common::Rng sym_noise(0x257);
  for (auto& p : sym_points) p += sym_noise.complex_gaussian(0.01);
  entries.push_back({"qam_demap_soft_qam256_sym_ns", time_ns_per_op([&] {
                       auto l = wifi::qam_demap_soft(
                           sym_points, wifi::Modulation::kQam256);
                     }),
                     "ns/op"});

  // --- Medium mixing + full modem roundtrip ------------------------------
  wifi::WifiTxConfig txcfg;
  txcfg.modulation = wifi::Modulation::kQam64;
  txcfg.rate = wifi::CodingRate::kR23;
  const auto psdu = common::Rng(0x999).bytes(200);
  const auto packet = wifi::wifi_transmit(psdu, txcfg);
  entries.push_back(
      {"mix_at_receiver_ns", time_ns_per_op([&] {
         common::Rng noise(0x42);
         const channel::Emission e{&packet.samples, -50.0, 4e6, 256, nullptr,
                                   1};
         auto mixed = channel::mix_at_receiver(
             std::vector<channel::Emission>{e, e}, packet.samples.size() + 512,
             noise);
       }),
       "ns/op"});
  entries.push_back(
      {"wifi_roundtrip_ns", time_ns_per_op([&] {
         const auto pkt = wifi::wifi_transmit(psdu, txcfg);
         common::Rng noise(0x43);
         const channel::Emission e{&pkt.samples, -45.0, 0.0, 160, nullptr, 2};
         const auto mixed = channel::mix_at_receiver(
             std::vector<channel::Emission>{e}, pkt.samples.size() + 480,
             noise);
         auto rx = wifi::wifi_receive(mixed, wifi::WifiRxConfig{});
       }),
       "ns/op"});

  core::SledzigConfig scfg;
  scfg.modulation = wifi::Modulation::kQam64;
  scfg.rate = wifi::CodingRate::kR23;
  scfg.channel = core::OverlapChannel::kCh4;
  entries.push_back({"sledzig_encode_200B_ns", time_ns_per_op([&] {
                       auto enc = core::sledzig_encode(psdu, scfg);
                     }),
                     "ns/op"});

  // --- End-to-end sweep: serial vs pooled --------------------------------
  common::ThreadPool serial_pool(1);
  auto t0 = Clock::now();
  const auto serial = sweep_throughput(serial_pool);
  const double serial_s = seconds_since(t0);

  t0 = Clock::now();
  const auto pooled = sweep_throughput(common::default_pool());
  const double pooled_s = seconds_since(t0);

  const bool identical =
      serial.size() == pooled.size() &&
      std::memcmp(serial.data(), pooled.data(),
                  serial.size() * sizeof(double)) == 0;
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: pooled sweep diverged from the serial sweep\n");
    return 1;
  }

  entries.push_back({"sweep_serial_ms", serial_s * 1e3, "ms"});
  entries.push_back({"sweep_pooled_ms", pooled_s * 1e3, "ms"});
  entries.push_back({"sweep_speedup", serial_s / pooled_s, "x"});

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"threads\": %zu,\n", common::default_pool().size());
  std::fprintf(f, "  \"sweep_trials\": %zu,\n", serial.size());
  std::fprintf(f, "  \"thread_invariant\": true,\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(f, "  \"%s\": {\"value\": %.1f, \"unit\": \"%s\"}%s\n",
                 entries[i].name.c_str(), entries[i].value, entries[i].unit,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu threads, sweep %.2fs serial / %.2fs pooled)\n",
              path, common::default_pool().size(), serial_s, pooled_s);
  return 0;
}
