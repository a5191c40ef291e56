// Quickstart: encode a payload with SledZig, push it through the standard
// WiFi chain, verify the in-band power drop, and decode it back.
//
//   $ ./quickstart
//
// This is the whole public API surface a typical user touches:
//   core::SledzigConfig / sledzig_encode / sledzig_decode
//   wifi::wifi_transmit / wifi_receive
//   channel::rssi_2mhz_dbm for spectrum checks.
#include <cstdio>
#include <string>

#include "channel/medium.h"
#include "common/rng.h"
#include "sledzig/encoder.h"
#include "sledzig/power_analysis.h"
#include "wifi/preamble.h"
#include "wifi/receiver.h"
#include "wifi/transmitter.h"

using namespace sledzig;

int main() {
  // 1. The message a WiFi application wants to send.
  const std::string message =
      "SledZig: coexistence by payload encoding alone.";
  const common::Bytes payload(message.begin(), message.end());

  // 2. Configure SledZig: protect ZigBee channel 26 (CH4 of WiFi channel
  //    13) while transmitting QAM-64 at coding rate 2/3.
  core::SledzigConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  cfg.channel = core::OverlapChannel::kCh4;

  // 3. Encode: insert the extra bits.  The result is an ordinary PSDU any
  //    802.11 transmitter can send.
  const auto encoded = core::sledzig_encode(payload, cfg);
  std::printf("payload: %zu bytes -> transmit PSDU: %zu bytes "
              "(%zu extra bits, %.1f%% overhead)\n",
              payload.size(), encoded.transmit_psdu.size(),
              encoded.num_extra_bits, core::throughput_loss(cfg) * 100.0);

  // 4. Transmit through the *unmodified* WiFi chain.
  wifi::WifiTxConfig tx;
  tx.modulation = cfg.modulation;
  tx.rate = cfg.rate;
  tx.scrambler_seed = cfg.scrambler_seed;
  const auto packet = wifi::wifi_transmit(encoded.transmit_psdu, tx);

  // 5. Check the spectrum: power inside the protected ZigBee channel.
  const std::size_t payload_start = wifi::kPreambleLen + wifi::kSymbolLen;
  const auto payload_samples =
      std::span<const common::Cplx>(packet.samples).subspan(payload_start);
  const auto normal = wifi::wifi_transmit(
      common::Rng(1).bytes(encoded.transmit_psdu.size()), tx);
  const auto normal_samples =
      std::span<const common::Cplx>(normal.samples).subspan(payload_start);
  const double f = core::channel_center_offset_hz(cfg.channel);
  std::printf("ZigBee-channel power: normal %.1f dB -> SledZig %.1f dB "
              "(theory cap: %.1f dB reduction)\n",
              channel::rssi_2mhz_dbm(normal_samples, f),
              channel::rssi_2mhz_dbm(payload_samples, f),
              core::ideal_inband_reduction_db(cfg).value());

  // 6. Receive with the standard WiFi receiver, then strip the extra bits.
  const auto rx = wifi::wifi_receive(packet.samples, wifi::WifiRxConfig{});
  if (!rx.signal_valid) {
    std::printf("receive failed!\n");
    return 1;
  }
  const auto decoded = core::sledzig_decode(rx.psdu, cfg);
  if (!decoded) {
    std::printf("SledZig decode failed!\n");
    return 1;
  }
  std::printf("decoded: \"%s\"\n",
              std::string(decoded->begin(), decoded->end()).c_str());
  return *decoded == payload ? 0 : 1;
}
