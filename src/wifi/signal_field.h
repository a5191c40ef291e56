// PLCP SIGNAL field: one BPSK rate-1/2 OFDM symbol carrying RATE, LENGTH and
// a parity bit.  The paper's receiver reads modulation and coding rate from
// here (section IV-G).
//
// Deviation from 802.11a: the standard's 4-bit RATE encoding has no code
// points for 256-QAM or rate 5/6 (those exist only in the HT/VHT SIG fields).
// We keep the 24-bit SIGNAL layout but use our own RATE table covering every
// mode in the paper, documented below.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bits.h"
#include "common/fft.h"
#include "wifi/phy_params.h"
#include "wifi/subcarriers.h"

namespace sledzig::wifi {

struct SignalField {
  Modulation modulation = Modulation::kBpsk;
  CodingRate rate = CodingRate::kR12;
  std::size_t psdu_octets = 0;  // 12-bit LENGTH
};

/// RATE code points (4 bits).  0x0 is reserved/invalid.  Throws
/// std::invalid_argument for a pair outside the RATE table.
std::uint8_t rate_code(Modulation m, CodingRate r);
/// Whether the pair has a RATE code point (rate_code would not throw).
bool rate_supported(Modulation m, CodingRate r);
std::optional<SignalField> mode_from_rate_code(std::uint8_t code);

/// Serialises to the 24 SIGNAL bits (RATE[4], reserved, LENGTH[12], parity,
/// 6 tail zeros).
common::Bits encode_signal_bits(const SignalField& field);

/// Parses 24 SIGNAL bits; empty on parity failure or unknown RATE.
std::optional<SignalField> decode_signal_bits(const common::Bits& bits);

/// The complete SIGNAL OFDM symbol (symbol index 0).  On the 40 MHz plan
/// the 24 SIGNAL bits are zero-padded to the wider BPSK symbol.
common::CplxVec modulate_signal_symbol(const SignalField& field);
common::CplxVec modulate_signal_symbol(const SignalField& field,
                                       const ChannelPlan& plan);

/// Demodulates and decodes the SIGNAL symbol.
std::optional<SignalField> demodulate_signal_symbol(
    std::span<const common::Cplx> samples, std::span<const common::Cplx> channel);
std::optional<SignalField> demodulate_signal_symbol(
    std::span<const common::Cplx> samples, std::span<const common::Cplx> channel,
    const ChannelPlan& plan);

}  // namespace sledzig::wifi
