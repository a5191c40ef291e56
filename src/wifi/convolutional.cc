#include "wifi/convolutional.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <utility>

namespace sledzig::wifi {

namespace {

common::Bit parity7(unsigned v) {
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return static_cast<common::Bit>(v & 1u);
}

}  // namespace

EncodeStepResult encode_step(unsigned state, common::Bit input) {
  // Register layout: bit6 = x_n (current input), bit5..bit0 = x_{n-1}..x_{n-6}.
  const unsigned reg = (static_cast<unsigned>(input & 1u) << 6) | (state & 0x3f);
  EncodeStepResult r;
  r.out_a = parity7(reg & kGen0);
  r.out_b = parity7(reg & kGen1);
  r.next_state = (reg >> 1) & 0x3f;  // drop x_{n-6}, x_n becomes x_{n-1}
  return r;
}

common::Bits convolutional_encode(const common::Bits& in) {
  common::Bits out;
  out.reserve(in.size() * 2);
  unsigned state = 0;
  for (common::Bit b : in) {
    const auto step = encode_step(state, b);
    out.push_back(step.out_a);
    out.push_back(step.out_b);
    state = step.next_state;
  }
  return out;
}

namespace {

constexpr unsigned kHalfStates = kNumStates / 2;

/// Butterfly j joins predecessors 2j and 2j+1 to successors j (input 0) and
/// j + 32 (input 1).  Both generators tap x_n and x_{n-6}, so the branches
/// 2j -> j and 2j+1 -> j+32 emit one label (a_j, b_j) and the two crossing
/// branches emit its complement.
struct ButterflyLabels {
  std::array<std::uint8_t, kHalfStates> a, b;
};

const ButterflyLabels& butterfly_labels() {
  static const ButterflyLabels labels = [] {
    ButterflyLabels out{};
    for (unsigned j = 0; j < kHalfStates; ++j) {
      const auto r = encode_step(2 * j, 0);
      out.a[j] = r.out_a;
      out.b[j] = r.out_b;
    }
    return out;
  }();
  return labels;
}

/// Shared add-compare-select sweep + traceback.
///
/// Per-step branch metrics come from two 2-entry tables filled by
/// `fill_tables(t, ca, cb)` (cost contribution of output bit a resp. b
/// being 0/1).  Each successor weighs its two predecessors branch-free and
/// bit-identically to a scalar state-by-state sweep:
///   - costs associate as (metric + ca[a]) + cb[b];
///   - a predecessor at `inf` is unreachable and offers `inf`;
///   - the candidate from 2j is taken if below `inf`, the one from 2j+1
///     only if strictly below that (so a tie keeps 2j, and a NaN cost
///     never wins).
/// One 64-bit word per step records which successors took 2j+1; traceback
/// recovers the predecessor as ((s & 31) << 1) | bit and the input as s>>5.
template <typename Metric, typename FillTables>
common::Bits viterbi_sweep(std::size_t steps, Metric inf, bool terminated,
                           FillTables&& fill_tables) {
  const auto& lab = butterfly_labels();
  std::array<Metric, kNumStates> metric_a{}, metric_b{};
  Metric* metric = metric_a.data();
  Metric* next = metric_b.data();
  std::fill(metric, metric + kNumStates, inf);
  metric[0] = Metric{};  // encoder starts in the all-zero state

  std::vector<std::uint64_t> decisions(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    Metric ca[2] = {}, cb[2] = {};
    fill_tables(t, ca, cb);
    std::uint64_t word = 0;
    for (unsigned j = 0; j < kHalfStates; ++j) {
      const unsigned a = lab.a[j], b = lab.b[j];
      const Metric m0 = metric[2 * j];
      const Metric m1 = metric[2 * j + 1];
      const Metric lo0 = m0 < inf ? (m0 + ca[a]) + cb[b] : inf;
      const Metric lo1 = m1 < inf ? (m1 + ca[a ^ 1u]) + cb[b ^ 1u] : inf;
      const Metric hi0 = m0 < inf ? (m0 + ca[a ^ 1u]) + cb[b ^ 1u] : inf;
      const Metric hi1 = m1 < inf ? (m1 + ca[a]) + cb[b] : inf;
      const Metric lo = lo0 < inf ? lo0 : inf;
      const Metric hi = hi0 < inf ? hi0 : inf;
      next[j] = lo1 < lo ? lo1 : lo;
      next[j + kHalfStates] = hi1 < hi ? hi1 : hi;
      word |= std::uint64_t{lo1 < lo} << j |
              std::uint64_t{hi1 < hi} << (j + kHalfStates);
    }
    decisions[t] = word;
    std::swap(metric, next);
  }

  // Pick the end state: 0 when terminated, otherwise best metric.
  unsigned state = 0;
  if (!terminated) {
    Metric best = inf;
    for (unsigned s = 0; s < kNumStates; ++s) {
      if (metric[s] < best) {
        best = metric[s];
        state = s;
      }
    }
  }

  common::Bits decoded(steps);
  for (std::size_t t = steps; t-- > 0;) {
    decoded[t] = static_cast<common::Bit>(state / kHalfStates);
    state = ((state % kHalfStates) << 1) |
            static_cast<unsigned>((decisions[t] >> state) & 1u);
  }
  return decoded;
}

}  // namespace

common::Bits viterbi_decode(const std::vector<std::int8_t>& coded,
                            bool terminated) {
  if (coded.size() % 2 != 0) {
    throw std::invalid_argument("viterbi_decode: odd coded length");
  }
  constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 2;
  return viterbi_sweep(
      coded.size() / 2, kInf, terminated,
      [&](std::size_t t, unsigned (&ca)[2], unsigned (&cb)[2]) {
        const std::int8_t ra = coded[2 * t];
        const std::int8_t rb = coded[2 * t + 1];
        // Hamming cost per output bit; an erased position costs nothing
        // either way.
        ca[0] = (ra != kErased && ra != 0) ? 1u : 0u;
        ca[1] = (ra != kErased && ra != 1) ? 1u : 0u;
        cb[0] = (rb != kErased && rb != 0) ? 1u : 0u;
        cb[1] = (rb != kErased && rb != 1) ? 1u : 0u;
      });
}

common::Bits viterbi_decode_soft(std::span<const double> llrs,
                                 bool terminated) {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("viterbi_decode_soft: odd LLR length");
  }
  constexpr double kInf = 1e300;
  return viterbi_sweep(
      llrs.size() / 2, kInf, terminated,
      [&](std::size_t t, double (&ca)[2], double (&cb)[2]) {
        // Cost: correlation against the LLRs — a bit of 1 prefers a
        // positive LLR.  Add llr when the branch bit disagrees with its
        // sign (equivalent up to a constant to -sum(llr * (2*bit - 1))).
        const double la = llrs[2 * t];
        const double lb = llrs[2 * t + 1];
        ca[0] = la;
        ca[1] = -la;
        cb[0] = lb;
        cb[1] = -lb;
      });
}

}  // namespace sledzig::wifi
