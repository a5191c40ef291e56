// Differential oracle for the soft-decision WiFi receive kernels (`perf`
// ctest label).
//
// The production max-log demapper works per constellation axis and the
// Viterbi decoders run a branch-free butterfly sweep with one decision word
// per step.  Both must stay bitwise identical to the plain scalar kernels
// they replaced, for every input including non-finite ones.  Those scalar
// kernels live on here, verbatim in behaviour, as the reference:
//
//   * `reference_demap_soft`: enumerate every constellation point and take
//     per-bit minima of |y - s|^2 (the brute-force max-log demapper);
//   * `reference_sweep`: visit every state and both inputs, skip states at
//     `inf`, keep a candidate only when strictly below the incumbent, and
//     store one (input, predecessor) survivor byte per state and step.
//
// LLRs and decoded bits are compared with memcmp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/fft.h"
#include "common/rng.h"
#include "wifi/convolutional.h"
#include "wifi/phy_params.h"
#include "wifi/qam.h"

namespace sledzig {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

constexpr wifi::Modulation kModulations[] = {
    wifi::Modulation::kBpsk, wifi::Modulation::kQpsk,
    wifi::Modulation::kQam16, wifi::Modulation::kQam64,
    wifi::Modulation::kQam256};

// ---------------------------------------------------------------------------
// Reference kernels

/// Every constellation point of m, indexed by its label (bit i of the index
/// is the group bit at offset i).
const std::vector<common::Cplx>& constellation(wifi::Modulation m) {
  static const auto tables = [] {
    std::array<std::vector<common::Cplx>, std::size(kModulations)> all;
    for (const auto mod : kModulations) {
      const std::size_t n_bpsc = wifi::bits_per_subcarrier(mod);
      auto& points = all[static_cast<std::size_t>(mod)];
      for (unsigned v = 0; v < (1u << n_bpsc); ++v) {
        common::Bits group(n_bpsc);
        for (std::size_t i = 0; i < n_bpsc; ++i) {
          group[i] = static_cast<common::Bit>((v >> i) & 1u);
        }
        points.push_back(wifi::qam_map_point(group, mod));
      }
    }
    return all;
  }();
  return tables[static_cast<std::size_t>(m)];
}

std::vector<double> reference_demap_soft(common::Cplx point,
                                         wifi::Modulation m) {
  const std::size_t n_bpsc = wifi::bits_per_subcarrier(m);
  const auto& points = constellation(m);
  std::vector<double> min0(n_bpsc, 1e300), min1(n_bpsc, 1e300);
  for (unsigned v = 0; v < points.size(); ++v) {
    const double d = std::norm(point - points[v]);
    for (std::size_t i = 0; i < n_bpsc; ++i) {
      if ((v >> i) & 1u) {
        min1[i] = std::min(min1[i], d);
      } else {
        min0[i] = std::min(min0[i], d);
      }
    }
  }
  std::vector<double> llrs(n_bpsc);
  for (std::size_t i = 0; i < n_bpsc; ++i) llrs[i] = min0[i] - min1[i];
  return llrs;
}

template <typename Metric, typename FillTables>
common::Bits reference_sweep(std::size_t steps, Metric inf, bool terminated,
                             FillTables&& fill_tables) {
  struct Branch {
    std::uint8_t next, a, b;
  };
  std::array<std::array<Branch, 2>, wifi::kNumStates> trellis{};
  for (unsigned s = 0; s < wifi::kNumStates; ++s) {
    for (unsigned in = 0; in < 2; ++in) {
      const auto r = wifi::encode_step(s, static_cast<common::Bit>(in));
      trellis[s][in] =
          Branch{static_cast<std::uint8_t>(r.next_state), r.out_a, r.out_b};
    }
  }
  std::array<Metric, wifi::kNumStates> metric, next_metric;
  metric.fill(inf);
  metric[0] = Metric{};
  std::vector<std::uint8_t> survivor(steps * wifi::kNumStates, 0);
  for (std::size_t t = 0; t < steps; ++t) {
    next_metric.fill(inf);
    Metric ca[2], cb[2];
    fill_tables(t, ca, cb);
    std::uint8_t* surv_t = survivor.data() + t * wifi::kNumStates;
    for (unsigned s = 0; s < wifi::kNumStates; ++s) {
      if (metric[s] >= inf) continue;
      for (unsigned in = 0; in < 2; ++in) {
        const Branch& br = trellis[s][in];
        const Metric cost = (metric[s] + ca[br.a]) + cb[br.b];
        if (cost < next_metric[br.next]) {
          next_metric[br.next] = cost;
          surv_t[br.next] = static_cast<std::uint8_t>((in << 6) | s);
        }
      }
    }
    metric.swap(next_metric);
  }
  unsigned state = 0;
  if (!terminated) {
    Metric best = inf;
    for (unsigned s = 0; s < wifi::kNumStates; ++s) {
      if (metric[s] < best) {
        best = metric[s];
        state = s;
      }
    }
  }
  common::Bits decoded(steps);
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint8_t packed = survivor[t * wifi::kNumStates + state];
    decoded[t] = static_cast<common::Bit>(packed >> 6);
    state = packed & 0x3fu;
  }
  return decoded;
}

common::Bits reference_decode_hard(const std::vector<std::int8_t>& coded,
                                   bool terminated) {
  return reference_sweep(
      coded.size() / 2, std::numeric_limits<unsigned>::max() / 2, terminated,
      [&](std::size_t t, unsigned (&ca)[2], unsigned (&cb)[2]) {
        const std::int8_t ra = coded[2 * t];
        const std::int8_t rb = coded[2 * t + 1];
        ca[0] = (ra != wifi::kErased && ra != 0) ? 1u : 0u;
        ca[1] = (ra != wifi::kErased && ra != 1) ? 1u : 0u;
        cb[0] = (rb != wifi::kErased && rb != 0) ? 1u : 0u;
        cb[1] = (rb != wifi::kErased && rb != 1) ? 1u : 0u;
      });
}

common::Bits reference_decode_soft(std::span<const double> llrs,
                                   bool terminated) {
  return reference_sweep(
      llrs.size() / 2, 1e300, terminated,
      [&](std::size_t t, double (&ca)[2], double (&cb)[2]) {
        ca[0] = llrs[2 * t];
        ca[1] = -llrs[2 * t];
        cb[0] = llrs[2 * t + 1];
        cb[1] = -llrs[2 * t + 1];
      });
}

// ---------------------------------------------------------------------------
// Input generators

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bytes(const common::Bits& a, const common::Bits& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// One coordinate of a received point: mostly near the constellation,
/// sometimes far out, sometimes special.
double received_coordinate(common::Rng& rng) {
  static constexpr double kSpecial[] = {kNaN,    kInf,    -kInf,  0.0,
                                        -0.0,    1e150,   -1e150, 3e150,
                                        -7e149,  1e300,   -1e300};
  const auto pick = rng.uniform_int(0, 99);
  if (pick < 6) {
    const auto last = static_cast<std::int64_t>(std::size(kSpecial)) - 1;
    return kSpecial[rng.uniform_int(0, last)];
  }
  if (pick < 12) return rng.gaussian(1e150);
  if (pick < 20) return rng.gaussian(30.0);
  return rng.gaussian(1.0);
}

/// One soft-decoder LLR: a noisy codeword bit, or an extreme/non-finite
/// value with probability `extreme_pct` percent.
double llr_value(common::Rng& rng, common::Bit coded_bit, int extreme_pct) {
  static constexpr double kExtreme[] = {1e300,  -1e300, kInf, -kInf,
                                        kNaN,   0.0,    -0.0, 5e299,
                                        -9e307, 1.7e308};
  if (rng.uniform_int(0, 99) < extreme_pct) {
    const auto last = static_cast<std::int64_t>(std::size(kExtreme)) - 1;
    return kExtreme[rng.uniform_int(0, last)];
  }
  return (coded_bit ? 2.0 : -2.0) + rng.gaussian(3.0);
}

common::Bits random_codeword(common::Rng& rng, std::size_t steps) {
  auto info = rng.bits(steps);
  // Zero the last kTailBits so a terminated decode sees a flushed encoder.
  const std::size_t tail = std::min<std::size_t>(steps, wifi::kTailBits);
  std::fill(info.end() - static_cast<std::ptrdiff_t>(tail), info.end(), 0);
  return wifi::convolutional_encode(info);
}

// ---------------------------------------------------------------------------
// Demapper

TEST(RxKernelOracle, DemapMatchesBruteForceOnRandomAndSpecialPoints) {
  common::Rng rng(0xde3a9);
  std::size_t compared = 0;
  for (const auto m : kModulations) {
    const double k = wifi::qam_norm(m);
    for (int n = 0; n < 20000; ++n) {
      common::Cplx y{received_coordinate(rng), received_coordinate(rng)};
      if (n % 5 == 0) y *= k;  // land among the constellation's own levels
      const auto got = wifi::qam_demap_soft(y, m);
      const auto want = reference_demap_soft(y, m);
      ASSERT_TRUE(same_bytes(got, want))
          << "modulation " << static_cast<int>(m) << " point " << y;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 100000u);
}

TEST(RxKernelOracle, DemapMatchesBruteForceOnEverySpecialPair) {
  const double specials[] = {kNaN, kInf,  -kInf, 0.0,    -0.0,  1e150,
                             -1e150, 1e300, -1e300, 0.3162, -0.9487};
  for (const auto m : kModulations) {
    for (const double re : specials) {
      for (const double im : specials) {
        const common::Cplx y{re, im};
        ASSERT_TRUE(
            same_bytes(wifi::qam_demap_soft(y, m), reference_demap_soft(y, m)))
            << "modulation " << static_cast<int>(m) << " point " << y;
      }
    }
  }
}

TEST(RxKernelOracle, DemapStreamIsTheConcatenationOfPoints) {
  common::Rng rng(0x57e4);
  for (const auto m : kModulations) {
    std::vector<common::Cplx> points(48);
    for (auto& p : points) p = {received_coordinate(rng), rng.gaussian(1.0)};
    std::vector<double> want;
    for (const auto& p : points) {
      const auto llrs = reference_demap_soft(p, m);
      want.insert(want.end(), llrs.begin(), llrs.end());
    }
    EXPECT_TRUE(same_bytes(wifi::qam_demap_soft(points, m), want))
        << "modulation " << static_cast<int>(m);
  }
}

// ---------------------------------------------------------------------------
// Viterbi

/// Step counts: every length up to 64, then random lengths up to 3000.
std::vector<std::size_t> decode_lengths(common::Rng& rng) {
  std::vector<std::size_t> out;
  for (std::size_t n = 1; n <= 64; ++n) out.push_back(n);
  for (int i = 0; i < 60; ++i) {
    out.push_back(static_cast<std::size_t>(rng.uniform_int(65, 3000)));
  }
  return out;
}

TEST(RxKernelOracle, HardDecodeMatchesReference) {
  common::Rng rng(0x4a2d);
  std::size_t compared = 0;
  for (const std::size_t steps : decode_lengths(rng)) {
    const auto coded = random_codeword(rng, steps);
    for (const int corrupt_pct : {0, 8, 50}) {
      std::vector<std::int8_t> hard(coded.begin(), coded.end());
      for (auto& c : hard) {
        const auto r = rng.uniform_int(0, 99);
        if (r < corrupt_pct / 2) {
          c = wifi::kErased;
        } else if (r < corrupt_pct) {
          c ^= 1;
        }
      }
      for (const bool terminated : {true, false}) {
        ASSERT_TRUE(same_bytes(wifi::viterbi_decode(hard, terminated),
                               reference_decode_hard(hard, terminated)))
            << "steps " << steps << " corrupt " << corrupt_pct
            << " terminated " << terminated;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 124u * 3 * 2);
}

TEST(RxKernelOracle, SoftDecodeMatchesReferenceWithExtremeLlrs) {
  common::Rng rng(0x50f7);
  std::size_t compared = 0;
  for (const std::size_t steps : decode_lengths(rng)) {
    const auto coded = random_codeword(rng, steps);
    for (const int extreme_pct : {0, 1, 10, 60}) {
      std::vector<double> llrs(coded.size());
      for (std::size_t i = 0; i < llrs.size(); ++i) {
        llrs[i] = llr_value(rng, coded[i], extreme_pct);
      }
      for (const bool terminated : {true, false}) {
        ASSERT_TRUE(same_bytes(wifi::viterbi_decode_soft(llrs, terminated),
                               reference_decode_soft(llrs, terminated)))
            << "steps " << steps << " extreme " << extreme_pct
            << " terminated " << terminated;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 124u * 4 * 2);
}

TEST(RxKernelOracle, SoftDecodeMatchesReferenceOnDegenerateStreams) {
  // Streams that leave states unreachable (NaN and infinite branch costs),
  // drive metrics to -inf, or erase everything, so the traceback walks
  // through states no candidate ever reached.
  const double fills[] = {kNaN, kInf, -kInf, 0.0, 1e300, -1e300};
  for (const std::size_t steps : {1u, 2u, 7u, 33u, 500u}) {
    for (const double a : fills) {
      for (const double b : fills) {
        std::vector<double> llrs(2 * steps);
        for (std::size_t i = 0; i < llrs.size(); ++i) {
          llrs[i] = (i % 3 == 0) ? a : b;
        }
        for (const bool terminated : {true, false}) {
          ASSERT_TRUE(same_bytes(wifi::viterbi_decode_soft(llrs, terminated),
                                 reference_decode_soft(llrs, terminated)))
              << "steps " << steps << " fills " << a << "/" << b
              << " terminated " << terminated;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sledzig
