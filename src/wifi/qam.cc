#include "wifi/qam.h"

#include <array>
#include <cmath>
#include <stdexcept>

namespace sledzig::wifi {

namespace {

/// Decodes a binary-reflected Gray code given MSB-first bits.
unsigned gray_decode(std::span<const common::Bit> bits) {
  unsigned b = 0;
  unsigned prev = 0;
  for (common::Bit g : bits) {
    prev ^= (g & 1u);
    b = (b << 1) | prev;
  }
  return b;
}

/// Encodes value (0..2^n-1) as MSB-first Gray bits.
void gray_encode(unsigned value, std::size_t n, common::Bits& out) {
  const unsigned g = value ^ (value >> 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<common::Bit>((g >> (n - 1 - i)) & 1u));
  }
}

double axis_amplitude(std::span<const common::Bit> bits) {
  const auto n = bits.size();
  return 2.0 * static_cast<double>(gray_decode(bits)) -
         (static_cast<double>(1u << n) - 1.0);
}

/// Nearest valid axis level for n bits, returned as the level index 0..2^n-1.
unsigned nearest_level(double value, std::size_t n) {
  const double max_level = static_cast<double>((1u << n) - 1);
  double idx = (value + max_level) / 2.0;
  idx = std::round(idx);
  if (idx < 0) idx = 0;
  if (idx > max_level) idx = max_level;
  return static_cast<unsigned>(idx);
}

}  // namespace

double qam_norm(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64: return 1.0 / std::sqrt(42.0);
    case Modulation::kQam256: return 1.0 / std::sqrt(170.0);
  }
  throw std::invalid_argument("qam_norm: bad modulation");
}

common::Cplx qam_map_point(std::span<const common::Bit> bits, Modulation m) {
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  if (bits.size() != n_bpsc) {
    throw std::invalid_argument("qam_map_point: wrong group size");
  }
  const double k = qam_norm(m);
  if (m == Modulation::kBpsk) {
    return {k * (bits[0] ? 1.0 : -1.0), 0.0};
  }
  // Interlaced layout: I bits at even group offsets, Q bits at odd.
  const std::size_t half = n_bpsc / 2;
  common::Bits i_bits(half), q_bits(half);
  for (std::size_t t = 0; t < half; ++t) {
    i_bits[t] = bits[2 * t];
    q_bits[t] = bits[2 * t + 1];
  }
  const double i = axis_amplitude(i_bits);
  const double q = axis_amplitude(q_bits);
  return {k * i, k * q};
}

common::CplxVec qam_map(const common::Bits& bits, Modulation m) {
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  if (bits.size() % n_bpsc != 0) {
    throw std::invalid_argument("qam_map: size not a multiple of N_BPSC");
  }
  common::CplxVec out;
  out.reserve(bits.size() / n_bpsc);
  for (std::size_t i = 0; i < bits.size(); i += n_bpsc) {
    out.push_back(
        qam_map_point(std::span<const common::Bit>(bits).subspan(i, n_bpsc), m));
  }
  return out;
}

common::Bits qam_demap_point(common::Cplx point, Modulation m) {
  const double k = qam_norm(m);
  common::Bits out;
  if (m == Modulation::kBpsk) {
    out.push_back(point.real() >= 0.0 ? 1 : 0);
    return out;
  }
  const std::size_t half = bits_per_subcarrier(m) / 2;
  common::Bits i_bits, q_bits;
  gray_encode(nearest_level(point.real() / k, half), half, i_bits);
  gray_encode(nearest_level(point.imag() / k, half), half, q_bits);
  out.resize(2 * half);
  for (std::size_t t = 0; t < half; ++t) {
    out[2 * t] = i_bits[t];
    out[2 * t + 1] = q_bits[t];
  }
  return out;
}

common::Bits qam_demap(std::span<const common::Cplx> points, Modulation m) {
  common::Bits out;
  out.reserve(points.size() * bits_per_subcarrier(m));
  for (const auto& p : points) {
    const auto bits = qam_demap_point(p, m);
    out.insert(out.end(), bits.begin(), bits.end());
  }
  return out;
}

namespace {

/// One axis of a soft-demapping table.  A label's bits split into the axis
/// bits at even group offsets (I) and odd offsets (Q); the point's real part
/// depends only on the former and its imaginary part only on the latter.
/// Levels are indexed by their axis bits: bit t of the index is the axis'
/// t-th bit, group offset 2t (I) or 2t+1 (Q).
struct Axis {
  std::size_t bits = 0;  // 0 for the Q axis of BPSK (one level at 0)
  std::array<double, 16> coord{};
};

struct SoftTable {
  std::size_t n_bpsc = 0;
  Axis i, q;
};

constexpr double kFar = 1e300;

/// Squared distances from y to an axis' levels reduced to their minimum
/// over all levels and, per axis bit, over the levels where that bit is 0
/// resp. 1.  Minima start at kFar and skip NaN (a NaN coordinate of the
/// received point leaves them at kFar).
struct AxisMinima {
  double all = kFar;
  std::array<double, 4> bit0{kFar, kFar, kFar, kFar};
  std::array<double, 4> bit1{kFar, kFar, kFar, kFar};
};

const SoftTable& soft_table(Modulation m) {
  // Coordinates are read off the mapper, so they match it bit for bit.
  static const auto tables = [] {
    std::array<SoftTable, 5> all;
    for (const auto mod : {Modulation::kBpsk, Modulation::kQpsk,
                           Modulation::kQam16, Modulation::kQam64,
                           Modulation::kQam256}) {
      auto& table = all[static_cast<std::size_t>(mod)];
      table.n_bpsc = bits_per_subcarrier(mod);
      table.i.bits = (table.n_bpsc + 1) / 2;
      table.q.bits = table.n_bpsc / 2;
      for (const bool imag : {false, true}) {
        Axis& axis = imag ? table.q : table.i;
        for (unsigned level = 0; level < (1u << axis.bits); ++level) {
          common::Bits group(table.n_bpsc, 0);
          for (std::size_t t = 0; t < axis.bits; ++t) {
            group[2 * t + (imag ? 1 : 0)] =
                static_cast<common::Bit>((level >> t) & 1u);
          }
          const common::Cplx point = qam_map_point(group, mod);
          axis.coord[level] = imag ? point.imag() : point.real();
        }
      }
    }
    return all;
  }();
  return tables[static_cast<std::size_t>(m)];
}

AxisMinima axis_minima(double y, const Axis& axis) {
  AxisMinima out;
  for (unsigned l = 0; l < (1u << axis.bits); ++l) {
    const double e = y - axis.coord[l];
    const double d = e * e;
    out.all = d < out.all ? d : out.all;
    for (std::size_t t = 0; t < axis.bits; ++t) {
      double& m = ((l >> t) & 1u) ? out.bit1[t] : out.bit0[t];
      m = d < m ? d : m;
    }
  }
  return out;
}

/// min(kFar, a + b): the capped max-log distance of a label set.
double capped_sum(double a, double b) {
  const double s = a + b;
  return s < kFar ? s : kFar;
}

/// Max-log LLRs of one point into out[0..n_bpsc).
///
/// The full enumeration takes, per bit, the minimum of fl(dI + dQ) over
/// the labels with that bit 0 (resp. 1), capped at kFar and skipping NaN.
/// Square QAM is the product of its two axes and IEEE addition rounds
/// monotonically, so min_{i,q} fl(dI_i + dQ_q) == fl(min_i dI_i +
/// min_q dQ_q): the per-axis minima give the same LLRs bit for bit.
void demap_soft_into(common::Cplx point, const SoftTable& table,
                     double* out) {
  const AxisMinima i = axis_minima(point.real(), table.i);
  const AxisMinima q = axis_minima(point.imag(), table.q);
  for (std::size_t t = 0; t < table.i.bits; ++t) {
    out[2 * t] = capped_sum(i.bit0[t], q.all) - capped_sum(i.bit1[t], q.all);
  }
  for (std::size_t t = 0; t < table.q.bits; ++t) {
    out[2 * t + 1] =
        capped_sum(i.all, q.bit0[t]) - capped_sum(i.all, q.bit1[t]);
  }
}

}  // namespace

std::vector<double> qam_demap_soft(common::Cplx point, Modulation m) {
  const SoftTable& table = soft_table(m);
  std::vector<double> llrs(table.n_bpsc);
  demap_soft_into(point, table, llrs.data());
  return llrs;
}

std::vector<double> qam_demap_soft(std::span<const common::Cplx> points,
                                   Modulation m) {
  const SoftTable& table = soft_table(m);
  std::vector<double> out(points.size() * table.n_bpsc);
  double* dst = out.data();
  for (const auto& p : points) {
    demap_soft_into(p, table, dst);
    dst += table.n_bpsc;
  }
  return out;
}

std::vector<SignificantBitSpec> significant_bits(Modulation m) {
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  if (n_bpsc < 4) {
    throw std::invalid_argument(
        "significant_bits: BPSK/QPSK have a single power level");
  }
  const std::size_t half = n_bpsc / 2;
  // Lowest axis levels (+-1) have Gray codes 01..1 0..0 reading MSB-first:
  // the first axis bit is arbitrary, the second must be 1, the rest must be
  // 0.  With the interlaced layout the axis-t bit sits at group offset
  // 2t (I) / 2t+1 (Q), so the significant offsets are {2, 3, 4, ...}.
  std::vector<SignificantBitSpec> specs;
  for (std::size_t axis = 0; axis < 2; ++axis) {
    specs.push_back({2 * 1 + axis, 1});
    for (std::size_t t = 2; t < half; ++t) specs.push_back({2 * t + axis, 0});
  }
  return specs;
}

double lowest_point_power_raw() { return 2.0; }

double average_point_power_raw(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 2.0;
    case Modulation::kQam16: return 10.0;
    case Modulation::kQam64: return 42.0;
    case Modulation::kQam256: return 170.0;
  }
  throw std::invalid_argument("average_point_power_raw: bad modulation");
}

bool is_lowest_point(common::Cplx point, Modulation m, double tol) {
  const double k = qam_norm(m);
  return std::abs(std::abs(point.real()) - k) < tol &&
         std::abs(std::abs(point.imag()) - k) < tol;
}

}  // namespace sledzig::wifi
