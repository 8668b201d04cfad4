// Deterministic random number generation for workload synthesis.
//
// std::mt19937 + std::distributions are not bit-stable across standard
// library implementations; we ship our own xoshiro256** generator and
// distribution helpers so generated datasets (and therefore every simulated
// timing) are identical on every platform.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/util.hpp"

namespace gflink::sim {

/// splitmix64: used to seed xoshiro from a single 64-bit value.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna), public domain reference algorithm.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). n must be > 0. Uses Lemire's method-free
  /// simple modulo (bias is negligible for our n << 2^64 use-cases, and we
  /// value reproducibility over perfect uniformity).
  std::uint64_t next_below(std::uint64_t n) {
    GFLINK_CHECK(n > 0);
    return next_u64() % n;
  }

  /// Uniform double in [0, 1).
  double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  /// Uniform float in [lo, hi).
  float uniformf(float lo, float hi) { return static_cast<float>(uniform(lo, hi)); }

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 < 1e-300) u1 = 1e-300;
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    return mean + stddev * z;
  }

  /// Exponential with the given mean.
  double exponential(double mean) {
    double u = next_double();
    if (u < 1e-300) u = 1e-300;
    return -mean * std::log(u);
  }

  /// Sample an index from a Zipf(s) distribution over [0, n) using the
  /// precomputed CDF in ZipfTable (see below) — kept here as a convenience
  /// for one-off draws; bulk generation should build a ZipfTable.
  std::uint64_t next_u64_in(std::uint64_t lo, std::uint64_t hi) {
    GFLINK_CHECK(hi > lo);
    return lo + next_below(hi - lo);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t s_[4];
};

/// Precomputed inverse-CDF sampler for a Zipf(s) distribution over n items.
/// Word frequencies in the WordCount generator follow this, matching the
/// heavy-tailed vocabulary of HiBench's text generator.
///
/// Sampling is O(1) expected time through a guide table (Chen & Asau's
/// indexed search). A uniform u lands in bucket b = floor(u*n), and
/// `guide_[j]` (j in [0, n]) is the first index whose CDF is >= j/n
/// (clamped to n-1). The answer, the first index i with cdf_[i] >= u, then
/// lies in [guide_[b], guide_[b+1]], so the binary search spans one bucket
/// (about a dozen entries for n = 30 000 at s = 1). The invariant is exact
/// in floating point: the guide compares the rounded product cdf_[i]*n
/// against j, the lookup takes the same rounded product u*n, and rounding
/// is monotonic. The result therefore equals the full-range search for
/// every double u in [0, 1), including one whose u*n rounds onto a bucket
/// edge.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s) : cdf_(n), guide_(n + 1) {
    GFLINK_CHECK(n > 0 && n < (std::size_t{1} << 32));
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    const double dn = static_cast<double>(n);
    std::size_t i = 0;
    for (std::size_t j = 0; j <= n; ++j) {
      while (i + 1 < n && cdf_[i] * dn < static_cast<double>(j)) ++i;
      guide_[j] = static_cast<std::uint32_t>(i);
    }
  }

  std::size_t sample(Rng& rng) const { return sample_u(rng.next_double()); }

  /// Inverse-CDF sample from a uniform in [0,1). Lets callers derive the
  /// uniform from a per-index hash so the draw is independent of any RNG
  /// stream (and therefore of data partitioning).
  std::size_t sample_u(double u) const {
    const std::size_t n = cdf_.size();
    const double x = u * static_cast<double>(n);
    const std::size_t b = x > 0.0 ? std::min(static_cast<std::size_t>(x), n - 1) : 0;
    std::size_t lo = guide_[b], hi = guide_[b + 1];
    while (lo < hi) {
      std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // n + 1 bucket-start indices
};

}  // namespace gflink::sim
