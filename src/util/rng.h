// Deterministic pseudo-random number generation for simulations.
//
// Every experiment in otpdb is replayable from a single 64-bit seed. Rng wraps
// xoshiro256** (seeded via SplitMix64) and offers the distributions the
// workload and network models need. Rng instances can be split() into
// independent streams so that concurrent model components do not perturb each
// other's sequences. Copying one copies its cached Zipf table too.
#pragma once

#include <cstdint>
#include <vector>

namespace otpdb {

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  /// Seeds the generator; equal seeds yield identical streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform_double(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal with the given mean and standard deviation (Box-Muller).
  double normal(double mean, double stddev);

  /// Truncated normal: redraws until the sample is >= lo.
  double normal_at_least(double mean, double stddev, double lo);

  /// Zipf-distributed rank in [0, n) with skew theta (theta = 0 -> uniform).
  std::uint64_t zipf(std::uint64_t n, double theta);

  /// Derives an independent generator stream; deterministic in (seed, calls).
  Rng split();

  /// Fisher-Yates shuffle of an index vector (used by workload generators).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(v[i], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  // Zipf CDF of the last (n, theta) drawn, n = its size: zipf_cdf_[i] is the
  // sum of 1/(k+1)^theta over ranks k <= i, accumulated in rank order.
  double zipf_theta_ = 0.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace otpdb
