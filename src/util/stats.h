// Online statistics accumulators used by benches and checkers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace otpdb {

/// Streaming mean/variance/min/max (Welford). O(1) memory.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator); 0 if n < 2.
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel-friendly).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile tracker; stores all samples (fine at simulation scale).
class PercentileTracker {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  std::size_t count() const { return samples_.size(); }

  /// p in [0,100]. Returns 0 when empty. Nearest-rank method.
  double percentile(double p);
  double median() { return percentile(50.0); }

  /// Appends another tracker's samples (cross-site aggregation).
  void merge(const PercentileTracker& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = false;
  }

 private:
  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace otpdb
