#include "util/stats.h"

#include <cmath>

#include "util/assert.h"

namespace otpdb {

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ = (mean_ * static_cast<double>(n_) + other.mean_ * static_cast<double>(other.n_)) / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double PercentileTracker::percentile(double p) {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

}  // namespace otpdb
