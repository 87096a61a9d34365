#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace otpdb {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  OTPDB_ASSERT(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::uniform_double(double lo, double hi) { return lo + (hi - lo) * next_double(); }

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double mean) {
  OTPDB_ASSERT(mean > 0.0);
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::normal_at_least(double mean, double stddev, double lo) {
  for (int i = 0; i < 64; ++i) {
    const double v = normal(mean, stddev);
    if (v >= lo) return v;
  }
  return lo;  // pathological parameters: clamp rather than loop forever
}

std::uint64_t Rng::zipf(std::uint64_t n, double theta) {
  OTPDB_ASSERT(n > 0);
  if (theta <= 0.0) return static_cast<std::uint64_t>(uniform_int(0, static_cast<std::int64_t>(n - 1)));
  if (zipf_cdf_.size() != n || zipf_theta_ != theta) {
    zipf_cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
      zipf_cdf_[i - 1] = sum;
    }
    zipf_theta_ = theta;
  }
  // Inverse CDF: the first rank whose prefix sum reaches u < the total. The
  // table holds exactly the partial sums a linear walk adds up, so every draw
  // is the walk's.
  const double u = next_double() * zipf_cdf_.back();
  return static_cast<std::uint64_t>(std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
                                    zipf_cdf_.begin());
}

Rng Rng::split() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace otpdb
