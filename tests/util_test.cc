// Unit tests for src/util: deterministic RNG, distributions, statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "core/txn.h"
#include "util/dense_deque.h"
#include "util/recycling.h"
#include "util/rng.h"
#include "util/stats.h"

namespace otpdb {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitIsIndependentButDeterministic) {
  Rng a(7), b(7);
  Rng a1 = a.split();
  Rng b1 = b.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a1.next_u64(), b1.next_u64());
  // The split stream differs from the parent's continuation.
  Rng c(7);
  (void)c.next_u64();
  Rng d(7);
  Rng d1 = d.split();
  EXPECT_NE(c.next_u64(), d1.next_u64());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) heads += rng.bernoulli(0.5);
  EXPECT_NEAR(heads / 20000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(23);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(29);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, NormalAtLeastRespectsFloor) {
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) EXPECT_GE(rng.normal_at_least(0.0, 1.0, -0.5), -0.5);
}

TEST(Rng, ZipfZeroThetaIsUniform) {
  Rng rng(37);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.zipf(4, 0.0)];
  for (int c : counts) EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
}

TEST(Rng, ZipfSkewFavorsLowRanks) {
  Rng rng(41);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.zipf(8, 1.2)];
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[0], counts[7]);
  EXPECT_GT(counts[0], 40000 / 8);
}

TEST(Rng, ZipfAlwaysInRange) {
  Rng rng(43);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(rng.zipf(5, 0.8), 5u);
}

/// Reference: the inverse-CDF walk without a table, which sums n powers twice
/// per draw. Rng::zipf's cached table must reproduce it draw for draw.
std::uint64_t zipf_by_walk(Rng& rng, std::uint64_t n, double theta) {
  if (theta <= 0.0) {
    return static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(n - 1)));
  }
  double norm = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) norm += 1.0 / std::pow(static_cast<double>(i), theta);
  const double u = rng.next_double() * norm;
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
    if (u <= sum) return i - 1;
  }
  return n - 1;
}

TEST(Rng, ZipfTableDrawsWhatTheWalkDraws) {
  const std::uint64_t sizes[] = {1, 2, 4, 16, 64, 1000};
  const double thetas[] = {-1.0, 0.0, 0.3, 0.5, 0.99, 1.0, 1.2, 2.0};
  Rng table(47), walk(47);
  // Shape by shape, then every shape in turn on each draw, so the table is
  // rebuilt between draws too.
  for (std::uint64_t n : sizes) {
    for (double theta : thetas) {
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(table.zipf(n, theta), zipf_by_walk(walk, n, theta))
            << "n=" << n << " theta=" << theta << " draw " << i;
      }
    }
  }
  for (int i = 0; i < 50; ++i) {
    for (std::uint64_t n : sizes) {
      for (double theta : thetas) {
        ASSERT_EQ(table.zipf(n, theta), zipf_by_walk(walk, n, theta))
            << "n=" << n << " theta=" << theta << " round " << i;
      }
    }
  }
  EXPECT_EQ(table.next_u64(), walk.next_u64()) << "both consumed the same draws";
}

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeEqualsConcatenation) {
  Rng rng(47);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5, 3);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(PercentileTracker, NearestRank) {
  PercentileTracker p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(p.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
}

TEST(PercentileTracker, EmptyReturnsZero) {
  PercentileTracker p;
  EXPECT_EQ(p.percentile(50), 0.0);
}

TEST(PercentileTracker, InterleavedAddAndQuery) {
  PercentileTracker p;
  p.add(5);
  EXPECT_DOUBLE_EQ(p.median(), 5.0);
  p.add(1);
  p.add(9);
  EXPECT_DOUBLE_EQ(p.median(), 5.0);
}

TEST(DenseDeque, FindReturnsNullOutsideTheRange) {
  DenseDeque<int> table;
  EXPECT_EQ(table.find(0), nullptr);
  table[10] = 1;
  table[12] = 3;
  EXPECT_EQ(table.size(), 3u);
  ASSERT_NE(table.find(11), nullptr);
  EXPECT_EQ(*table.find(11), 0) << "a skipped key gets a default slot";
  EXPECT_EQ(table.find(9), nullptr);
  EXPECT_EQ(table.find(13), nullptr);
  table[8] = 5;  // below the first key, nothing trimmed: the front grows
  EXPECT_EQ(table.first_key(), 8u);
  EXPECT_EQ(*table.find(8), 5);
}

TEST(DenseDeque, TrimFrontDropsKeysForGood) {
  DenseDeque<int> table;
  for (std::uint64_t k = 0; k < 10; ++k) table[k] = static_cast<int>(k);
  EXPECT_EQ(table.front_key(), 0u);
  table.trim_front(4);
  EXPECT_EQ(table.size(), 6u);
  EXPECT_EQ(table.first_key(), 4u);
  EXPECT_EQ(table.front_key(), 4u);
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(table.trimmed(k));
    EXPECT_EQ(table.find(k), nullptr) << "key " << k << " below the front";
  }
  EXPECT_FALSE(table.trimmed(4));
  EXPECT_EQ(*table.find(4), 4) << "slots above the front keep their values";
  table.trim_front(2);  // behind the front: a no-op
  EXPECT_TRUE(table.trimmed(3));
  EXPECT_EQ(table.size(), 6u);
  EXPECT_DEATH(table[3], "below the trimmed front") << "a trimmed key is never re-created";
}

TEST(DenseDeque, TrimPastTheEndKeepsTheFront) {
  DenseDeque<int> table;
  table[5] = 1;
  table.trim_front(20);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(19), nullptr);
  EXPECT_TRUE(table.trimmed(19));
  table[25] = 7;  // above the front: a fresh range starts there
  EXPECT_EQ(table.first_key(), 25u);
  EXPECT_EQ(table.front_key(), 20u) << "keys 20-24 are untouched, not trimmed";
  table[20] = 2;  // the gap back to the front may still be filled
  EXPECT_EQ(table.size(), 6u);
  EXPECT_DEATH(table[19], "below the trimmed front");
  table.clear();  // forgets the front
  EXPECT_FALSE(table.trimmed(0));
  table[0] = 1;
  EXPECT_EQ(table.size(), 1u);
}

TEST(FreeBlocks, RecyclesBlocksOfTheFirstReleasedSize) {
  FreeBlocks blocks;
  void* a = blocks.allocate(64);
  void* b = blocks.allocate(64);
  void* odd = blocks.allocate(32);
  blocks.deallocate(a, 64);  // fixes the size at 64
  blocks.deallocate(odd, 32);  // another size: back to the heap
  blocks.deallocate(b, 64);
  EXPECT_EQ(blocks.allocate(64), b) << "the last block released comes back first";
  EXPECT_EQ(blocks.allocate(64), a);
  blocks.deallocate(a, 64);
  blocks.deallocate(b, 64);
}

/// A pooled body: a vector that clear() empties and a reference it drops.
struct PooledBody {
  std::vector<int> items;
  std::shared_ptr<int> held;
  void clear() {
    items.clear();
    held.reset();
  }
};

TEST(BodyPool, RecycledBodyIsClearedAndKeepsItsCapacity) {
  BodyPool<PooledBody> pool;
  auto held = std::make_shared<int>(1);
  std::shared_ptr<PooledBody> body = pool.acquire();
  body->items.assign(100, 7);
  body->held = held;
  const PooledBody* first = body.get();
  // An aliasing pointer into the body keeps it out of the pool too.
  std::shared_ptr<const std::vector<int>> items(body, &body->items);
  body.reset();
  EXPECT_EQ(held.use_count(), 2) << "a body still referenced was recycled";
  items.reset();
  EXPECT_EQ(held.use_count(), 1) << "a recycled body still holds its reference";
  body = pool.acquire();
  EXPECT_EQ(body.get(), first);
  EXPECT_TRUE(body->items.empty());
  EXPECT_GE(body->items.capacity(), 100u);
  EXPECT_EQ(body->held, nullptr);
}

TEST(BodyPool, RecycledTxnRequestCarriesNothingOfThePrevious) {
  BodyPool<TxnRequest> pool;
  std::shared_ptr<TxnRequest> request = pool.acquire();
  request->proc = 3;
  request->klass = 2;
  request->classes = {2, 5};
  request->args.ints = {1, 2, 3};
  request->origin = 1;
  request->client_seq = 9;
  request->submitted_at = 4;
  request->exec_duration = 5;
  request->deadline = 6;
  request->access_set = {40, 41};
  const TxnRequest* first = request.get();
  request.reset();
  request = pool.acquire();
  ASSERT_EQ(request.get(), first);
  EXPECT_EQ(request->proc, 0u);
  EXPECT_EQ(request->klass, 0u);
  EXPECT_TRUE(request->classes.empty());
  EXPECT_TRUE(request->args.ints.empty());
  EXPECT_EQ(request->origin, 0u);
  EXPECT_EQ(request->client_seq, 0u);
  EXPECT_EQ(request->submitted_at, 0);
  EXPECT_EQ(request->exec_duration, 0);
  EXPECT_EQ(request->deadline, 0);
  EXPECT_TRUE(request->access_set.empty());
}

TEST(BodyPool, BodyReleasedAfterItsPoolIsFreedCleanly) {
  // A queued delivery can hold a body past its sender's lifetime. The body
  // stays usable, and releasing it frees the pool's storage (the sanitizer
  // builds check this with leak detection on).
  auto pool = std::make_unique<BodyPool<PooledBody>>();
  std::shared_ptr<PooledBody> body = pool->acquire();
  std::shared_ptr<PooledBody> recycled = pool->acquire();
  recycled.reset();  // one body listed in the pool's storage
  pool.reset();
  body->items.assign(1000, 1);
  EXPECT_EQ(body->items.size(), 1000u);
  body.reset();
}

#ifdef OTPDB_ASAN
TEST(BodyPool, ListedBodiesAndBlocksArePoisoned) {
  BodyPool<PooledBody> pool;
  std::shared_ptr<PooledBody> body = pool.acquire();
  const PooledBody* raw = body.get();
  body.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(raw)) << "a released body is addressable";
  body = pool.acquire();
  EXPECT_FALSE(__asan_address_is_poisoned(body.get()));
  FreeBlocks blocks;
  void* block = blocks.allocate(64);
  blocks.deallocate(block, 64);
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_FALSE(__asan_address_is_poisoned(blocks.allocate(64)));
  blocks.deallocate(block, 64);
}
#endif

}  // namespace
}  // namespace otpdb
