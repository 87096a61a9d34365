// Allocation budget per committed transaction, pinned per engine.
//
// A fixed-seed 4-site cluster runs the rmw workload with a commit hook
// installed (so every execution logs its reads and every commit fills the
// record the hook sees). After a warm-up, in which the transaction table, the
// interner, the logs and the queues reach their high-water marks, the test
// counts global operator new calls over a steady window and divides by the
// transactions committed in it (counted once, at site 0). The count covers
// the whole stack - client, network, broadcast, consensus, engine and store -
// and is deterministic for a fixed seed.
//
// A second identical cluster in the same process must allocate exactly as
// the first: recycled storage belongs to one cluster's objects. The
// DenseDeque cases check the recycled storage under the ordering layer's
// tables: a sliding key window allocates nothing. So does a warm loop of
// snapshot queries, each at a newer snapshot than the last.
//
// This TU includes util/counting_new.h (the global counting operator new),
// so it must stay the binary's only TU that does.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/conservative_replica.h"
#include "core/cluster.h"
#include "core/lock_table_replica.h"
#include "core/query_engine.h"
#include "util/counting_new.h"
#include "util/dense_deque.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

/// Allocations and commits (at site 0) over the steady window.
struct Window {
  std::uint64_t allocs = 0;
  std::uint64_t commits = 0;
};

Window steady_window(const ReplicaFactory& factory) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 8;
  config.seed = 11;
  Cluster cluster = factory ? Cluster(config, factory) : Cluster(config);
  std::uint64_t hooked = 0;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    cluster.replica(s).set_commit_hook([&hooked](const CommitRecord& r) { hooked += r.index; });
  }
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 200;
  wl.duration = 4 * kSecond;
  WorkloadDriver driver(cluster, wl, 5);
  driver.start();
  cluster.run_for(2 * kSecond);  // warm-up
  const std::uint64_t allocs_before = heap_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t commits_before = cluster.replica(0).metrics().committed;
  cluster.run_for(2 * kSecond);  // the steady window
  Window window;
  window.allocs = heap_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  window.commits = cluster.replica(0).metrics().committed - commits_before;
  EXPECT_TRUE(cluster.quiesce());
  EXPECT_GT(hooked, 0u);
  EXPECT_GT(window.commits, 1000u) << "the window must hold a steady load";
  return window;
}

double allocs_per_commit(const ReplicaFactory& factory) {
  const Window window = steady_window(factory);
  const double per_commit =
      static_cast<double>(window.allocs) / static_cast<double>(window.commits);
  std::printf("allocations per committed transaction: %.2f\n", per_commit);
  return per_commit;
}

// Each bound is the value measured with GCC 12's libstdc++ (identical in
// RelWithDebInfo and in the ASan+UBSan Debug build) times this headroom,
// which absorbs other standard-library versions.
constexpr double kHeadroom = 1.25;

TEST(AllocBudget, OtpEngine) { EXPECT_LT(allocs_per_commit(nullptr), 5.13 * kHeadroom); }

TEST(AllocBudget, ConservativeEngine) {
  const double measured = allocs_per_commit([](const ReplicaDeps& d) {
    return std::make_unique<ConservativeReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                                 d.registry, d.site);
  });
  EXPECT_LT(measured, 5.15 * kHeadroom);
}

TEST(AllocBudget, LockTableEngine) {
  const double measured = allocs_per_commit([](const ReplicaDeps& d) {
    return std::make_unique<LockTableReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                              d.registry, d.site, rmw_access_extractor(d.catalog));
  });
  EXPECT_LT(measured, 6.38 * kHeadroom);
}

TEST(AllocBudget, IdenticalClustersAllocateIdentically) {
  // Recycled storage belongs to one cluster's objects and starts empty with
  // them, so a second identical cluster in the same process allocates
  // exactly as the first did. A pool shared across clusters would start the
  // second one warm.
  const Window first = steady_window(nullptr);
  const Window second = steady_window(nullptr);
  EXPECT_EQ(first.commits, second.commits);
  EXPECT_EQ(first.allocs, second.allocs);
}

TEST(AllocBudget, WarmQueryLoopAllocatesNothing) {
  // Each step TO-delivers and commits one index, then submits a query at it:
  // about five queries are live at a time, each pinning a newer snapshot.
  // The live snapshots are counted in recycled storage, so once warm the
  // loop allocates nothing.
  Simulator sim;
  VersionedStore store(16);
  const PartitionCatalog catalog(2, 8);
  ReplicaMetrics metrics;
  QueryEngine queries(sim, store, catalog, metrics);
  store.load(0, Value{std::int64_t{1}});
  std::uint64_t answered = 0;
  TOIndex index = 0;
  const auto step = [&] {
    ++index;
    queries.advance_to_index(index);
    queries.note_to_delivered(0, index);
    queries.note_committed(0, index);
    queries.finish_commit(index);
    queries.submit([](QueryContext& ctx) { (void)ctx.read(0); }, kMillisecond,
                   [&answered](const QueryReport&) { ++answered; });
    sim.run_until(sim.now() + 200 * kMicrosecond);
  };
  for (int i = 0; i < 1'000; ++i) step();  // warm-up
  const std::uint64_t before = heap_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100'000; ++i) step();
  EXPECT_EQ(heap_alloc_count.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_GT(answered, 100'000u);
  EXPECT_LE(metrics.queries_in_flight(), 6u);
}

TEST(AllocBudget, DenseDequeWindowSlidesWithoutAllocating) {
  // Keys enter at the back and leave at the front, as message slots and
  // consensus instances do. 32-byte slots, like OptAbcast's message slots.
  constexpr std::uint64_t kWindow = 200;
  DenseDeque<std::array<std::uint64_t, 4>> table;
  const auto slide = [&table](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t key = from; key < to; ++key) {
      table[key][0] = key;
      if (key >= kWindow) table.trim_front(key + 1 - kWindow);
    }
  };
  slide(0, 10'000);  // warm-up: the free list reaches the window's blocks
  const std::uint64_t before = heap_alloc_count.load(std::memory_order_relaxed);
  slide(10'000, 1'000'000);
  EXPECT_EQ(heap_alloc_count.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(table.size(), kWindow);
  EXPECT_EQ(table.first_key(), 1'000'000 - kWindow);
}

TEST(AllocBudget, DenseDequeReferencesSurviveGrowthAtBothEnds) {
  DenseDeque<std::uint64_t> table;
  std::vector<std::uint64_t*> live;
  for (std::uint64_t key = 1000; key < 1010; ++key) {
    table[key] = key;
    live.push_back(&table[key]);
  }
  // Grow the back and the front by many blocks, trim below the live slots
  // (recycling those blocks), then grow the front and back again.
  for (std::uint64_t key = 1010; key < 5000; ++key) table[key] = key;
  table[100] = 100;
  table.trim_front(900);
  for (std::uint64_t key = 5000; key < 9000; ++key) table[key] = key;
  EXPECT_TRUE(table.trimmed(899));
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i], &table[1000 + i]) << "slot " << 1000 + i << " moved";
    EXPECT_EQ(*live[i], 1000 + i);
  }
}

}  // namespace
}  // namespace otpdb
