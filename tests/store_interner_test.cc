// Tests for the dense-identity hot path introduced in PR 1: the MsgId ->
// TxnId interner, the flat provisional write-set semantics, and a randomized
// commit-time GC property check against a naive reference store.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "db/txn_interner.h"
#include "db/versioned_store.h"
#include "util/rng.h"

namespace otpdb {
namespace {

// --- TxnIdInterner -----------------------------------------------------------

TEST(TxnIdInterner, AssignsDenseIdsFromZero) {
  TxnIdInterner interner;
  EXPECT_EQ(interner.intern(MsgId{0, 1}), 0u);
  EXPECT_EQ(interner.intern(MsgId{1, 1}), 1u);
  EXPECT_EQ(interner.intern(MsgId{0, 2}), 2u);
  EXPECT_EQ(interner.live(), 3u);
  EXPECT_EQ(interner.capacity(), 3u);
}

TEST(TxnIdInterner, FindAndLookup) {
  TxnIdInterner interner;
  const TxnId tid = interner.intern(MsgId{3, 7});
  EXPECT_EQ(interner.find(MsgId{3, 7}), tid);
  EXPECT_EQ(interner.lookup(MsgId{3, 7}), tid);
  EXPECT_EQ(interner.find(MsgId{3, 8}), kInvalidTxnId);
  EXPECT_EQ(interner.resolve(tid), (MsgId{3, 7}));
}

TEST(TxnIdInterner, ReleaseRecyclesIds) {
  TxnIdInterner interner;
  const TxnId a = interner.intern(MsgId{0, 1});
  const TxnId b = interner.intern(MsgId{0, 2});
  interner.release(a);
  EXPECT_EQ(interner.find(MsgId{0, 1}), kInvalidTxnId) << "binding retired";
  EXPECT_EQ(interner.live(), 1u);
  // The freed slot is reused; the id space stays dense.
  const TxnId c = interner.intern(MsgId{0, 3});
  EXPECT_EQ(c, a);
  EXPECT_EQ(interner.capacity(), 2u);
  EXPECT_EQ(interner.find(MsgId{0, 2}), b);
  EXPECT_EQ(interner.resolve(c), (MsgId{0, 3}));
}

TEST(TxnIdInternerDeathTest, DuplicateInternDies) {
  TxnIdInterner interner;
  interner.intern(MsgId{0, 1});
  EXPECT_DEATH(interner.intern(MsgId{0, 1}), "interned twice");
}

TEST(TxnIdInternerDeathTest, DoubleReleaseDies) {
  TxnIdInterner interner;
  const TxnId tid = interner.intern(MsgId{0, 1});
  interner.release(tid);
  EXPECT_DEATH(interner.release(tid), "released twice");
}

TEST(TxnIdInterner, ClearDropsEverything) {
  TxnIdInterner interner;
  interner.intern(MsgId{0, 1});
  interner.intern(MsgId{0, 2});
  interner.clear();
  EXPECT_EQ(interner.live(), 0u);
  EXPECT_EQ(interner.capacity(), 0u);
  EXPECT_EQ(interner.find(MsgId{0, 1}), kInvalidTxnId);
  EXPECT_EQ(interner.intern(MsgId{0, 1}), 0u) << "dense again after clear";
}

TEST(TxnIdInterner, RandomizedAgainstReference) {
  // Interleaved interns and releases over dense (broadcast) and sparse
  // (Lamport-stamped) MsgIds, with a live set that grows past several table
  // doublings and then shrinks: every binding must stay findable through the
  // backward-shift erases, and every released one must vanish.
  Rng rng(7);
  TxnIdInterner interner;
  std::map<MsgId, TxnId> reference;
  std::vector<MsgId> live;
  std::uint64_t next_seq = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool grow_phase = step < 12000;
    if (live.empty() || rng.bernoulli(grow_phase ? 0.6 : 0.4)) {
      const auto sender = static_cast<SiteId>(rng.uniform_int(0, 4));
      const std::uint64_t seq = rng.bernoulli(0.5) ? next_seq : (next_seq << 20) + 977;
      ++next_seq;
      const MsgId id{sender, seq};
      const TxnId tid = interner.intern(id);
      EXPECT_EQ(interner.resolve(tid), id);
      reference[id] = tid;
      live.push_back(id);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const MsgId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      interner.release(reference.at(id));
      reference.erase(id);
      EXPECT_EQ(interner.find(id), kInvalidTxnId);
    }
    if (step % 997 == 0) {
      for (const auto& [id, tid] : reference) ASSERT_EQ(interner.find(id), tid);
    }
  }
  EXPECT_EQ(interner.live(), reference.size());
  for (const auto& [id, tid] : reference) EXPECT_EQ(interner.lookup(id), tid);
}

// --- Flat write-set semantics ------------------------------------------------

TEST(FlatWriteSet, ReadYourWrites) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{5}});
  TxnIdInterner interner;
  const TxnId t = interner.intern(MsgId{0, 1});
  store.write(t, 1, Value{std::int64_t{6}});
  store.write(t, 2, Value{std::int64_t{7}});
  EXPECT_EQ(as_int(*store.read_for_txn(t, 1)), 6);
  EXPECT_EQ(as_int(*store.read_for_txn(t, 2)), 7);
  EXPECT_EQ(as_int(*store.read_latest(1)), 5) << "other readers see committed state";
  EXPECT_FALSE(store.read_latest(2).has_value());
}

TEST(FlatWriteSet, AbortUndoLeavesSlotCleanForReuse) {
  VersionedStore store;
  TxnIdInterner interner;
  const TxnId t1 = interner.intern(MsgId{0, 1});
  store.write(t1, 1, Value{std::int64_t{10}});
  store.abort(t1);
  interner.release(t1);

  // The recycled id must start with an empty write-set: no leakage of the
  // aborted transaction's state into its successor.
  const TxnId t2 = interner.intern(MsgId{0, 2});
  ASSERT_EQ(t2, t1);
  EXPECT_TRUE(store.provisional_writes(t2).empty());
  EXPECT_FALSE(store.read_for_txn(t2, 1).has_value());
  store.commit(t2, 1);  // commit with no writes: no-op
  EXPECT_EQ(store.total_versions(), 0u);
}

TEST(FlatWriteSet, CommitClearsSlotForReuse) {
  VersionedStore store;
  TxnIdInterner interner;
  const TxnId t1 = interner.intern(MsgId{0, 1});
  store.write(t1, 1, Value{std::int64_t{10}});
  store.commit(t1, 1);
  interner.release(t1);

  const TxnId t2 = interner.intern(MsgId{1, 9});
  ASSERT_EQ(t2, t1) << "TxnId reused after GC";
  EXPECT_TRUE(store.provisional_writes(t2).empty());
  store.write(t2, 1, Value{std::int64_t{20}});
  store.commit(t2, 2);
  EXPECT_EQ(as_int(*store.read_latest(1)), 20);
  EXPECT_EQ(as_int(*store.read_snapshot(1, 1)), 10);
}

TEST(FlatWriteSet, CommitIndexMonotonicityAcrossReusedIds) {
  VersionedStore store;
  // The same dense id commits repeatedly (the steady-state pattern); indices
  // must still ascend per object.
  for (TOIndex i = 1; i <= 5; ++i) {
    store.write(0, 7, Value{static_cast<std::int64_t>(i)});
    store.commit(0, i);
  }
  EXPECT_EQ(store.total_versions(), 5u);
  store.write(0, 7, Value{std::int64_t{99}});
  EXPECT_DEATH(store.commit(0, 5), "ascend") << "stale index must be rejected";
}

TEST(FlatWriteSet, ProvisionalWritesSortedByObject) {
  VersionedStore store;
  const TxnId t = 0;
  store.write(t, 9, Value{std::int64_t{1}});
  store.write(t, 3, Value{std::int64_t{2}});
  store.write(t, 6, Value{std::int64_t{3}});
  store.write(t, 3, Value{std::int64_t{4}});  // overwrite keeps last value
  const auto writes = store.provisional_writes(t);
  ASSERT_EQ(writes.size(), 3u);
  EXPECT_EQ(writes[0].first, 3u);
  EXPECT_EQ(as_int(writes[0].second), 4);
  EXPECT_EQ(writes[1].first, 6u);
  EXPECT_EQ(writes[2].first, 9u);
}

TEST(FlatWriteSet, LargeWriteSetStillDeduplicates) {
  // Exceed any small-set fast path: every object written twice, last wins.
  VersionedStore store;
  const TxnId t = 0;
  for (ObjectId obj = 0; obj < 50; ++obj) store.write(t, obj, Value{std::int64_t{1}});
  for (ObjectId obj = 0; obj < 50; ++obj) {
    store.write(t, obj, Value{static_cast<std::int64_t>(obj * 2)});
  }
  const auto writes = store.provisional_writes(t);
  ASSERT_EQ(writes.size(), 50u);
  for (ObjectId obj = 0; obj < 50; ++obj) {
    EXPECT_EQ(writes[obj].first, obj);
    EXPECT_EQ(as_int(writes[obj].second), static_cast<std::int64_t>(obj * 2));
  }
}

TEST(VersionedStore, SparseObjectIdsUseHashFallback) {
  // Ids beyond the dense window must behave identically (hash-map fallback).
  VersionedStore store(/*dense_objects=*/16);
  const ObjectId sparse = 1'000'000'000;
  store.load(sparse, Value{std::int64_t{1}});
  store.write(0, sparse, Value{std::int64_t{2}});
  store.write(0, 3, Value{std::int64_t{30}});  // dense id in the same txn
  store.commit(0, 1);
  EXPECT_EQ(as_int(*store.read_latest(sparse)), 2);
  EXPECT_EQ(as_int(*store.read_latest(3)), 30);
  EXPECT_EQ(store.object_count(), 2u);
  EXPECT_EQ(store.total_versions(), 3u);
  store.write(0, sparse, Value{std::int64_t{3}});
  store.commit(0, 2, /*horizon=*/2);
  EXPECT_EQ(store.total_versions(), 3u) << "sparse chain pruned too (initial version)";
  EXPECT_FALSE(store.read_snapshot(sparse, 0).has_value());
  EXPECT_EQ(as_int(*store.read_snapshot(sparse, 1)), 2);
}

// --- Randomized commit-time GC property test --------------------------------

// Naive reference: full version history per object, never pruned.
struct ReferenceStore {
  std::map<ObjectId, std::vector<std::pair<TOIndex, std::int64_t>>> chains;

  void commit(ObjectId obj, TOIndex index, std::int64_t value) {
    chains[obj].emplace_back(index, value);
  }

  std::optional<std::int64_t> read_snapshot(ObjectId obj, TOIndex snapshot) const {
    auto it = chains.find(obj);
    if (it == chains.end()) return std::nullopt;
    std::optional<std::int64_t> out;
    for (const auto& [index, value] : it->second) {
      if (index <= snapshot) out = value;  // chains are ascending
    }
    return out;
  }

  std::optional<std::int64_t> read_latest(ObjectId obj) const {
    auto it = chains.find(obj);
    if (it == chains.end() || it->second.empty()) return std::nullopt;
    return it->second.back().second;
  }
};

TEST(CommitPruneProperty, RandomizedAgainstReference) {
  // Mixed dense/sparse id space to exercise both chain tables.
  const std::vector<ObjectId> objects = {0,  1,  2,  3,  7,  15, 16, 63,
                                         100'000, 100'001, 5'000'000'123};
  VersionedStore store(/*dense_objects=*/64);
  ReferenceStore reference;
  Rng rng(20260729);

  TOIndex next_index = 1;
  TOIndex pruned_to = 0;  // highest horizon passed to commit()
  for (int step = 0; step < 400; ++step) {
    // Random multi-object transaction at the next index.
    const TxnId t = static_cast<TxnId>(rng.uniform_int(0, 3));
    const std::size_t writes = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t w = 0; w < writes; ++w) {
      const ObjectId obj = objects[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(objects.size()) - 1))];
      const auto value = rng.uniform_int(0, 1'000'000);
      store.write(t, obj, Value{value});
      reference.commit(obj, next_index, value);  // dedup-free: one write per obj
    }
    // The reference recorded every write; collapse duplicates like the store
    // does (last write per object wins, one version per object per commit).
    for (ObjectId obj : objects) {
      auto& chain = reference.chains[obj];
      while (chain.size() >= 2 && chain[chain.size() - 2].first == next_index &&
             chain.back().first == next_index) {
        chain.erase(chain.end() - 2);
      }
    }
    // The horizon rises now and then, up to one past the commit's own index
    // (keep only the newest version, as the lazy engine does).
    if (rng.uniform_int(0, 9) == 0) {
      pruned_to = static_cast<TOIndex>(
          rng.uniform_int(static_cast<std::int64_t>(pruned_to),
                          static_cast<std::int64_t>(next_index + 1)));
    }
    store.commit(t, next_index, pruned_to);
    ++next_index;

    // Every snapshot at or above (pruned_to - 1) must still read exactly what
    // the never-pruned reference reads; the latest value must always agree.
    for (int probe = 0; probe < 8; ++probe) {
      const ObjectId obj = objects[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(objects.size()) - 1))];
      const TOIndex lo = pruned_to == 0 ? 0 : pruned_to - 1;
      const auto snapshot = static_cast<TOIndex>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(next_index)));
      const auto got = store.read_snapshot(obj, snapshot);
      const auto want = reference.read_snapshot(obj, snapshot);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "obj " << obj << " snapshot " << snapshot << " pruned_to " << pruned_to;
      if (want) ASSERT_EQ(as_int(*got), *want);
      const auto latest = store.read_latest(obj);
      const auto want_latest = reference.read_latest(obj);
      ASSERT_EQ(latest.has_value(), want_latest.has_value());
      if (want_latest) ASSERT_EQ(as_int(*latest), *want_latest);
    }
  }
}

}  // namespace
}  // namespace otpdb
