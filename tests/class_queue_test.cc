// Unit tests for the class queue and its CC10 reordering primitive.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/class_queue.h"

namespace otpdb {
namespace {

std::unique_ptr<TxnRecord> make_txn(std::uint64_t seq, DeliveryState deliv) {
  auto t = std::make_unique<TxnRecord>();
  t->id = MsgId{0, seq};
  t->deliv = deliv;
  return t;
}

TEST(ClassQueue, AppendAndHead) {
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.head(), nullptr);
  auto t1 = make_txn(1, DeliveryState::pending);
  q.append(t1.get());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.head(), t1.get());
  EXPECT_TRUE(q.contains(t1.get()));
}

TEST(ClassQueue, RemoveHead) {
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::pending);
  auto t2 = make_txn(2, DeliveryState::pending);
  q.append(t1.get());
  q.append(t2.get());
  q.remove_head(t1.get());
  EXPECT_EQ(q.head(), t2.get());
  EXPECT_FALSE(q.contains(t1.get()));
}

TEST(ClassQueue, RemoveNonHeadDies) {
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::pending);
  auto t2 = make_txn(2, DeliveryState::pending);
  q.append(t1.get());
  q.append(t2.get());
  EXPECT_DEATH(q.remove_head(t2.get()), "");
}

TEST(ClassQueue, ReorderToFrontWhenAllPending) {
  // Paper CC10 with an all-pending queue: the newly committable transaction
  // moves to the head.
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::pending);
  auto t2 = make_txn(2, DeliveryState::pending);
  auto t3 = make_txn(3, DeliveryState::pending);
  q.append(t1.get());
  q.append(t2.get());
  q.append(t3.get());
  t3->deliv = DeliveryState::committable;
  EXPECT_TRUE(q.reorder_before_first_pending(t3.get()));
  EXPECT_EQ(q.head(), t3.get());
  EXPECT_EQ(q.at(1), t1.get());
  EXPECT_EQ(q.at(2), t2.get());
  q.check_invariants();
}

TEST(ClassQueue, ReorderAfterCommittablePrefix) {
  // Paper example 1: CQ = T1[a,c], T2[a,p], T3[a,p]; T3 TO-delivered next
  // slots in between T1 and T2.
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::committable);
  auto t2 = make_txn(2, DeliveryState::pending);
  auto t3 = make_txn(3, DeliveryState::pending);
  q.append(t1.get());
  q.append(t2.get());
  q.append(t3.get());
  t3->deliv = DeliveryState::committable;
  EXPECT_TRUE(q.reorder_before_first_pending(t3.get()));
  EXPECT_EQ(q.at(0), t1.get());
  EXPECT_EQ(q.at(1), t3.get());
  EXPECT_EQ(q.at(2), t2.get());
  q.check_invariants();
}

TEST(ClassQueue, ReorderNoopWhenAlreadyPlaced) {
  // A transaction TO-delivered in tentative order does not move.
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::committable);
  auto t2 = make_txn(2, DeliveryState::pending);
  q.append(t1.get());
  q.append(t2.get());
  t2->deliv = DeliveryState::committable;
  EXPECT_FALSE(q.reorder_before_first_pending(t2.get()));
  EXPECT_EQ(q.at(0), t1.get());
  EXPECT_EQ(q.at(1), t2.get());
}

TEST(ClassQueue, ReorderHeadIsNoop) {
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::pending);
  auto t2 = make_txn(2, DeliveryState::pending);
  q.append(t1.get());
  q.append(t2.get());
  t1->deliv = DeliveryState::committable;
  EXPECT_FALSE(q.reorder_before_first_pending(t1.get()));
  EXPECT_EQ(q.head(), t1.get());
}

TEST(ClassQueue, ReorderMissingTxnDies) {
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::committable);
  EXPECT_DEATH(q.reorder_before_first_pending(t1.get()), "missing");
}

TEST(ClassQueue, InvariantViolationCommittableSuffixDies) {
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::pending);
  auto t2 = make_txn(2, DeliveryState::committable);
  q.append(t1.get());
  q.append(t2.get());
  EXPECT_DEATH(q.check_invariants(), "prefix");
}

TEST(ClassQueue, InvariantViolationNonHeadRunningDies) {
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  auto t1 = make_txn(1, DeliveryState::committable);
  auto t2 = make_txn(2, DeliveryState::pending);
  t2->running = true;
  q.append(t1.get());
  q.append(t2.get());
  EXPECT_DEATH(q.check_invariants(), "head");
}

TEST(ClassQueue, CachedPositionsSurviveChurn) {
  // The O(1) contains()/reorder lookups rely on the cached {class, ticket}
  // entries staying exact through appends, reorders (which shift the pending
  // prefix) and head removals (which advance the base). check_invariants()
  // cross-checks every cached position against the actual layout.
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  std::vector<std::unique_ptr<TxnRecord>> txns;
  for (std::uint64_t i = 0; i < 6; ++i) {
    txns.push_back(make_txn(i, DeliveryState::pending));
    q.append(txns.back().get());
    q.check_invariants();
  }
  // TO-deliver out of tentative order: 3, 5, 0 - each reorder shifts the
  // displaced pending run and must rewrite its cached tickets.
  for (std::uint64_t t : {3u, 5u, 0u}) {
    txns[t]->deliv = DeliveryState::committable;
    q.reorder_before_first_pending(txns[t].get());
    q.check_invariants();
  }
  EXPECT_EQ(q.at(0), txns[3].get());
  EXPECT_EQ(q.at(1), txns[5].get());
  EXPECT_EQ(q.at(2), txns[0].get());
  for (const auto& t : txns) EXPECT_TRUE(q.contains(t.get()));
  // Drain the committable prefix; removal must clear the removed record's
  // cache entry and leave everyone else's exact.
  for (std::uint64_t t : {3u, 5u, 0u}) {
    q.remove_head(txns[t].get());
    q.check_invariants();
    EXPECT_FALSE(q.contains(txns[t].get()));
  }
  EXPECT_EQ(q.head(), txns[1].get());
  EXPECT_EQ(q.size(), 3u);
}

TEST(ClassQueue, SameRecordInTwoQueues) {
  // A multi-class record holds one cached position per covered queue; the
  // queues must not clobber each other's entries.
  FreeBlocks blocks;
  ClassQueue qa(0, &blocks), qb(1, &blocks);
  auto t = make_txn(1, DeliveryState::pending);
  auto blocker = make_txn(2, DeliveryState::pending);
  qa.append(blocker.get());
  qa.append(t.get());
  qb.append(t.get());
  EXPECT_TRUE(qa.contains(t.get()));
  EXPECT_TRUE(qb.contains(t.get()));
  EXPECT_EQ(t->queue_pos.size(), 2u);
  t->deliv = DeliveryState::committable;
  EXPECT_TRUE(qa.reorder_before_first_pending(t.get()));   // moves past blocker
  EXPECT_FALSE(qb.reorder_before_first_pending(t.get()));  // already at the front
  qa.check_invariants();
  qb.check_invariants();
  qa.remove_head(t.get());
  EXPECT_FALSE(qa.contains(t.get()));
  EXPECT_TRUE(qb.contains(t.get()));
  qb.remove_head(t.get());
  EXPECT_TRUE(t->queue_pos.empty());
}

TEST(ClassQueue, IterationOrder) {
  FreeBlocks blocks;
  ClassQueue q(0, &blocks);
  std::vector<std::unique_ptr<TxnRecord>> txns;
  for (std::uint64_t i = 0; i < 5; ++i) {
    txns.push_back(make_txn(i, DeliveryState::pending));
    q.append(txns.back().get());
  }
  std::uint64_t expect = 0;
  for (const TxnRecord* t : q) EXPECT_EQ(t->id.seq, expect++);
}

}  // namespace
}  // namespace otpdb
