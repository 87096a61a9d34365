// FIFO class queue with the reordering primitive of the OTP algorithm.
//
// One queue exists per conflict class (paper Figure 2) - or, under object keys
// (the lock-table engine), one per object that transactions wait on, drawn
// from a pool; the queue's id is then its pool slot. The queue upholds two
// structural invariants that the correctness-check module relies on:
//   * committable transactions always form a prefix of the queue (step CC10
//     inserts newly TO-delivered transactions right after that prefix), and
//   * only a transaction heading every queue it covers may be running or
//     executed (for single-class transactions: only the head).
//
// Position caching: every queued record carries a {class, ticket} entry (see
// TxnRecord::queue_pos) where ticket is an absolute position stamp; the
// queue's base_ counts head removals, so index = ticket - base_. This makes
// contains() and the CC10 self-lookup O(1) - the commit path of a multi-class
// transaction touches several queues, so the old O(n) pointer scans compound.
// The committable prefix length is tracked directly (committable_), so CC10
// needs no scan for the first pending transaction either.
//
// The queue's deque blocks recycle through its engine's FreeBlocks (shared by
// all of the engine's queues, util/recycling.h), so a queue that slides as
// transactions commit allocates nothing once the list is warm.
#pragma once

#include <deque>

#include "core/txn.h"
#include "util/assert.h"
#include "util/recycling.h"

namespace otpdb {

class ClassQueue {
 public:
  /// `id` is the queue's index in its engine's queue table: a conflict
  /// class, or a pooled slot under object keys. `blocks` recycles the
  /// queue's deque blocks and must outlive the queue.
  ClassQueue(ClassId id, FreeBlocks* blocks)
      : queue_(RecyclingAllocator<TxnRecord*>(blocks)), id_(id) {}

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  TxnRecord* head() { return queue_.empty() ? nullptr : queue_.front(); }
  const TxnRecord* head() const { return queue_.empty() ? nullptr : queue_.front(); }

  TxnRecord* at(std::size_t i) { return queue_[i]; }
  const TxnRecord* at(std::size_t i) const { return queue_[i]; }

  /// Serialization module step S1: append in tentative (Opt-deliver) order,
  /// marked pending. A record appended already committable behind an
  /// all-committable queue extends the prefix (test fixtures build queues so).
  void append(TxnRecord* txn);

  /// Removes the head (commit path). Pre: txn is the head.
  void remove_head(TxnRecord* txn);

  /// True if the transaction is currently queued. O(1) via the cached
  /// position; the element comparison rejects stale entries left behind by a
  /// since-destroyed same-id queue.
  bool contains(const TxnRecord* txn) const {
    const TxnRecord::QueuePos* pos = txn->find_queue_pos(id_);
    if (pos == nullptr) return false;
    const std::size_t index = index_of(*pos);
    return index < queue_.size() && queue_[index] == txn;
  }

  /// Correctness-check step CC10: move `txn` directly before the first
  /// pending transaction, i.e. after the committable prefix. Pre: txn has
  /// just been marked committable. Returns true if the transaction actually
  /// changed position (a tentative/definitive order mismatch among
  /// conflicting transactions).
  bool reorder_before_first_pending(TxnRecord* txn);

  /// Debug validation of the structural invariants (committable prefix; only
  /// the head running or executed; cached positions and prefix counter
  /// consistent with the actual layout).
  void check_invariants() const;

  auto begin() { return queue_.begin(); }
  auto end() { return queue_.end(); }
  auto begin() const { return queue_.begin(); }
  auto end() const { return queue_.end(); }

 private:
  std::size_t index_of(const TxnRecord::QueuePos& pos) const {
    return static_cast<std::size_t>(pos.ticket - base_);
  }

  std::deque<TxnRecord*, RecyclingAllocator<TxnRecord*>> queue_;
  ClassId id_ = 0;
  std::uint64_t base_ = 0;        ///< head removals so far (ticket of the head)
  std::size_t committable_ = 0;   ///< length of the committable prefix
};

}  // namespace otpdb
