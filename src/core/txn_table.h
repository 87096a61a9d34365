// Dense per-site transaction table shared by the replica engines.
//
// Owns the MsgId -> TxnId interner and the TxnId-indexed record slots, and
// holds the acquire/retire protocol in one place: a transaction is interned
// exactly once at Opt-deliver time, every later touch is an array access,
// and a retired id's slot (record object and its vector capacity) is
// recycled in place by the next transaction interned to the same id.
#pragma once

#include <memory>
#include <vector>

#include "core/txn.h"
#include "db/txn_interner.h"
#include "util/assert.h"

namespace otpdb {

class TxnTable {
 public:
  /// Interns `id` (CHECK-fails on duplicate Opt-delivery) and returns a
  /// freshly reset record bound to the dense id.
  TxnRecord* acquire(const MsgId& id, std::shared_ptr<const TxnRequest> request) {
    const TxnId tid = interner_.intern(id);
    if (tid >= records_.size()) records_.resize(tid + 1);
    if (!records_[tid]) {
      records_[tid] = std::make_unique<TxnRecord>();
      // Room up front for the queue positions of a transaction covering up
      // to kQueueKeysReserved queues: the record, recycled from then on,
      // takes a later multi-class transaction without regrowing.
      records_[tid]->queue_pos.reserve(kQueueKeysReserved);
    }
    TxnRecord* txn = records_[tid].get();
    txn->reset(id, tid, std::move(request));
    ++live_;
    return txn;
  }

  /// The live record bound to `id`, or nullptr when absent. Only the durable
  /// catch-up path may observe an absent binding: a commit at or below the
  /// restarting site's durable floor is TO-delivered as a body-less
  /// tombstone, so it was never Opt-delivered (and never interned).
  TxnRecord* lookup_if_present(const MsgId& id) {
    const TxnId tid = interner_.find(id);
    return tid == kInvalidTxnId ? nullptr : records_[tid].get();
  }

  /// Releases a finished transaction's dense id. The record's memory stays in
  /// place for recycling; the payload reference is dropped now.
  void retire(TxnRecord* txn) {
    interner_.release(txn->tid);
    txn->request.reset();
    --live_;
  }

  /// Live (acquired, not retired) transaction count.
  std::size_t live() const { return live_; }

  /// Introspection (tests): the underlying interner.
  const TxnIdInterner& interner() const { return interner_; }

  /// Applies `fn` to every live record (crash recovery walks this to cancel
  /// scheduled completions before clear()).
  template <typename Fn>
  void for_each_live(Fn&& fn) {
    for (auto& record : records_) {
      if (record && record->request) fn(record.get());
    }
  }

  /// Drops all records and bindings (crash recovery).
  void clear() {
    records_.clear();
    interner_.clear();
    live_ = 0;
  }

 private:
  /// Queue positions a fresh record has room for (TxnRecord::queue_pos).
  static constexpr std::size_t kQueueKeysReserved = 4;

  TxnIdInterner interner_;
  std::vector<std::unique_ptr<TxnRecord>> records_;  // indexed by TxnId
  std::size_t live_ = 0;
};

}  // namespace otpdb
