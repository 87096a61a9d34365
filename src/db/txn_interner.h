// Per-site interning of global transaction identities (MsgId) into dense
// TxnIds.
//
// The OTP hot path touches a transaction's bookkeeping many times between
// Opt-delivery and commit: the transaction table, the provisional write-set,
// the class/lock queues, the commit record. Keying all of that on the 16-byte
// MsgId struct costs a hash + probe per touch. Instead, each site interns the
// MsgId exactly once, at Opt-deliver time, and every structure downstream is a
// plain array indexed by the resulting TxnId. Retired ids (committed/aborted
// and fully processed) return to a free list, so the id space stays dense for
// the lifetime of a run and per-slot storage (write-set capacity, transaction
// records) is recycled allocation-free.
//
// The MsgId -> TxnId index is an open-addressing table of TxnIds with linear
// probing and backward-shift erase: each occupied slot holds a bound TxnId t,
// whose MsgId is ids_[t]. It grows with the peak live binding count and
// never shrinks, so steady-state intern/release allocate nothing. It is only
// probed, never iterated, so its layout cannot leak into any output. MsgIds
// need not be dense per sender: the lazy engine interns synthetic
// {origin, Lamport ts} ids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/assert.h"
#include "util/types.h"

namespace otpdb {

class TxnIdInterner {
 public:
  /// Interns `id`, assigning the lowest free dense TxnId. The id must not be
  /// currently interned (duplicate Opt-delivery is a protocol violation).
  TxnId intern(const MsgId& id) {
    OTPDB_CHECK_MSG(find(id) == kInvalidTxnId, "MsgId interned twice");
    if (2 * (live_ + 1) > slots_.size()) grow();
    TxnId tid;
    if (!free_.empty()) {
      tid = free_.back();
      free_.pop_back();
      ids_[tid] = id;
    } else {
      tid = static_cast<TxnId>(ids_.size());
      ids_.push_back(id);
    }
    place(tid);
    ++live_;
    return tid;
  }

  /// The dense id bound to `id`, or kInvalidTxnId when not interned.
  TxnId find(const MsgId& id) const {
    const std::size_t pos = position(id);
    return pos == kNone ? kInvalidTxnId : slots_[pos];
  }

  /// The dense id bound to `id`; the binding must exist.
  TxnId lookup(const MsgId& id) const {
    const TxnId tid = find(id);
    OTPDB_CHECK_MSG(tid != kInvalidTxnId, "MsgId not interned");
    return tid;
  }

  /// The MsgId bound to a live dense id.
  const MsgId& resolve(TxnId tid) const {
    OTPDB_ASSERT(tid < ids_.size());
    return ids_[tid];
  }

  /// Retires a live binding; `tid` becomes reusable by a later intern().
  void release(TxnId tid) {
    OTPDB_CHECK(tid < ids_.size());
    std::size_t hole = position(ids_[tid]);
    OTPDB_CHECK_MSG(hole != kNone && slots_[hole] == tid, "TxnId released twice");
    // Backward-shift erase: pull every later entry of the probe run whose
    // home is not inside (hole, j] into the hole, so no probe run breaks.
    for (std::size_t j = (hole + 1) & mask(); slots_[j] != kInvalidTxnId; j = (j + 1) & mask()) {
      if (((j - home(ids_[slots_[j]])) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kInvalidTxnId;
    free_.push_back(tid);
    --live_;
  }

  /// Currently live bindings.
  std::size_t live() const { return live_; }

  /// High-water slot count (live + free). Downstream dense arrays sized to
  /// this bound cover every id intern() can currently return.
  std::size_t capacity() const { return ids_.size(); }

  /// Drops all bindings and free slots (crash recovery).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kInvalidTxnId);
    ids_.clear();
    free_.clear();
    live_ = 0;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t mask() const { return slots_.size() - 1; }

  /// The table position binding `id`, or kNone.
  std::size_t position(const MsgId& id) const {
    if (slots_.empty()) return kNone;
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      const TxnId tid = slots_[i];
      if (tid == kInvalidTxnId) return kNone;
      if (ids_[tid] == id) return i;
    }
  }

  /// First probe position of `id` (Fibonacci hashing over both fields).
  std::size_t home(const MsgId& id) const {
    const std::uint64_t key = id.seq ^ (static_cast<std::uint64_t>(id.sender) << 48);
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Stores `tid` (whose MsgId is ids_[tid]) in the first free slot of its run.
  void place(TxnId tid) {
    std::size_t i = home(ids_[tid]);
    while (slots_[i] != kInvalidTxnId) i = (i + 1) & mask();
    slots_[i] = tid;
  }

  /// Doubles the table (at least 16 slots) and re-places the live bindings.
  void grow() {
    std::vector<TxnId> old(std::max<std::size_t>(16, 2 * slots_.size()), kInvalidTxnId);
    old.swap(slots_);
    shift_ = 64;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (const TxnId tid : old) {
      if (tid != kInvalidTxnId) place(tid);
    }
  }

  std::vector<TxnId> slots_;  // open-addressing index; kInvalidTxnId = empty
  unsigned shift_ = 64;       // 64 - log2(slots_.size())
  std::vector<MsgId> ids_;    // TxnId -> global identity
  std::vector<TxnId> free_;   // retired ids, LIFO for locality
  std::size_t live_ = 0;
};

}  // namespace otpdb
