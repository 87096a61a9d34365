// Transaction records and state variables of the OTP algorithm (Section 3.3).
//
// Each transaction carries two state variables:
//   execution state: active (not finished executing) or executed
//   delivery state:  pending (after Opt-deliver) or committable (after
//                    TO-deliver)
// A transaction commits only when it is both executed and committable and sits
// at the head of *every* queue it covers. The paper's base model (Section 2.3)
// pins each update to exactly one conflict class; the fine-granularity
// generalization (Section 6) lets an update span a sorted *set* of classes -
// it enqueues into all covered queues in tentative order and runs only while
// heading all of them. Under object keys the queues belong to the objects of
// a pre-declared access set instead (QueueKeys).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "db/procedures.h"
#include "net/message.h"
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/types.h"

namespace otpdb {

/// What a transaction queues on: a covered conflict class (the paper's model)
/// or, under object keys (the lock-table engine), a declared object.
using QueueKey = std::uint64_t;

/// A transaction's queue keys, widened to QueueKey: a view over its covered
/// classes or over its declared access set.
class QueueKeys {
 public:
  explicit QueueKeys(std::span<const ClassId> classes)
      : classes_(classes.data()), size_(classes.size()) {}
  explicit QueueKeys(std::span<const ObjectId> objects)
      : objects_(objects.data()), size_(objects.size()) {}

  std::size_t size() const { return size_; }
  QueueKey operator[](std::size_t i) const {
    return objects_ != nullptr ? objects_[i] : classes_[i];
  }
  QueueKey front() const { return (*this)[0]; }

  struct iterator {
    using iterator_category = std::forward_iterator_tag;
    using value_type = QueueKey;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = QueueKey;
    const QueueKeys* keys = nullptr;
    std::size_t i = 0;
    QueueKey operator*() const { return (*keys)[i]; }
    iterator& operator++() { ++i; return *this; }
    bool operator==(const iterator& other) const { return i == other.i; }
  };
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size_}; }

 private:
  const ClassId* classes_ = nullptr;
  const ObjectId* objects_ = nullptr;
  std::size_t size_ = 0;
};

/// Normalizes a submitted class set in place: ascending, duplicate-free.
/// CHECK-fails on an empty set. Every engine's submit_update_multi runs this
/// before routing or broadcasting, so all sites see one canonical set.
inline void normalize_class_set(std::vector<ClassId>& classes) {
  OTPDB_CHECK_MSG(!classes.empty(), "a transaction must cover at least one class");
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
}

enum class ExecState : std::uint8_t { active, executed };
enum class DeliveryState : std::uint8_t { pending, committable };

inline const char* to_string(ExecState s) { return s == ExecState::active ? "a" : "e"; }
inline const char* to_string(DeliveryState s) {
  return s == DeliveryState::pending ? "p" : "c";
}

/// The TO-broadcast payload: a stored-procedure invocation request.
struct TxnRequest final : Payload {
  ProcId proc = 0;
  ClassId klass = 0;  ///< primary conflict class (== classes[0] when multi-class)
  /// Full covered class set, ascending and duplicate-free. Empty means the
  /// single class `klass` (the common case; avoids a heap allocation per
  /// single-class request). Multi-class engines enqueue into every covered
  /// class queue; use class_span() to iterate uniformly.
  std::vector<ClassId> classes;
  TxnArgs args;
  SiteId origin = 0;           ///< site that accepted the client request
  std::uint64_t client_seq = 0;  ///< origin-local request number
  SimTime submitted_at = 0;    ///< origin submit time (one simulated clock)
  SimTime exec_duration = 0;   ///< modelled execution cost of the procedure
  /// Absolute sim-time deadline; 0 means none. Past it the transaction is a
  /// drop candidate at every stage (pre-broadcast, opt-deliver, queue head).
  /// The queue-head decision is made against the virtual service clock of
  /// its queue keys (core/service_clock.h), a pure function of the
  /// definitive order, so all sites agree on every drop.
  SimTime deadline = 0;
  /// Pre-declared object access set: under object keys (the lock-table
  /// engine, paper Section 6 / [13]) the transaction queues on each of these
  /// objects, and its procedure may touch only them. Empty under the
  /// class-queue model.
  std::vector<ObjectId> access_set;

  /// Back to a blank request for its sender's pool (OtpReplica sends every
  /// request from one); the vectors keep their capacity.
  void clear() {
    proc = 0;
    klass = 0;
    classes.clear();
    args.ints.clear();
    origin = 0;
    client_seq = 0;
    submitted_at = 0;
    exec_duration = 0;
    deadline = 0;
    access_set.clear();
  }

  /// The covered classes as a span (always non-empty, ascending).
  std::span<const ClassId> class_span() const {
    return classes.empty() ? std::span<const ClassId>(&klass, 1)
                           : std::span<const ClassId>(classes);
  }
  bool multi_class() const { return classes.size() > 1; }
};

/// Per-site bookkeeping for one update transaction. Records live in a dense
/// per-replica table indexed by TxnId; a retired slot (commit/abort fully
/// processed) is recycled in place by the next transaction interned to the
/// same id, so steady state allocates nothing per transaction.
struct TxnRecord {
  MsgId id;
  TxnId tid = kInvalidTxnId;  ///< dense site-local identity (interned MsgId)
  std::shared_ptr<const TxnRequest> request;

  ExecState exec = ExecState::active;
  DeliveryState deliv = DeliveryState::pending;
  TOIndex to_index = 0;  ///< definitive index; 0 until TO-delivered

  bool running = false;       ///< execution submitted and not yet finished/aborted
  bool expired = false;       ///< deadline-dropped: retire instead of execute/commit
  EventId completion{};       ///< cancellable execution-completion event
  std::uint32_t attempts = 0; ///< times (re)submitted for execution

  SimTime opt_delivered_at = 0;
  SimTime to_delivered_at = 0;
  SimTime executed_at = 0;  ///< completion time of the last (successful) execution
  SimTime committed_at = 0;

  /// Reads of the most recent execution (history checking), logged only
  /// while a commit hook is installed. Cleared before every execution, so a
  /// re-execution after a CC8 undo logs only its own reads. The write set is
  /// the store's provisional write set (VersionedStore::provisional_writes).
  ReadLog last_reads;

  /// Cached queue membership: one entry per ClassQueue currently holding
  /// this record (at most one queue per queue id - a conflict class, or a
  /// pooled object-queue slot under object keys). `ticket` is an
  /// absolute position stamp (queue index = ticket - queue base; the base
  /// advances on every head removal, so pops never touch cached positions).
  /// Maintained exclusively by ClassQueue - it turns contains() and the CC10
  /// self-lookup into O(1) instead of pointer scans over the queue, which
  /// matters once multi-class commits touch several queues - and
  /// cross-checked by check_invariants(). A queue destroyed wholesale leaves
  /// stale entries behind; the next append to a same-id queue reclaims
  /// them.
  struct QueuePos {
    ClassId queue = 0;  ///< the holding queue's id (ClassQueue's table index)
    std::uint64_t ticket = 0;
  };
  std::vector<QueuePos> queue_pos;

  const QueuePos* find_queue_pos(ClassId queue) const {
    for (const auto& p : queue_pos)
      if (p.queue == queue) return &p;
    return nullptr;
  }
  QueuePos* find_queue_pos(ClassId queue) {
    return const_cast<QueuePos*>(std::as_const(*this).find_queue_pos(queue));
  }

  /// Reinitializes the record for a fresh transaction reusing this slot. The
  /// read log is cleared, not released: its capacity is recycled with the
  /// slot, so steady-state executions log their reads without allocating.
  void reset(MsgId new_id, TxnId new_tid, std::shared_ptr<const TxnRequest> new_request) {
    id = new_id;
    tid = new_tid;
    request = std::move(new_request);
    exec = ExecState::active;
    deliv = DeliveryState::pending;
    to_index = 0;
    running = false;
    expired = false;
    completion = EventId{};
    attempts = 0;
    opt_delivered_at = 0;
    to_delivered_at = 0;
    executed_at = 0;
    committed_at = 0;
    last_reads.clear();
    queue_pos.clear();
  }
};

/// Emitted at commit time for history checking and metrics.
struct CommitRecord {
  SiteId site = 0;
  MsgId txn;
  ProcId proc = 0;
  ClassId klass = 0;              ///< primary class (first covered class)
  std::vector<ClassId> classes;   ///< all covered classes; empty means {klass}
  TOIndex index = 0;
  SimTime at = 0;
  std::vector<std::pair<ObjectId, Value>> writes;  ///< sorted by object
  ReadLog reads;                                   ///< in read order
};

/// Fills `record` for the commit of `txn` at `site`, whose write set is
/// `writes`. Engines own one record and reuse it commit after commit:
/// `classes` and `writes` are assigned into the capacity it already holds,
/// and the read log is swapped with the transaction's (the slot takes the
/// previous buffer back and clears it before its next execution). Call once
/// `txn.committed_at` is set and before the store consumes the write set.
inline void fill_commit_record(CommitRecord& record, SiteId site, TxnRecord& txn,
                               std::span<const std::pair<ObjectId, Value>> writes) {
  const TxnRequest& request = *txn.request;
  record.site = site;
  record.txn = txn.id;
  record.proc = request.proc;
  record.klass = request.klass;
  if (request.multi_class()) {
    record.classes.assign(request.classes.begin(), request.classes.end());
  } else {
    record.classes.clear();
  }
  record.index = txn.to_index;
  record.at = txn.committed_at;
  record.writes.assign(writes.begin(), writes.end());
  record.reads.swap(txn.last_reads);
}

/// Invoked at every commit. The record is owned by the engine and reused by
/// its next commit, so it is valid only for the duration of the call: a hook
/// copies whatever it keeps. Engines call the hook before anything that can
/// start another commit.
using CommitHook = std::function<void(const CommitRecord&)>;

}  // namespace otpdb
