#include "core/lock_table_replica.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"
#include "util/log.h"

namespace otpdb {

AccessSetExtractor rmw_access_extractor(const PartitionCatalog& catalog) {
  return [&catalog](ClassId klass, const TxnArgs& args) {
    std::vector<ObjectId> objects;
    objects.reserve(args.ints.size() > 0 ? args.ints.size() - 1 : 0);
    for (std::size_t i = 1; i < args.ints.size(); ++i) {
      const ObjectId obj = catalog.object(klass, static_cast<std::uint64_t>(args.ints[i]));
      if (std::find(objects.begin(), objects.end(), obj) == objects.end()) {
        objects.push_back(obj);
      }
    }
    return objects;
  };
}

LockTableReplica::LockTableReplica(Simulator& sim, AtomicBroadcast& abcast,
                                   StorageBackend& storage, const PartitionCatalog& catalog,
                                   const ProcedureRegistry& registry, SiteId self,
                                   AccessSetExtractor extractor)
    : sim_(sim),
      abcast_(abcast),
      backend_(storage),
      store_(storage.memory()),
      catalog_(catalog),
      registry_(registry),
      self_(self),
      extractor_(std::move(extractor)),
      queues_(catalog.object_count()),
      queries_(sim, store_, catalog.object_count(),
               [](ObjectId obj) { return QueryEngine::Domain{obj}; }, metrics_) {
  OTPDB_CHECK(extractor_ != nullptr);
  abcast_.set_callbacks(AbcastCallbacks{
      [this](const Message& msg) { on_opt_deliver(msg); },
      [this](const MsgId& id, TOIndex index) { on_to_deliver(id, index); },
      [this](std::span<const ToDelivery> batch) { on_to_deliver_batch(batch); },
  });
}

SubmitResult LockTableReplica::submit_update(ProcId proc, ClassId klass, TxnArgs args,
                                             SimTime exec_duration, SimTime deadline) {
  std::vector<ObjectId> access_set = extractor_(klass, args);
  return submit_update_with_access(proc, klass, std::move(access_set), std::move(args),
                                   exec_duration, deadline);
}

SubmitResult LockTableReplica::submit_update_multi(ProcId proc, std::vector<ClassId> classes,
                                                   TxnArgs args, SimTime exec_duration,
                                                   SimTime deadline) {
  normalize_class_set(classes);
  OTPDB_CHECK_MSG(classes.size() == 1,
                  "the lock-table engine's access-set extractor is keyed to one class's "
                  "argument convention; submit cross-partition transactions with an "
                  "explicit union access set via submit_update_with_access");
  return submit_update(proc, classes.front(), std::move(args), exec_duration, deadline);
}

SubmitResult LockTableReplica::submit_update_with_access(ProcId proc, ClassId klass,
                                                         std::vector<ObjectId> access_set,
                                                         TxnArgs args, SimTime exec_duration,
                                                         SimTime deadline) {
  OTPDB_CHECK_MSG(!access_set.empty(), "a transaction must declare at least one object");
  const AbcastStats& ab = abcast_.stats();
  const std::uint64_t lag =
      ab.opt_delivered > ab.to_delivered ? ab.opt_delivered - ab.to_delivered : 0;
  const SubmitResult gate = ingress_gate(sim_.now(), deadline, in_flight(), lag,
                                         abcast_.backpressured(), metrics_);
  if (gate != SubmitResult::admitted) return gate;
  auto request = std::make_shared<TxnRequest>();
  request->proc = proc;
  request->klass = klass;
  request->args = std::move(args);
  request->origin = self_;
  request->client_seq = next_client_seq_++;
  request->submitted_at = sim_.now();
  request->exec_duration = exec_duration;
  // `deadline` is deliberately NOT carried into the request: enforcing it at
  // the object queues would need per-object virtual service clocks to stay
  // deterministic across sites. The ingress gate above is the full extent of
  // deadline handling on this engine.
  request->access_set = std::move(access_set);
  ++metrics_.submitted_updates;
  abcast_.broadcast(std::move(request));
  return SubmitResult::admitted;
}

void LockTableReplica::submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) {
  queries_.submit(std::move(fn), exec_duration, std::move(done));
}

std::size_t LockTableReplica::queue_length(ObjectId obj) const {
  return obj < queues_.size() ? queues_[obj].size() : 0;
}

// ---------------------------------------------------------------------------
// Serialization (Opt-deliver): enter all object queues atomically.
// ---------------------------------------------------------------------------

void LockTableReplica::on_opt_deliver(const Message& msg) {
  OTPDB_ASSERT(std::dynamic_pointer_cast<const TxnRequest>(msg.payload) != nullptr);
  auto request = std::static_pointer_cast<const TxnRequest>(msg.payload);
  OTPDB_CHECK_MSG(!request->access_set.empty(),
                  "lock-table engine requires pre-declared access sets");
  // acquire() checks against duplicate Opt-delivery.
  TxnRecord* txn = txns_.acquire(msg.id, std::move(request));
  txn->opt_delivered_at = sim_.now();

  for (ObjectId obj : txn->request->access_set) {
    // The lock table is a dense vector over the catalog's object space; a
    // user-supplied extractor declaring an out-of-catalog id must fail loudly
    // here, not corrupt memory.
    OTPDB_CHECK_MSG(obj < queues_.size(), "declared object outside the catalog");
    queues_[obj].push_back(txn);
  }
  try_execute(txn);
}

bool LockTableReplica::heads_all_queues(const TxnRecord* txn) const {
  for (ObjectId obj : txn->request->access_set) {
    const auto& queue = queues_[obj];
    OTPDB_ASSERT(!queue.empty());
    if (queue.front() != txn) return false;
  }
  return true;
}

void LockTableReplica::try_execute(TxnRecord* txn) {
  if (txn->running || txn->exec != ExecState::active) return;
  if (!heads_all_queues(txn)) return;
  txn->running = true;
  ++txn->attempts;
  if (txn->attempts > 1) ++metrics_.reexecutions;
  txn->last_reads.clear();  // a re-execution logs only its own reads
  ReadLog* const reads = commit_hook_ ? &txn->last_reads : nullptr;  // the checker's read sets
  TxnContext ctx(store_, txn->request->access_set, txn->tid, txn->request->klass,
                 txn->request->args, reads);
  registry_.get(txn->request->proc)(ctx);
  txn->completion =
      sim_.schedule_after(txn->request->exec_duration, [this, txn] { execution_complete(txn); });
}

// ---------------------------------------------------------------------------
// Execution completion (Figure 5 generalized).
// ---------------------------------------------------------------------------

void LockTableReplica::execution_complete(TxnRecord* txn) {
  txn->running = false;
  txn->executed_at = sim_.now();
  txn->exec = ExecState::executed;
  if (txn->deliv == DeliveryState::committable) commit(txn);
}

// ---------------------------------------------------------------------------
// Correctness check (Figure 6 generalized to object queues).
// ---------------------------------------------------------------------------

void LockTableReplica::reorder_before_first_pending(ObjectQueue& queue, TxnRecord* txn) {
  auto self = std::find(queue.begin(), queue.end(), txn);
  OTPDB_CHECK(self != queue.end());
  queue.erase(self);
  auto first_pending = std::find_if(queue.begin(), queue.end(), [](const TxnRecord* t) {
    return t->deliv == DeliveryState::pending;
  });
  queue.insert(first_pending, txn);
}

void LockTableReplica::on_to_deliver(const MsgId& id, TOIndex index) {
  TxnRecord* txn = txns_.lookup(id);
  txn->to_index = index;
  to_deliver_one(txn);
}

void LockTableReplica::on_to_deliver_batch(std::span<const ToDelivery> batch) {
  // Per-entry handling identical to repeated on_to_deliver calls.
  for (const auto& [id, index] : batch) on_to_deliver(id, index);
}

void LockTableReplica::to_deliver_one(TxnRecord* txn) {
  const TOIndex index = txn->to_index;
  txn->to_delivered_at = sim_.now();
  queries_.advance_to_index(index);
  for (ObjectId obj : txn->request->access_set) {
    queries_.note_to_delivered(QueryEngine::Domain{obj}, index);
  }
  metrics_.opt_to_gap_ns.add(static_cast<double>(txn->to_delivered_at - txn->opt_delivered_at));

  if (txn->exec == ExecState::executed && heads_all_queues(txn)) {
    txn->deliv = DeliveryState::committable;
    commit(txn);
    return;
  }
  txn->deliv = DeliveryState::committable;

  // Undo every wrongly ordered predecessor: a *pending* transaction that sits
  // before T in one of T's queues but has already produced (or is producing)
  // effects. Its undo is a rollback of private provisional versions, so no
  // cascades. It re-executes after the committable prefix commits.
  bool moved = false;
  for (ObjectId obj : txn->request->access_set) {
    ObjectQueue& queue = queues_[obj];
    for (TxnRecord* other : queue) {
      if (other == txn) break;
      if (other->deliv == DeliveryState::pending &&
          (other->running || other->exec == ExecState::executed)) {
        abort_transaction(other);
      }
    }
    const TxnRecord* old_front = queue.front();
    reorder_before_first_pending(queue, txn);
    moved |= queue.front() != old_front || queue.front() == txn;
  }
  if (moved) ++metrics_.mismatch_reorders;

  try_execute(txn);
}

void LockTableReplica::abort_transaction(TxnRecord* txn) {
  OTPDB_CHECK(txn->deliv == DeliveryState::pending);
  if (txn->running) {
    sim_.cancel(txn->completion);
    txn->running = false;
  }
  backend_.abort(txn->tid);
  txn->exec = ExecState::active;
  ++metrics_.aborts;
}

// ---------------------------------------------------------------------------
// Commit.
// ---------------------------------------------------------------------------

void LockTableReplica::commit(TxnRecord* txn) {
  OTPDB_CHECK(txn->exec == ExecState::executed);
  OTPDB_CHECK(txn->deliv == DeliveryState::committable);
  OTPDB_CHECK(txn->to_index > 0);
  OTPDB_CHECK(heads_all_queues(txn));

  txn->committed_at = sim_.now();
  if (commit_hook_) {
    fill_commit_record(commit_record_, self_, *txn, store_.provisional_writes(txn->tid));
  }

  backend_.commit(txn->tid, txn->to_index, std::span<const ClassId>(&txn->request->klass, 1),
                  queries_.gc_horizon());
  // The request outlives the retire below: its access set names the queues
  // whose heads this commit may promote.
  const std::shared_ptr<const TxnRequest> request = txn->request;
  for (ObjectId obj : request->access_set) {
    ObjectQueue& queue = queues_[obj];
    OTPDB_CHECK(queue.front() == txn);
    queue.erase(queue.begin());
    // Multi-domain commit protocol: advance every covered watermark first,
    // wake waiters once below (so no query observes a half-committed state).
    queries_.note_committed(QueryEngine::Domain{obj}, txn->to_index);
  }
  queries_.finish_commit(txn->to_index);

  ++metrics_.committed;
  if (txn->request->origin == self_) {
    const double latency = static_cast<double>(txn->committed_at - txn->request->submitted_at);
    metrics_.commit_latency_ns.add(latency);
    metrics_.commit_latency_percentiles_ns.add(latency);
  }
  metrics_.commit_wait_ns.add(static_cast<double>(txn->committed_at - txn->executed_at));
  if (commit_hook_) commit_hook_(commit_record_);
  txns_.retire(txn);  // the record slot is recycled by the next acquire

  try_execute_heads_of(request->access_set);
}

void LockTableReplica::try_execute_heads_of(const std::vector<ObjectId>& objects) {
  // Removing (or reordering around) a transaction may have promoted the
  // heads of these queues to hold-all-locks status.
  for (ObjectId obj : objects) {
    ObjectQueue& queue = queues_[obj];
    if (queue.empty()) continue;
    TxnRecord* head = queue.front();
    try_execute(head);
    // An executed+committable head that was waiting for this commit to reach
    // the front of every queue can now commit.
    if (head->exec == ExecState::executed && head->deliv == DeliveryState::committable &&
        !head->running && heads_all_queues(head)) {
      commit(head);
    }
  }
}

}  // namespace otpdb
