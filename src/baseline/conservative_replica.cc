#include "baseline/conservative_replica.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace otpdb {

ConservativeReplica::ConservativeReplica(Simulator& sim, AtomicBroadcast& abcast,
                                         StorageBackend& storage, const PartitionCatalog& catalog,
                                         const ProcedureRegistry& registry, SiteId self)
    : sim_(sim),
      abcast_(abcast),
      backend_(storage),
      store_(storage.memory()),
      catalog_(catalog),
      registry_(registry),
      self_(self),
      service_clock_(catalog.class_count()),
      queries_(sim, store_, catalog, metrics_) {
  queues_.reserve(catalog.class_count());
  for (std::size_t c = 0; c < catalog.class_count(); ++c) {
    queues_.emplace_back(static_cast<ClassId>(c));
  }
  abcast_.set_callbacks(AbcastCallbacks{
      [this](const Message& msg) { on_opt_deliver(msg); },
      [this](const MsgId& id, TOIndex index) { on_to_deliver(id, index); },
      [this](std::span<const ToDelivery> batch) { on_to_deliver_batch(batch); },
  });
}

void ConservativeReplica::broadcast_request(ProcId proc, ClassId klass,
                                            std::vector<ClassId> classes, TxnArgs args,
                                            SimTime exec_duration, SimTime deadline) {
  auto request = std::make_shared<TxnRequest>();
  request->proc = proc;
  request->klass = klass;
  request->classes = std::move(classes);
  request->args = std::move(args);
  request->origin = self_;
  request->client_seq = next_client_seq_++;
  request->submitted_at = sim_.now();
  request->exec_duration = exec_duration;
  request->deadline = deadline;
  ++metrics_.submitted_updates;
  abcast_.broadcast(std::move(request));
}

SubmitResult ConservativeReplica::submit_update(ProcId proc, ClassId klass, TxnArgs args,
                                                SimTime exec_duration, SimTime deadline) {
  OTPDB_CHECK(klass < catalog_.class_count());
  const AbcastStats& ab = abcast_.stats();
  const std::uint64_t lag =
      ab.opt_delivered > ab.to_delivered ? ab.opt_delivered - ab.to_delivered : 0;
  const SubmitResult gate = ingress_gate(sim_.now(), deadline, in_flight(), lag,
                                         abcast_.backpressured(), metrics_);
  if (gate != SubmitResult::admitted) return gate;
  broadcast_request(proc, klass, {}, std::move(args), exec_duration, deadline);
  return SubmitResult::admitted;
}

SubmitResult ConservativeReplica::submit_update_multi(ProcId proc, std::vector<ClassId> classes,
                                                      TxnArgs args, SimTime exec_duration,
                                                      SimTime deadline) {
  normalize_class_set(classes);
  OTPDB_CHECK(classes.back() < catalog_.class_count());
  if (classes.size() == 1) {
    return submit_update(proc, classes.front(), std::move(args), exec_duration, deadline);
  }
  const AbcastStats& ab = abcast_.stats();
  const std::uint64_t lag =
      ab.opt_delivered > ab.to_delivered ? ab.opt_delivered - ab.to_delivered : 0;
  const SubmitResult gate = ingress_gate(sim_.now(), deadline, in_flight(), lag,
                                         abcast_.backpressured(), metrics_);
  if (gate != SubmitResult::admitted) return gate;
  const ClassId primary = classes.front();
  broadcast_request(proc, primary, std::move(classes), std::move(args), exec_duration, deadline);
  return SubmitResult::admitted;
}

void ConservativeReplica::submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) {
  queries_.submit(std::move(fn), exec_duration, std::move(done));
}

void ConservativeReplica::on_opt_deliver(const Message& msg) {
  // The conservative engine ignores the tentative order: it only keeps the
  // body so the TO-delivery confirmation can be matched to it.
  OTPDB_ASSERT(std::dynamic_pointer_cast<const TxnRequest>(msg.payload) != nullptr);
  auto request = std::static_pointer_cast<const TxnRequest>(msg.payload);
  // acquire() checks against duplicate Opt-delivery.
  TxnRecord* txn = txns_.acquire(msg.id, std::move(request));
  txn->opt_delivered_at = sim_.now();
  ++buffered_;
}

void ConservativeReplica::on_to_deliver(const MsgId& id, TOIndex index) {
  // Catch-up tombstone: the body was never resent because this site's store
  // already holds the commit (index <= committed floor).
  TxnRecord* txn = txns_.lookup_if_present(id);
  if (txn == nullptr) {
    OTPDB_CHECK_MSG(index <= queries_.committed_floor(), "TO-delivery without prior Opt-delivery");
    return;
  }
  txn->to_index = index;
  to_deliver_one(txn);
}

void ConservativeReplica::on_to_deliver_batch(std::span<const ToDelivery> batch) {
  // Per-entry handling identical to repeated on_to_deliver calls.
  for (const auto& [id, index] : batch) on_to_deliver(id, index);
}

void ConservativeReplica::to_deliver_one(TxnRecord* txn) {
  txn->to_delivered_at = sim_.now();
  txn->deliv = DeliveryState::committable;
  const auto classes = txn->request->class_span();
  queries_.advance_to_index(txn->to_index);
  for (ClassId c : classes) queries_.note_to_delivered(c, txn->to_index);

  // Deadline budget: same virtual-clock rule (and hence the same drop
  // decisions) as the OTP engine; replays below the committed floor are not
  // charged again.
  if (!service_clock_.admit(*txn->request, txn->to_index, queries_.committed_floor())) {
    txn->expired = true;  // dropped: occupies no service time
  }

  // Crash-recovery replay: a TO-delivery at or below the covered classes'
  // commit watermarks was committed before the crash - acknowledge without
  // re-executing (its versions are already in the store). Nothing was
  // enqueued yet: the conservative engine enters queues only at TO-delivery,
  // and the replay runs in definitive order against empty queues.
  if (txn->to_index <= queries_.last_committed(classes.front())) {
#ifndef NDEBUG
    for (ClassId c : classes) OTPDB_ASSERT(txn->to_index <= queries_.last_committed(c));
#endif
    --buffered_;
    txns_.retire(txn);
    return;
  }

  metrics_.opt_to_gap_ns.add(static_cast<double>(txn->to_delivered_at - txn->opt_delivered_at));
  --buffered_;
  ++queued_;

  // Enter every covered queue in TO-delivery order (identical at all sites),
  // ascending by class; run once heading all of them. A dropped transaction
  // queues too and retires, unexecuted, once it heads them all: the class
  // watermarks must not pass predecessors that are still queued.
  for (ClassId c : classes) queues_[c].append(txn);
  if (!txn->expired) {
    try_execute(txn);
  } else if (heads_all_queues(txn)) {
    retire_expired(txn);
  }
}

bool ConservativeReplica::heads_all_queues(const TxnRecord* txn) const {
  for (ClassId c : txn->request->class_span()) {
    if (queues_[c].head() != txn) return false;
  }
  return true;
}

void ConservativeReplica::retire_expired(TxnRecord* txn) {
  OTPDB_CHECK(txn->expired);
  OTPDB_CHECK(heads_all_queues(txn));
  const auto classes = txn->request->class_span();
  for (ClassId c : classes) queues_[c].remove_head(txn);
  --queued_;
  ++metrics_.deadline_expired_queue;
  // The slot commits nothing, but the watermarks advance past it, with a
  // wake for waiting queries.
  for (ClassId c : classes) queries_.note_committed(c, txn->to_index);
  queries_.finish_commit(txn->to_index);
  promote_heads(classes);  // before retire: `classes` views the request
  txns_.retire(txn);
}

void ConservativeReplica::promote_heads(std::span<const ClassId> classes) {
  // Reversed, so the classes pop in ascending order.
  promote_stack_.insert(promote_stack_.end(), classes.rbegin(), classes.rend());
  if (promoting_) return;  // the active drain below picks the new entries up
  promoting_ = true;
  while (!promote_stack_.empty()) {
    const ClassId c = promote_stack_.back();
    promote_stack_.pop_back();
    TxnRecord* next = queues_[c].head();
    if (next == nullptr) continue;
    if (!next->expired) {
      try_execute(next);
    } else if (heads_all_queues(next)) {
      retire_expired(next);  // a chained drop: pushes its classes back
    }
  }
  promoting_ = false;
}

void ConservativeReplica::try_execute(TxnRecord* txn) {
  if (txn->running || txn->exec != ExecState::active) return;
  if (!heads_all_queues(txn)) return;
  submit_execution(txn);
}

void ConservativeReplica::submit_execution(TxnRecord* txn) {
  OTPDB_CHECK(!txn->running);
  OTPDB_CHECK(heads_all_queues(txn));
  txn->running = true;
  ++txn->attempts;
  txn->last_reads.clear();
  ReadLog* const reads = commit_hook_ ? &txn->last_reads : nullptr;  // the checker's read sets
  const TxnRequest& request = *txn->request;
  const Procedure& procedure = registry_.get(request.proc);
  if (request.multi_class()) {
    TxnContext ctx(store_, catalog_, request.class_span(), txn->tid, request.args, reads);
    procedure(ctx);
  } else {
    TxnContext ctx(store_, catalog_, txn->tid, request.klass, request.args, reads);
    procedure(ctx);
  }
  txn->completion =
      sim_.schedule_after(request.exec_duration, [this, txn] { on_complete(txn); });
}

void ConservativeReplica::on_complete(TxnRecord* txn) {
  txn->running = false;
  txn->exec = ExecState::executed;
  txn->executed_at = sim_.now();
  txn->committed_at = sim_.now();

  const auto classes = txn->request->class_span();
  OTPDB_CHECK(heads_all_queues(txn));

  if (commit_hook_) {
    fill_commit_record(commit_record_, self_, *txn, store_.provisional_writes(txn->tid));
  }

  backend_.commit(txn->tid, txn->to_index, classes, queries_.gc_horizon());
  for (ClassId c : classes) queues_[c].remove_head(txn);
  --queued_;

  ++metrics_.committed;
  if (txn->request->origin == self_) {
    const double latency = static_cast<double>(txn->committed_at - txn->request->submitted_at);
    metrics_.commit_latency_ns.add(latency);
    metrics_.commit_latency_percentiles_ns.add(latency);
  }
  metrics_.commit_wait_ns.add(0.0);  // commit follows execution immediately
  if (commit_hook_) commit_hook_(commit_record_);

  const TOIndex committed_index = txn->to_index;
  // Advance every covered watermark before waking waiters (multi-domain
  // commit protocol of the QueryEngine). Only then may removing txn promote
  // the next head of every covered queue: an expired head retires at once,
  // and the watermarks must pass txn first.
  for (ClassId c : classes) queries_.note_committed(c, committed_index);
  queries_.finish_commit(committed_index);
  promote_heads(classes);
  txns_.retire(txn);  // the record slot is recycled by the next acquire
}

void ConservativeReplica::crash_recover_reset() {
  txns_.for_each_live([this](TxnRecord* txn) {
    if (txn->running) sim_.cancel(txn->completion);
  });
  txns_.clear();
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    queues_[c] = ClassQueue(static_cast<ClassId>(c));
  }
  buffered_ = 0;
  queued_ = 0;
  backend_.clear_provisional();
  queries_.reset_volatile();
  service_clock_.rewind(queries_.committed_floor());  // catch-up resumes above it
  promote_stack_.clear();
  promoting_ = false;
  admission_.reset();
}

void ConservativeReplica::restart_from_disk(std::span<const TOIndex> class_watermarks,
                                            TOIndex durable_floor) {
  crash_recover_reset();  // volatile state is equally gone on a cold restart
  queries_.restore_watermarks(class_watermarks, durable_floor);
  service_clock_.reset(durable_floor);  // RAM is gone, and the clock with it
}

}  // namespace otpdb
