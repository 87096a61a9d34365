#include "baseline/lazy_replica.h"

#include <algorithm>
#include <utility>

#include "abcast/channels.h"
#include "util/assert.h"

namespace otpdb {
namespace {

struct LazyApply final : Payload {
  SiteId origin = 0;
  std::uint64_t ts = 0;  // Lamport timestamp of the committing transaction
  ClassId klass = 0;
  struct WriteEntry {
    ObjectId obj = 0;
    Value value;
    std::uint64_t prev_ts = 0;  // token the origin observed before writing
    SiteId prev_site = 0;
  };
  std::vector<WriteEntry> writes;
};

}  // namespace

LazyReplica::LazyReplica(Simulator& sim, Network& net, StorageBackend& storage,
                         const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                         SiteId self)
    : sim_(sim),
      net_(net),
      backend_(storage),
      store_(storage.memory()),
      catalog_(catalog),
      registry_(registry),
      self_(self),
      queues_(catalog.class_count()) {
  net_.subscribe(self_, kChannelLazy, [this](const Message& m) { on_apply(m); });
}

SubmitResult LazyReplica::submit_update(ProcId proc, ClassId klass, TxnArgs args,
                                        SimTime exec_duration, SimTime deadline) {
  OTPDB_CHECK(klass < catalog_.class_count());
  // No ordering layer: lag is always 0 and there is no backpressure source,
  // so only queue depth and the presubmit deadline gate submissions here.
  const SubmitResult gate = ingress_gate(sim_.now(), deadline, in_flight(), /*lag=*/0,
                                         /*backpressured=*/false, metrics_);
  if (gate != SubmitResult::admitted) return gate;
  LocalTxn txn;
  txn.id = MsgId{self_, next_txn_seq_++};
  txn.tid = interner_.intern(txn.id);
  txn.proc = proc;
  txn.klass = klass;
  txn.args = std::move(args);
  txn.exec_duration = exec_duration;
  txn.submitted_at = sim_.now();
  ++metrics_.submitted_updates;
  auto& queue = queues_[klass];
  queue.push_back(std::move(txn));
  ++queued_;
  if (queue.size() == 1) run_head(klass);
  return SubmitResult::admitted;
}

SubmitResult LazyReplica::submit_update_multi(ProcId proc, std::vector<ClassId> classes,
                                              TxnArgs args, SimTime exec_duration,
                                              SimTime deadline) {
  normalize_class_set(classes);
  OTPDB_CHECK_MSG(classes.size() == 1,
                  "the lazy engine cannot atomically commit a cross-partition transaction "
                  "(last-writer-wins reconciliation has no cross-class serialization); "
                  "use the OTP or conservative engine for multi-class workloads");
  return submit_update(proc, classes.front(), std::move(args), exec_duration, deadline);
}

void LazyReplica::run_head(ClassId klass) {
  LocalTxn& txn = queues_[klass].front();
  TxnContext ctx(store_, catalog_, txn.tid, klass, txn.args);
  registry_.get(txn.proc)(ctx);
  sim_.schedule_after(txn.exec_duration, [this, klass] { on_complete(klass); });
}

void LazyReplica::on_complete(ClassId klass) {
  auto& queue = queues_[klass];
  OTPDB_CHECK(!queue.empty());
  const LocalTxn txn = std::move(queue.front());
  queue.pop_front();
  --queued_;

  // Local commit: no coordination with other sites whatsoever.
  const std::uint64_t ts = ++lamport_;
  const TOIndex index = next_local_index_++;
  const auto writes = store_.provisional_writes(txn.tid);

  auto apply = std::make_shared<LazyApply>();
  apply->origin = self_;
  apply->ts = ts;
  apply->klass = klass;
  apply->writes.reserve(writes.size());
  for (const auto& [obj, value] : writes) {
    const WriterToken prev = tokens_[obj];
    apply->writes.push_back(LazyApply::WriteEntry{obj, value, prev.ts, prev.site});
    tokens_[obj] = WriterToken{ts, self_};
  }
  if (commit_hook_) {  // lazy records carry no read set and a single class
    record_.site = self_;
    record_.txn = txn.id;
    record_.proc = txn.proc;
    record_.klass = klass;
    record_.index = index;
    record_.at = sim_.now();
    record_.writes.assign(writes.begin(), writes.end());
  }
  // Site-local version stamps commit in order, so every local index up to
  // this one is committed: it is its own floor (just not a cross-site total
  // order - same caveat as the in-memory chains). Lazy queries read only
  // latest values, so each chain keeps just its newest version.
  backend_.commit(txn.tid, index, index, index + 1);
  interner_.release(txn.tid);

  ++metrics_.committed;
  const double latency = static_cast<double>(sim_.now() - txn.submitted_at);
  metrics_.commit_latency_ns.add(latency);
  metrics_.commit_latency_percentiles_ns.add(latency);
  metrics_.commit_wait_ns.add(0.0);
  if (commit_hook_) commit_hook_(record_);

  // Propagate the write-set *after* commit - the defining property of
  // asynchronous replication.
  net_.multicast(self_, kChannelLazy, std::move(apply));

  if (!queue.empty()) run_head(klass);
}

void LazyReplica::on_apply(const Message& msg) {
  if (msg.from == self_) return;  // own loopback
  const auto* apply = payload_cast_fast<LazyApply>(msg);
  OTPDB_CHECK(apply != nullptr);
  lamport_ = std::max(lamport_, apply->ts);
  ++applied_remote_;

  const MsgId synthetic{apply->origin, apply->ts};
  const TxnId stid = interner_.intern(synthetic);  // scratch id for the install
  bool installed_any = false;
  for (const auto& entry : apply->writes) {
    WriterToken& current = tokens_[entry.obj];
    const WriterToken incoming{apply->ts, apply->origin};
    const WriterToken expected{entry.prev_ts, entry.prev_site};
    if (current != expected) {
      // The origin wrote over a version this site never had (or vice versa):
      // somebody's update is silently lost. This is the consistency violation
      // eager replication rules out.
      ++conflicts_detected_;
    }
    if (incoming > current) {  // last-writer-wins reconciliation
      store_.write(stid, entry.obj, entry.value);
      current = incoming;
      installed_any = true;
    }
  }
  if (installed_any) {
    const TOIndex index = next_local_index_++;
    backend_.commit(stid, index, index, index + 1);
    if (commit_hook_) {
      record_.site = self_;
      record_.txn = synthetic;
      record_.proc = 0;
      record_.klass = apply->klass;
      record_.index = index;
      record_.at = sim_.now();
      record_.writes.clear();
      commit_hook_(record_);
    }
  }
  interner_.release(stid);
}

void LazyReplica::submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) {
  ++metrics_.queries_started;
  const SimTime submitted_at = sim_.now();
  sim_.schedule_after(exec_duration, [this, fn = std::move(fn), done = std::move(done),
                                      submitted_at] {
    // Lazy queries read whatever the local replica currently has - fast but
    // with no global snapshot guarantee.
    QueryReport report;
    QueryContext ctx(
        next_local_index_ - 1,
        [this](ObjectId obj, TOIndex) {
          return store_.read_latest(obj).value_or(Value{std::int64_t{0}});
        },
        report.reads);
    fn(ctx);
    ++metrics_.queries_done;
    report.snapshot_index = next_local_index_ - 1;
    report.submitted_at = submitted_at;
    report.completed_at = sim_.now();
    report.attempts = 1;
    metrics_.query_latency_ns.add(static_cast<double>(report.completed_at - submitted_at));
    if (done) done(report);
  });
}

}  // namespace otpdb
