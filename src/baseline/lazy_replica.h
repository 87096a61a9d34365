// LazyReplica - commercial-style asynchronous replication (paper Section 1,
// citing [20]): update transactions execute and commit locally at their origin
// site with no inter-site coordination; write-sets propagate to the other
// replicas after commit and are reconciled last-writer-wins using Lamport
// timestamps.
//
// This is the performance yardstick the paper compares against: commit
// latency is just the local execution time, but global consistency is lost -
// concurrent conflicting updates commit in different orders at different
// sites, and reconciliation silently discards work ("lost updates"). The
// `conflicts_detected` counter and the 1-copy-serializability checker make
// that inconsistency measurable (bench/otp_vs_lazy).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/replica_base.h"
#include "core/txn.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "db/storage_backend.h"
#include "db/txn_interner.h"
#include "db/versioned_store.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace otpdb {

class LazyReplica final : public ReplicaBase {
 public:
  LazyReplica(Simulator& sim, Network& net, StorageBackend& storage,
              const PartitionCatalog& catalog, const ProcedureRegistry& registry, SiteId self);

  /// Admission + presubmit-deadline gating only: the lazy engine has no
  /// global order, so a post-admission deadline cannot be enforced
  /// deterministically across sites and is ignored once admitted.
  SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args, SimTime exec_duration,
                             SimTime deadline = 0) override;
  /// The lazy engine reconciles per object with no cross-site serialization
  /// at all, so a cross-partition atomic commit is outside its model: routes
  /// single-element class sets to submit_update and rejects genuine
  /// multi-class submissions loudly.
  SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes, TxnArgs args,
                                   SimTime exec_duration, SimTime deadline = 0) override;
  void submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) override;
  void set_commit_hook(CommitHook hook) override { commit_hook_ = std::move(hook); }
  std::size_t in_flight() const override {
    return queued_ + metrics_.queries_in_flight();
  }
  const ReplicaMetrics& metrics() const override { return metrics_; }
  SiteId site() const override { return self_; }

  /// Write-sets applied from remote sites.
  std::uint64_t applied_remote() const { return applied_remote_; }
  /// Reconciliation conflicts: an incoming write-set overwrote (or lost
  /// against) a version its origin had never observed - a lost update.
  std::uint64_t conflicts_detected() const { return conflicts_detected_; }

 private:
  struct LocalTxn {
    MsgId id;
    TxnId tid = kInvalidTxnId;  ///< dense id for the store's provisional table
    ProcId proc = 0;
    ClassId klass = 0;
    TxnArgs args;
    SimTime exec_duration = 0;
    SimTime submitted_at = 0;
  };

  /// Per-object "last writer" token; totally ordered (Lamport ts, origin).
  struct WriterToken {
    std::uint64_t ts = 0;
    SiteId site = 0;
    bool operator==(const WriterToken&) const = default;
    auto operator<=>(const WriterToken&) const = default;
  };

  void run_head(ClassId klass);
  void on_complete(ClassId klass);
  void on_apply(const Message& msg);

  Simulator& sim_;
  Network& net_;
  StorageBackend& backend_;
  VersionedStore& store_;  // backend_.memory(): reads + provisional writes
  const PartitionCatalog& catalog_;
  const ProcedureRegistry& registry_;
  SiteId self_;

  std::vector<std::deque<LocalTxn>> queues_;  // local FIFO per class
  TxnIdInterner interner_;
  std::size_t queued_ = 0;
  std::uint64_t next_txn_seq_ = 0;
  std::uint64_t lamport_ = 0;
  TOIndex next_local_index_ = 1;  // site-local version stamps (not a total order!)
  std::unordered_map<ObjectId, WriterToken> tokens_;

  std::uint64_t applied_remote_ = 0;
  std::uint64_t conflicts_detected_ = 0;
  ReplicaMetrics metrics_;
  CommitHook commit_hook_;
  CommitRecord record_;  // refilled by every commit (see CommitHook)
};

}  // namespace otpdb
