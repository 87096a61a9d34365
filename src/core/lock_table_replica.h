// LockTableReplica - optimistic transaction processing with fine-granularity
// (object-level) queues, the extension the paper's Section 6 announces and
// its companion report [13] develops.
//
// The class-queue model serializes every pair of transactions in the same
// conflict class even when they touch disjoint objects. This engine is
// OtpReplica with object queue keys: each *object* has its own queue (a
// lock-table wait list). A transaction pre-declares its object access set
// (derived from its stored procedure's arguments by a registered extractor);
// on Opt-delivery it enters the queues of all its objects at one instant, in
// tentative-order position; it executes when it heads every queue it is in
// ("holds all its locks") and commits once it is both executed and
// TO-delivered. Serialization, execution, the correctness check, deadline
// drops, crash replay, the cold restart and commit are OtpReplica's own
// code, with one virtual-service-clock lane and one query domain per object.
//
// Deadlock freedom without lock ordering: within a site, every queue's
// content order is consistent with one total order - committable transactions
// first (in definitive order), then pending transactions (in tentative
// arrival order, and a transaction enters all its queues at one instant).
// The least uncommitted transaction in that order heads all its queues, so
// some transaction can always run.
//
// Conflicting transactions (shared object) therefore commit in definitive
// order at every site, giving 1-copy-serializability at object granularity -
// transactions of one class with disjoint access sets run concurrently.
//
// One limit remains: an update covers one class. Declare a cross-class
// access set through submit_update_with_access instead.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/otp_replica.h"

namespace otpdb {

/// Derives a transaction's object access set from its class and arguments.
/// Must be deterministic and identical at all sites (like the procedures).
using AccessSetExtractor = std::function<std::vector<ObjectId>(ClassId, const TxnArgs&)>;

/// Returns the extractor matching workload::register_rmw_procedure's argument
/// convention (ints = [delta, offset...] within the class partition).
AccessSetExtractor rmw_access_extractor(const PartitionCatalog& catalog);

class LockTableReplica final : public OtpReplica {
 public:
  LockTableReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                   const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                   SiteId self, AccessSetExtractor extractor)
      : OtpReplica(sim, abcast, storage, catalog, registry, self, {},
                   Serialize::at_opt_delivery, Keys::objects),
        extractor_(std::move(extractor)) {
    OTPDB_CHECK(extractor_ != nullptr);
  }

  // ReplicaBase:
  SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args, SimTime exec_duration,
                             SimTime deadline = 0) override {
    std::vector<ObjectId> access_set = extractor_(klass, args);
    return submit_update_with_access(proc, klass, std::move(access_set), std::move(args),
                                     exec_duration, deadline);
  }
  /// The access-set extractor is keyed to a single class's argument
  /// convention, so single-element class sets route to submit_update and
  /// genuine multi-class submissions are rejected explicitly (declare the
  /// union access set via submit_update_with_access instead).
  SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes, TxnArgs args,
                                   SimTime exec_duration, SimTime deadline = 0) override {
    normalize_class_set(classes);
    OTPDB_CHECK_MSG(classes.size() == 1,
                    "the lock-table engine's access-set extractor is keyed to one class's "
                    "argument convention; submit cross-partition transactions with an "
                    "explicit union access set via submit_update_with_access");
    return submit_update(proc, classes.front(), std::move(args), exec_duration, deadline);
  }

  /// Submits with an explicit access set (bypasses the extractor).
  SubmitResult submit_update_with_access(ProcId proc, ClassId klass,
                                         std::vector<ObjectId> access_set, TxnArgs args,
                                         SimTime exec_duration, SimTime deadline = 0) {
    OTPDB_CHECK_MSG(!access_set.empty(), "a transaction must declare at least one object");
    return gate_and_broadcast(proc, klass, {}, std::move(access_set), std::move(args),
                              exec_duration, deadline);
  }

  /// Introspection for tests: transactions queued on `obj`.
  std::size_t queue_length(ObjectId obj) const {
    const ClassQueue* queue = find_queue(obj);
    return queue == nullptr ? 0 : queue->size();
  }

 private:
  AccessSetExtractor extractor_;
};

}  // namespace otpdb
