// ConservativeReplica - the non-optimistic baseline ([1,12,16,17] in the
// paper): the OTP engine serializing at TO-delivery instead of Opt-delivery.
//
// Opt-delivery only interns the request; at TO-delivery the transaction
// enters its class queues (S1-S2) and the unchanged correctness-check module
// runs it once it heads them all. The queues therefore hold transactions in
// definitive order, execution order equals the definitive order, and there
// are never aborts or reorderings - but the full ordering latency of the
// broadcast sits on the critical path of every transaction. This is the
// direct ablation for the paper's overlap claim (bench/overlap_latency).
// Drops, crash replay, commit and queries are OtpReplica's own code.
#pragma once

#include "core/otp_replica.h"

namespace otpdb {

class ConservativeReplica final : public OtpReplica {
 public:
  ConservativeReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                      const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                      SiteId self)
      : OtpReplica(sim, abcast, storage, catalog, registry, self, {},
                   Serialize::at_to_delivery) {}

  /// Introspection for tests: the commit watermark of `klass` (the last
  /// definitive index committed or dropped in it).
  TOIndex last_committed(ClassId klass) const { return queries().last_committed(klass); }
};

}  // namespace otpdb
