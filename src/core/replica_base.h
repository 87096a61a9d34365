// Common interface of the replication engines in this repository: the OTP
// engine (paper Section 3), the conservative engine (execute after TO-deliver)
// and the lazy engine (commercial-style asynchronous replication). Benches and
// the workload driver talk to replicas through this interface only.
#pragma once

#include <functional>
#include <vector>

#include "core/admission.h"
#include "core/metrics.h"
#include "core/query.h"
#include "core/txn.h"
#include "db/procedures.h"
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/types.h"

namespace otpdb {

/// Outcome of a submit_update call. Anything but `admitted` means the engine
/// took NO ownership of the request: nothing was broadcast, no metrics beyond
/// the refusal counter moved, and the client may retry (shed/backpressure) or
/// must give up (expired).
enum class SubmitResult : std::uint8_t {
  admitted,      ///< accepted; the engine will disseminate and commit it
  shed,          ///< refused by admission control (overload); retry later
  backpressure,  ///< refused by the abcast sender-side in-flight cap; retry later
  expired,       ///< the request's deadline already passed at submit time
};

inline const char* to_string(SubmitResult r) {
  switch (r) {
    case SubmitResult::admitted: return "admitted";
    case SubmitResult::shed: return "shed";
    case SubmitResult::backpressure: return "backpressure";
    case SubmitResult::expired: return "expired";
  }
  return "?";
}

class ReplicaBase {
 public:
  virtual ~ReplicaBase() = default;

  /// Accepts a client update request at this site. The engine disseminates and
  /// eventually commits it at every site. `exec_duration` models the stored
  /// procedure's execution cost. `deadline` is an absolute sim-time budget
  /// (0 = none): a refused or expired submission returns without side effects
  /// beyond the matching metrics counter.
  virtual SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args,
                                     SimTime exec_duration, SimTime deadline = 0) = 0;

  /// Accepts a client update request spanning several conflict classes (a
  /// cross-partition transaction). `classes` need not be sorted or unique;
  /// the engine normalizes it. Engines whose model cannot serialize
  /// cross-class updates (lazy, lock-table) route single-element sets to
  /// submit_update and reject genuine multi-class sets explicitly.
  virtual SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes,
                                           TxnArgs args, SimTime exec_duration,
                                           SimTime deadline = 0) = 0;

  /// Accepts a client read-only query at this site; executed locally
  /// (read-one/write-all). `done` fires with the completed query.
  virtual void submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) = 0;

  /// Invoked on every local commit (history recording / checkers), with a
  /// record valid only for the call (see CommitHook). Install before
  /// submitting work: reads are logged only for executions started with a
  /// hook installed (hot-path economy), so a hook installed mid-run sees
  /// empty `reads` on transactions already executing.
  virtual void set_commit_hook(CommitHook hook) = 0;

  /// Outstanding work at this site (transactions not yet committed locally,
  /// queries not yet answered). Zero across all sites means quiescent.
  virtual std::size_t in_flight() const = 0;

  virtual const ReplicaMetrics& metrics() const = 0;
  virtual SiteId site() const = 0;

  /// Every definitive index at or below this is committed (or dropped) at
  /// this site. Engines that do not track it report 0, which keeps the
  /// ordering layer from trimming anything.
  virtual TOIndex committed_floor() const { return 0; }

  /// Installs the overload-plane admission policy (Cluster::build wires the
  /// cluster-wide AdmissionConfig here; default-constructed = disabled).
  void configure_admission(const AdmissionConfig& config) { admission_.configure(config); }
  const AdmissionController& admission() const { return admission_; }

  /// Warm crash recovery: RAM intact at the engine level is NOT assumed -
  /// all volatile replica state (queues, in-flight transactions, provisional
  /// writes) is discarded; committed store state and query watermarks
  /// survive. Engines without a recovery path CHECK-fail.
  virtual void crash_recover_reset() {
    OTPDB_CHECK_MSG(false, "this engine has no crash recovery path");
  }

  /// Cold restart from the durable tier: the store was rebuilt from
  /// checkpoint + WAL as exactly the committed state at `durable_floor`
  /// (possibly LOWER than before the crash - the unflushed tail died with
  /// RAM). Commits at or below it will be TO-delivered as body-less
  /// tombstones during catch-up and must be acknowledged without
  /// re-execution; everything above it is re-executed. Query snapshots start
  /// at it, since the checkpoint keeps no version only an older snapshot
  /// could read.
  virtual void restart_from_disk(TOIndex durable_floor) {
    (void)durable_floor;
    OTPDB_CHECK_MSG(false, "this engine has no durable restart path");
  }

 protected:
  /// The shared ingress gate every engine's submit path runs first, in fixed
  /// order: dead-on-arrival deadline, then abcast backpressure, then
  /// admission. Each refusal bumps exactly one counter; an admitted request
  /// bumps admitted_updates. The order matters for determinism of the
  /// counters: a request that is both expired and shed must count the same
  /// way everywhere.
  SubmitResult ingress_gate(SimTime now, SimTime deadline, std::size_t depth,
                            std::uint64_t lag, bool backpressured,
                            ReplicaMetrics& metrics) {
    if (deadline != 0 && now > deadline) {
      ++metrics.deadline_expired_presubmit;
      return SubmitResult::expired;
    }
    if (backpressured) {
      ++metrics.backpressured_updates;
      return SubmitResult::backpressure;
    }
    if (!admission_.admit(depth, lag)) {
      ++metrics.shed_updates;
      return SubmitResult::shed;
    }
    ++metrics.admitted_updates;
    return SubmitResult::admitted;
  }

  AdmissionController admission_;
};

}  // namespace otpdb
