// Per-replica metrics collected during a run.
#pragma once

#include <cstdint>

#include "util/stats.h"

namespace otpdb {

struct ReplicaMetrics {
  // Update-transaction path.
  std::uint64_t submitted_updates = 0;  ///< client requests accepted at this site
  std::uint64_t committed = 0;          ///< transactions committed at this site
  std::uint64_t aborts = 0;             ///< CC8 undo events (wrongly ordered head)
  std::uint64_t reexecutions = 0;       ///< submissions beyond a txn's first
  std::uint64_t mismatch_reorders = 0;  ///< CC10 moved a transaction (conflicting mismatch)

  // Overload plane (ingress gate + deadline budgets). The gate counters are
  // origin-site-local; the queue-drop counter is replicated (every site makes
  // the same drop decision from the definitive order, so it is equal at all
  // sites for the same run).
  std::uint64_t admitted_updates = 0;          ///< submissions past the ingress gate
  std::uint64_t shed_updates = 0;              ///< refused by admission control
  std::uint64_t backpressured_updates = 0;     ///< refused by abcast sender cap
  std::uint64_t deadline_expired_presubmit = 0;  ///< dead on arrival at submit
  std::uint64_t deadline_skips_opt = 0;   ///< optimistic execution skipped (expired at opt-deliver)
  std::uint64_t deadline_expired_queue = 0;  ///< dropped at queue head by the virtual service clock

  /// Client-visible commit latency at the origin site (submit -> local commit).
  OnlineStats commit_latency_ns;
  /// Same samples, kept exactly for tail percentiles (p95/p99 in the benches).
  PercentileTracker commit_latency_percentiles_ns;
  /// Gap between local execution completion and commit (waiting for TO-deliver);
  /// ~0 means the ordering latency was fully hidden behind execution.
  OnlineStats commit_wait_ns;
  /// Gap between Opt-deliver and TO-deliver per transaction (the optimistic window).
  OnlineStats opt_to_gap_ns;

  // Query path (Section 5).
  std::uint64_t queries_started = 0;
  std::uint64_t queries_done = 0;
  std::uint64_t queries_dropped = 0;  ///< unanswered when the site crashed (died with RAM)
  std::uint64_t query_retries = 0;  ///< re-runs because a snapshot version was in flight
  OnlineStats query_latency_ns;

  /// Queries accepted here and neither answered nor dropped yet.
  std::uint64_t queries_in_flight() const {
    return queries_started - queries_done - queries_dropped;
  }
};

}  // namespace otpdb
