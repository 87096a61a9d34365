// Always-on invariant monitor for chaos scenarios.
//
// Every chaos test (and the --chaos CLI runs) wraps the cluster in one of
// these: it records all commit histories, samples online invariants on the
// hub clock while faults are being injected, and runs the full correctness
// battery at the end. The point is that chaos runs never check "it didn't
// crash" - they check the paper's actual guarantees under fire:
//
//   online   - durable-floor monotonicity per site: the floor only advances
//              on a successful fsync, survives cold restarts (recovery finds
//              the floor of the last synced record again), and freezes -
//              never regresses - when the storage health ladder degrades.
//   at end   - 1-copy-serializability over the recorded histories (Theorem
//              4.2), cross-site state convergence, plus an optional
//              per-site application audit (e.g. TPC-C money conservation).
//
// Restart-from-disk runs legitimately re-commit the replayed tail, so
// `dedup_replayed_commits` collapses each site log to the last occurrence
// per definitive index before the 1CSR check.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "checker/history.h"
#include "core/cluster.h"

namespace otpdb {

class InvariantMonitor {
 public:
  struct Config {
    /// Cadence of the online durable-floor sampling (hub control events).
    SimTime sample_interval = 100 * kMillisecond;
    /// Collapse each site log to the last occurrence per TOIndex before the
    /// 1CSR check (required when the scenario cold-restarts sites).
    bool dedup_replayed_commits = false;
  };

  /// Attaches to every replica's commit hook and starts sampling. Create
  /// before submitting work (like HistoryRecorder).
  explicit InvariantMonitor(Cluster& cluster) : InvariantMonitor(cluster, Config{}) {}
  InvariantMonitor(Cluster& cluster, Config config);

  /// Per-site application audit returning violation strings (empty = clean);
  /// e.g. [&driver](SiteId s) { return driver.audit(s); }.
  void set_audit(std::function<std::vector<std::string>(SiteId)> audit) {
    audit_ = std::move(audit);
  }

  /// Runs the end-of-run battery and merges the online violations. Call
  /// after the cluster quiesced; every returned violation is a real
  /// invariant break.
  CheckResult finish();

  const HistoryRecorder& recorder() const { return recorder_; }
  std::uint64_t samples() const { return samples_; }

 private:
  void sample();   ///< observe + reschedule (hub control event)
  void observe();  ///< one durable-floor monotonicity pass over all sites

  Cluster& cluster_;
  Config config_;
  HistoryRecorder recorder_;
  std::vector<TOIndex> high_floor_;  // per site, the highest durable floor seen
  std::vector<std::string> online_violations_;
  std::uint64_t samples_ = 0;
  std::function<std::vector<std::string>(SiteId)> audit_;
};

}  // namespace otpdb
