#include "checker/invariant_monitor.h"

#include <algorithm>
#include <utility>

namespace otpdb {

InvariantMonitor::InvariantMonitor(Cluster& cluster, Config config)
    : cluster_(cluster), config_(config), recorder_(cluster) {
  high_floor_.assign(cluster_.site_count(), 0);
  // Sampling runs as hub control events, between the sharded engine's site
  // phases, so every site's durable floor is read at a round boundary (same
  // model as crash/partition state).
  cluster_.sim().schedule_after(config_.sample_interval, [this] { sample(); });
}

void InvariantMonitor::sample() {
  observe();
  cluster_.sim().schedule_after(config_.sample_interval, [this] { sample(); });
}

void InvariantMonitor::observe() {
  ++samples_;
  for (SiteId s = 0; s < cluster_.site_count(); ++s) {
    if (cluster_.wal_stats(s) == nullptr) continue;  // no durable tier
    const TOIndex floor = cluster_.storage(s).durable_floor();
    if (floor < high_floor_[s]) {
      online_violations_.push_back("site " + std::to_string(s) + ": durable floor regressed " +
                                   std::to_string(high_floor_[s]) + " -> " +
                                   std::to_string(floor));
    }
    high_floor_[s] = std::max(high_floor_[s], floor);
  }
}

CheckResult InvariantMonitor::finish() {
  observe();  // one final durable-floor observation at the end state

  CheckResult result;
  result.violations = online_violations_;

  const CheckResult serializability = check_one_copy_serializability(
      config_.dedup_replayed_commits ? last_commit_per_index(recorder_.site_logs())
                                     : recorder_.site_logs());
  result.violations.insert(result.violations.end(), serializability.violations.begin(),
                           serializability.violations.end());

  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster_.site_count(); ++s) stores.push_back(&cluster_.store(s));
  const CheckResult convergence = compare_final_states(stores, cluster_.catalog());
  result.violations.insert(result.violations.end(), convergence.violations.begin(),
                           convergence.violations.end());

  if (audit_) {
    for (SiteId s = 0; s < cluster_.site_count(); ++s) {
      for (const std::string& v : audit_(s)) {
        result.violations.push_back("site " + std::to_string(s) + " audit: " + v);
      }
    }
  }
  return result;
}

}  // namespace otpdb
