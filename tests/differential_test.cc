// Differential oracle: the OTP engine and the conservative baseline reach the
// same outcome.
//
// Both engines see the same broadcast traffic (a replica sends nothing of its
// own), hence the same definitive order, and a deadline drop is a function of
// that order alone. Optimism may only change *when* a transaction runs, never
// *what* commits: at every site both engines must commit the same
// transactions in the same per-class order, drop the same number, and leave
// the same latest value in every object. The sweep (24 configurations) spans
// single- and multi-class updates, deadline budgets and two levels of network
// jitter, and is checked to make OTP abort and reorder, so the agreement is
// not vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/conservative_replica.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

struct Scenario {
  std::uint64_t seed;
  double cross_class_fraction;
  SimTime deadline_budget;
  double hiccup_prob;

  std::string name() const {
    std::ostringstream os;
    os << "seed " << seed << " cross " << cross_class_fraction << " deadline "
       << deadline_budget / kMillisecond << "ms hiccup " << hiccup_prob;
    return os.str();
  }
};

/// One committed transaction as a class queue sees it.
using Entry = std::pair<MsgId, TOIndex>;

struct Outcome {
  /// Per site, per class: the commits in commit order.
  std::vector<std::vector<std::vector<Entry>>> class_orders;
  std::vector<std::uint64_t> dropped;  ///< per site: deadline_expired_queue
  /// Per site, per object: the latest committed value.
  std::vector<std::vector<std::optional<Value>>> latest;
  std::uint64_t aborts = 0;
  std::uint64_t reorders = 0;
};

/// "" when the sequences are equal, else where they first differ (keeps a
/// failure message short: the sequences hold thousands of entries).
template <typename T>
std::string divergence(const std::vector<T>& a, const std::vector<T>& b) {
  if (a == b) return "";
  const auto first = std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first;
  return "differ at position " + std::to_string(first - a.begin()) + " of " +
         std::to_string(a.size()) + " vs " + std::to_string(b.size());
}

std::unique_ptr<ReplicaBase> make_conservative(const ReplicaDeps& d) {
  return std::make_unique<ConservativeReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                               d.registry, d.site);
}

Outcome run(const Scenario& sc, bool conservative) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  config.seed = sc.seed;
  config.net.hiccup_prob = sc.hiccup_prob;
  auto cluster = conservative ? std::make_unique<Cluster>(config, make_conservative)
                              : std::make_unique<Cluster>(config);
  HistoryRecorder recorder(*cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 200;
  wl.query_fraction = 0.1;
  wl.cross_class_fraction = sc.cross_class_fraction;
  wl.deadline_budget = sc.deadline_budget;
  wl.duration = 2 * kSecond;
  WorkloadDriver driver(*cluster, wl, sc.seed * 7 + 3);
  driver.start();
  cluster->run_for(wl.duration);
  EXPECT_TRUE(cluster->quiesce(120 * kSecond)) << sc.name();

  Outcome out;
  for (const auto& log : recorder.site_logs()) {
    auto& orders = out.class_orders.emplace_back(config.n_classes);
    for (const CommitRecord& r : log) {
      if (r.classes.empty()) {
        orders[r.klass].emplace_back(r.txn, r.index);
      } else {
        for (ClassId c : r.classes) orders[c].emplace_back(r.txn, r.index);
      }
    }
  }
  for (SiteId s = 0; s < cluster->site_count(); ++s) {
    const ReplicaMetrics& m = cluster->replica(s).metrics();
    out.dropped.push_back(m.deadline_expired_queue);
    out.aborts += m.aborts;
    out.reorders += m.mismatch_reorders;
    auto& values = out.latest.emplace_back();
    for (ObjectId obj = 0; obj < cluster->catalog().object_count(); ++obj) {
      values.push_back(cluster->store(s).read_latest(obj));
    }
  }
  return out;
}

TEST(Differential, OtpAndConservativeReachTheSameOutcome) {
  std::uint64_t otp_aborts = 0;
  std::uint64_t otp_reorders = 0;
  std::uint64_t drops = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (double cross : {0.0, 0.3}) {
      for (SimTime budget : {SimTime{0}, 25 * kMillisecond}) {
        for (double hiccup : {0.06, 0.3}) {
          const Scenario sc{seed, cross, budget, hiccup};
          const Outcome otp = run(sc, /*conservative=*/false);
          const Outcome cons = run(sc, /*conservative=*/true);
          otp_aborts += otp.aborts;
          otp_reorders += otp.reorders;
          EXPECT_EQ(cons.aborts, 0u) << sc.name();
          EXPECT_EQ(cons.reorders, 0u) << sc.name();
          ASSERT_EQ(otp.class_orders.size(), cons.class_orders.size());
          for (std::size_t s = 0; s < otp.class_orders.size(); ++s) {
            for (std::size_t c = 0; c < otp.class_orders[s].size(); ++c) {
              EXPECT_EQ(divergence(otp.class_orders[s][c], cons.class_orders[s][c]), "")
                  << sc.name() << ": site " << s << " class " << c;
            }
            EXPECT_EQ(otp.dropped[s], cons.dropped[s]) << sc.name() << ": site " << s;
            drops += otp.dropped[s];
            EXPECT_EQ(divergence(otp.latest[s], cons.latest[s]), "")
                << sc.name() << ": site " << s;
            EXPECT_EQ(divergence(otp.latest[s], otp.latest[0]), "")
                << sc.name() << ": site " << s;
          }
        }
      }
    }
  }
  // The agreement must be earned: OTP executed in a wrong tentative order,
  // undid it and reordered somewhere in the sweep, and deadlines dropped work.
  EXPECT_GT(otp_aborts, 0u);
  EXPECT_GT(otp_reorders, 0u);
  EXPECT_GT(drops, 0u);
}

}  // namespace
}  // namespace otpdb
