// Soak: 100 simulated seconds of steady load with a crash every ten seconds,
// on both storage backends - warm crash/recovery on memory, crash and cold
// restart from disk on the WAL. Every table the ordering layer trims below
// the cluster's stable floor is sampled once per simulated second (its
// largest size over the sites): the message slots of OptAbcast, its decision
// log, the consensus instances and the query engine's TO-delivery history.
// Each must plateau: the largest sample of the last third of the run stays
// within 1.2x of the largest sample of the first third, whose crash episodes
// are the same. Without trimming every one of them grows with run length.
//
// Clients move off a site shortly before it crashes, but each crash still
// catches one broadcast in flight. The network drops it everywhere, so it is
// lost for good, and each site keeps its sequence number among the detached
// keys; at the end no site may hold more detached keys than were lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "abcast/opt_abcast.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "core/otp_replica.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

constexpr std::size_t kSites = 4;
constexpr SimTime kRun = 100 * kSecond;
constexpr SimTime kEpisode = 10 * kSecond;         // one crash per episode
constexpr SimTime kCrashAt = 4800 * kMillisecond;  // into the episode
constexpr SimTime kDowntime = 500 * kMillisecond;  // the sample at 5 s falls inside it
constexpr SimTime kFailoverLead = 50 * kMillisecond;
constexpr SimTime kInFlight = 20 * kMicrosecond;  // before the crash; below any link delay
constexpr double kUpdatesPerSiteS = 100;
constexpr double kQueryShare = 0.1;

enum Table { kSlots, kLog, kInstances, kHistory, kTables };
constexpr std::array<const char*, kTables> kTableNames = {
    "message slots", "decision log", "consensus instances", "query history"};
using Sample = std::array<std::size_t, kTables>;

/// Open-loop clients: one Poisson stream per site. While a site is down (and
/// shortly before it goes down) its clients submit to the next live site, so
/// no request is lost with its acceptor.
class SoakClients {
 public:
  SoakClients(Cluster& cluster, std::uint64_t seed)
      : cluster_(cluster), rng_(seed), down_(kSites, false) {
    proc_ = register_rmw_procedure(cluster.procedures(), cluster.catalog());
  }

  void start() {
    for (SiteId s = 0; s < kSites; ++s) schedule(s);
  }
  void set_down(SiteId site, bool down) { down_[site] = down; }
  void submit_update(SiteId site) {
    const auto klass = static_cast<ClassId>(rng_.uniform_int(0, 7));
    TxnArgs args;
    args.ints = {1, static_cast<std::int64_t>(rng_.uniform_int(0, 15))};
    const SubmitResult result =
        cluster_.replica(site).submit_update(proc_, klass, std::move(args), 2 * kMillisecond);
    if (result == SubmitResult::admitted) ++updates_;
  }
  std::uint64_t updates() const { return updates_; }

 private:
  void schedule(SiteId home) {
    const auto gap = static_cast<SimTime>(
        rng_.exponential(static_cast<double>(kSecond) / kUpdatesPerSiteS));
    if (cluster_.sim().now() + gap >= kRun) return;
    cluster_.sim().schedule_after(gap, [this, home] {
      SiteId site = home;
      while (down_[site]) site = (site + 1) % kSites;
      if (rng_.bernoulli(kQueryShare)) {
        const auto klass = static_cast<ClassId>(rng_.uniform_int(0, 7));
        const ObjectId obj = cluster_.catalog().object(klass, 0);
        cluster_.replica(site).submit_query(
            [obj](QueryContext& ctx) { (void)ctx.read_int(obj); }, 2 * kMillisecond,
            [](const QueryReport&) {});
      } else {
        submit_update(site);
      }
      schedule(home);
    });
  }

  Cluster& cluster_;
  Rng rng_;
  std::vector<bool> down_;
  ProcId proc_ = 0;
  std::uint64_t updates_ = 0;  // admitted
};

Sample sample_tables(Cluster& cluster) {
  Sample out{};
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const auto& abcast = dynamic_cast<const OptAbcast&>(cluster.abcast(s));
    const OptAbcast::Retained r = abcast.retained();
    const auto& replica = dynamic_cast<const OtpReplica&>(cluster.replica(s));
    const Sample site = {r.msg_slots + r.detached, r.log_stages, r.instances,
                         replica.queries().history_entries()};
    for (std::size_t t = 0; t < kTables; ++t) out[t] = std::max(out[t], site[t]);
  }
  return out;
}

void run_soak(bool durable) {
  ClusterConfig config;
  config.n_sites = kSites;
  config.n_classes = 8;
  config.objects_per_class = 16;
  config.seed = 17;
  if (durable) {
    config.storage.backend = StorageBackendKind::durable;
    // Fewer, larger group commits: the run is long and fsyncs are real.
    config.storage.flush_window = 20 * kMillisecond;
    config.storage.checkpoint_interval = 5 * kSecond;
  }
  Cluster cluster(config);
  SoakClients clients(cluster, 99);
  clients.start();

  for (SimTime episode = 0; episode < kRun; episode += kEpisode) {
    const auto victim = static_cast<SiteId>(1 + (episode / kEpisode) % (kSites - 1));
    const SimTime crash_at = episode + kCrashAt;
    cluster.sim().schedule_at(crash_at - kFailoverLead,
                              [&clients, victim] { clients.set_down(victim, true); });
    cluster.sim().schedule_at(crash_at - kInFlight,
                              [&clients, victim] { clients.submit_update(victim); });
    cluster.sim().schedule_at(crash_at, [&cluster, victim] { cluster.crash_site(victim); });
    cluster.sim().schedule_at(crash_at + kDowntime, [&cluster, &clients, victim, durable] {
      if (durable) {
        cluster.restart_site_from_disk(victim);
      } else {
        cluster.recover_site(victim);
      }
      clients.set_down(victim, false);
    });
  }
  std::vector<Sample> samples;
  for (SimTime t = kSecond; t <= kRun; t += kSecond) {
    cluster.sim().schedule_at(t, [&cluster, &samples] {
      samples.push_back(sample_tables(cluster));
    });
  }
  cluster.run_for(kRun);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));
  cluster.run_for(kSecond);

  ASSERT_EQ(samples.size(), 100u);
  const std::size_t third = samples.size() / 3;
  for (std::size_t t = 0; t < kTables; ++t) {
    std::size_t first = 0, last = 0;
    for (std::size_t i = 0; i < third; ++i) first = std::max(first, samples[i][t]);
    for (std::size_t i = samples.size() - third; i < samples.size(); ++i) {
      last = std::max(last, samples[i][t]);
    }
    EXPECT_GT(first, 0u) << kTableNames[t];
    EXPECT_LE(static_cast<double>(last), 1.2 * static_cast<double>(first))
        << kTableNames[t] << " kept growing: max " << first << " in the first third, " << last
        << " in the last";
  }
  EXPECT_GT(cluster.total_committed(), 100'000u);
  // Site 0 never crashes: it committed every update that was not lost.
  const std::uint64_t lost = clients.updates() - cluster.replica(0).metrics().committed;
  EXPECT_GT(lost, 0u);
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    EXPECT_LE(dynamic_cast<const OptAbcast&>(cluster.abcast(s)).retained().detached, lost)
        << "site " << s;
  }
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster.site_count(); ++s) stores.push_back(&cluster.store(s));
  const CheckResult convergence = compare_final_states(stores, cluster.catalog());
  EXPECT_TRUE(convergence.ok()) << convergence.summary();
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    EXPECT_FALSE(dynamic_cast<OptAbcast&>(cluster.abcast(s)).recovering()) << "site " << s;
  }
}

TEST(Soak, MemoryBackendWarmRecoveryPlateaus) { run_soak(/*durable=*/false); }

TEST(Soak, WalBackendColdRestartPlateaus) { run_soak(/*durable=*/true); }

}  // namespace
}  // namespace otpdb
