// The site-sharded engine (sim/sharded_engine.h) against the classic loop.
//
// Each shard fires its events under the plain Simulator's (timestamp,
// schedule-order) rule, and staged cross-site deliveries enter a receiver's
// queue in a canonical sender order. On a fault-free run that reproduces the
// classic single-queue loop exactly, so this suite runs every fault-free leg
// under both drivers and requires identical commit histories (every field,
// including commit timestamps and write values), final stores, delivery and
// event counts, metric counters (latency-mean bit patterns included) and
// sizes of the tables the ordering layer trims below the stable floor - over
// both class-queue engines, the durable backend, mixed workloads (queries,
// cross-class updates, TPC-C-lite with remote transactions) and every
// switched topology profile with message loss.
//
// Partition and crash transitions are hub control events, which the sharded
// engine applies at round boundaries, so those legs differ from the classic
// loop; they run twice under the sharded engine and must repeat bit for bit,
// barrier rounds included. Only switched topologies shard, so every sharded
// scenario runs on one (metro unless it sweeps profiles); a shared-bus (lan)
// cluster must run the classic loop whatever its parallelism settings say.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "abcast/opt_abcast.h"
#include "baseline/conservative_replica.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "core/otp_replica.h"
#include "db/durable_store.h"
#include "net/topology.h"
#include "workload/tpcc_lite.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

// -- digesting ---------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t digest_value(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return static_cast<std::uint64_t>(*i);
  const double d = std::get<double>(v);
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Every field of every commit record, per site: sensitive to ordering,
/// timing, class sets, and written values alike.
std::vector<std::uint64_t> history_digests(const HistoryRecorder& recorder) {
  std::vector<std::uint64_t> out;
  for (const auto& log : recorder.site_logs()) {
    Fnv f;
    for (const CommitRecord& r : log) {
      f.add(r.txn.sender);
      f.add(r.txn.seq);
      f.add(r.proc);
      f.add(r.klass);
      for (ClassId c : r.classes) f.add(c);
      f.add(r.index);
      f.add(static_cast<std::uint64_t>(r.at));
      for (const auto& [obj, value] : r.writes) {
        f.add(obj);
        f.add(digest_value(value));
      }
    }
    out.push_back(f.h);
  }
  return out;
}

std::uint64_t store_digest(Cluster& cluster) {
  Fnv f;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    for (ObjectId obj = 0; obj < cluster.catalog().object_count(); ++obj) {
      const auto v = cluster.store(s).read_latest(obj);
      f.add(v ? digest_value(*v) : 0xdeadull);
    }
  }
  return f.h;
}

struct RunResult {
  std::vector<std::uint64_t> history;  // per-site commit-history digests
  std::uint64_t stores = 0;
  std::uint64_t delivered = 0;
  bool sharded = false;                 // the sharded engine drove the run
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;             // barrier rounds (EngineStats::rounds)
  std::vector<std::uint64_t> counters;  // per-site metric counters, flattened
  /// Per site: the trimmed tables' sizes and the below-floor drop counter.
  std::vector<std::uint64_t> retained;
  bool serializable = false;
  bool converged = false;
  std::uint64_t committed = 0;
};

/// Which driver ran, and its event and round counts.
void collect_driver(Cluster& cluster, RunResult& out) {
  const ShardedEngine* engine = cluster.engine();
  out.sharded = engine != nullptr;
  out.events = engine ? engine->executed() : cluster.sim().executed();
  out.rounds = engine ? engine->stats().rounds : 0;
}

void collect_metrics(Cluster& cluster, RunResult& out) {
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    if (const auto* abcast = dynamic_cast<const OptAbcast*>(&cluster.abcast(s))) {
      const OptAbcast::Retained r = abcast->retained();
      for (std::uint64_t v : {r.msg_slots, r.detached, r.log_stages, r.instances}) {
        out.retained.push_back(v);
      }
      out.retained.push_back(abcast->stats().below_floor_dropped);
    }
    if (const auto* otp = dynamic_cast<const OtpReplica*>(&cluster.replica(s))) {
      out.retained.push_back(otp->queries().history_entries());
    }
  }
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    for (std::uint64_t v :
         {m.submitted_updates, m.committed, m.aborts, m.reexecutions, m.mismatch_reorders,
          m.queries_started, m.queries_done, m.query_retries}) {
      out.counters.push_back(v);
    }
    // Latency statistics are doubles accumulated in site-local event order,
    // so even their bit patterns must agree between drivers.
    out.counters.push_back(static_cast<std::uint64_t>(m.commit_latency_ns.count()));
    double mean = m.commit_latency_ns.mean();
    std::uint64_t bits;
    __builtin_memcpy(&bits, &mean, sizeof(bits));
    out.counters.push_back(bits);
  }
}

ParallelismConfig sharded() {
  ParallelismConfig p;
  p.force_sharded = true;
  return p;
}

// -- scenarios ---------------------------------------------------------------

enum class EngineKind { otp, conservative };

/// Mixed rmw + cross-class + query workload with message loss, one
/// partition/heal cycle, and (OTP only) a crash/recovery cycle - warm with
/// the memory backend, kill-and-restart-from-disk with the durable one.
RunResult run_mixed(EngineKind engine, ParallelismConfig parallel, bool chaos,
                    bool durable = false) {
  ClusterConfig config;
  config.n_sites = 5;
  config.n_classes = 8;
  config.seed = 77;
  config.parallel = parallel;
  config.net.topology = TopologyProfile::metro;
  config.net.loss_prob = chaos ? 0.01 : 0.0;
  if (durable) config.storage.backend = StorageBackendKind::durable;
  auto cluster = engine == EngineKind::conservative
                     ? std::make_unique<Cluster>(config,
                                                 [](const ReplicaDeps& d) {
                                                   return std::make_unique<ConservativeReplica>(
                                                       d.sim, d.abcast, d.storage, d.catalog,
                                                       d.registry, d.site);
                                                 })
                     : std::make_unique<Cluster>(config);
  HistoryRecorder recorder(*cluster);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 80;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.query_fraction = 0.15;
  wl.cross_class_fraction = 0.2;
  wl.duration = 900 * kMillisecond;
  WorkloadDriver driver(*cluster, wl, 4242);
  driver.start();

  if (chaos) {
    // Chaos is network/control state: schedule it on the hub clock.
    cluster->sim().schedule_at(250 * kMillisecond, [&cluster] {
      cluster->net().partition({0, 1}, {2, 3, 4});
    });
    cluster->sim().schedule_at(450 * kMillisecond,
                               [&cluster] { cluster->net().heal_partition(); });
    if (engine == EngineKind::otp) {
      cluster->sim().schedule_at(550 * kMillisecond, [&cluster] { cluster->crash_site(4); });
      cluster->sim().schedule_at(700 * kMillisecond, [&cluster, durable] {
        if (durable) {
          cluster->restart_site_from_disk(4);
        } else {
          cluster->recover_site(4);
        }
      });
    }
  }

  cluster->run_for(wl.duration + 200 * kMillisecond);
  EXPECT_TRUE(cluster->quiesce(60 * kSecond));

  RunResult out;
  out.history = history_digests(recorder);
  out.stores = store_digest(*cluster);
  out.delivered = cluster->net().delivered_count();
  collect_driver(*cluster, out);
  EXPECT_EQ(out.sharded, parallel.force_sharded) << "metro shards when asked to";
  out.committed = cluster->total_committed();
  collect_metrics(*cluster, out);
  if (durable) {
    // Durability counters must match too: group-commit scheduling rides on
    // deterministic sim events, not wall-clock I/O.
    for (SiteId s = 0; s < cluster->site_count(); ++s) {
      const WalStats* w = cluster->wal_stats(s);
      for (std::uint64_t v : {w->commits_logged, w->fsyncs, w->wal_bytes, w->checkpoints,
                              w->segments_truncated, w->replayed_commits,
                              w->checkpoint_restores}) {
        out.counters.push_back(v);
      }
    }
  }
  if (durable && chaos) {
    // A kill-and-restart loses the unflushed group-commit tail, and replay
    // legitimately RE-commits those indices at the restarted site - its raw
    // log holds two entries for them (pre-crash and replayed). Check the
    // checker's invariant on the effective history: the last occurrence of
    // each definitive index per site.
    std::vector<std::vector<CommitRecord>> logs = recorder.site_logs();
    for (auto& log : logs) {
      std::unordered_map<TOIndex, std::size_t> last;
      for (std::size_t i = 0; i < log.size(); ++i) last[log[i].index] = i;
      std::vector<CommitRecord> dedup;
      dedup.reserve(log.size());
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (last[log[i].index] == i) dedup.push_back(log[i]);
      }
      log = std::move(dedup);
    }
    out.serializable = check_one_copy_serializability(logs).ok();
  } else {
    out.serializable = check_one_copy_serializability(recorder.site_logs()).ok();
  }
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster->site_count(); ++s) stores.push_back(&cluster->store(s));
  out.converged = compare_final_states(stores, cluster->catalog()).ok();
  return out;
}

RunResult run_tpcc(ParallelismConfig parallel) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 6;
  tpcc::Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = 1999;
  config.parallel = parallel;
  config.net.topology = TopologyProfile::metro;
  auto cluster = std::make_unique<Cluster>(config);
  HistoryRecorder recorder(*cluster);

  tpcc::MixConfig mix;
  mix.txn_per_second_per_site = 100;
  mix.duration = 800 * kMillisecond;
  mix.warehouse_skew_theta = 0.4;
  mix.remote_txn_fraction = 0.1;
  tpcc::TpccDriver driver(*cluster, layout, mix, 2026);
  driver.start();
  cluster->run_for(mix.duration);
  EXPECT_TRUE(cluster->quiesce(60 * kSecond));

  RunResult out;
  out.history = history_digests(recorder);
  out.stores = store_digest(*cluster);
  out.delivered = cluster->net().delivered_count();
  collect_driver(*cluster, out);
  EXPECT_EQ(out.sharded, parallel.force_sharded) << "metro shards when asked to";
  out.committed = cluster->total_committed();
  collect_metrics(*cluster, out);
  out.serializable = check_one_copy_serializability(recorder.site_logs()).ok();
  for (SiteId s = 0; s < cluster->site_count(); ++s) {
    EXPECT_TRUE(driver.audit(s).empty()) << "site " << s << " audit violated";
  }
  out.converged = true;
  return out;
}

/// Everything a run produced except which driver produced it.
void expect_same_run(const RunResult& a, const RunResult& b, const char* legs) {
  EXPECT_EQ(a.history, b.history) << "commit histories diverge: " << legs;
  EXPECT_EQ(a.stores, b.stores) << "final states diverge: " << legs;
  EXPECT_EQ(a.delivered, b.delivered) << "deliveries diverge: " << legs;
  EXPECT_EQ(a.events, b.events) << "event counts diverge: " << legs;
  EXPECT_EQ(a.counters, b.counters) << "metrics diverge: " << legs;
  EXPECT_EQ(a.retained, b.retained) << "trimmed table sizes diverge: " << legs;
  EXPECT_EQ(a.committed, b.committed) << "commit counts diverge: " << legs;
}

/// Runs a fault-free leg under the classic loop and the sharded engine,
/// requires the two to agree bit for bit, and returns the classic run.
template <typename Run>
RunResult expect_classic_matches_sharded(Run run) {
  const RunResult classic = run(ParallelismConfig{});
  const RunResult sharded_run = run(sharded());
  EXPECT_FALSE(classic.sharded);
  EXPECT_TRUE(sharded_run.sharded);
  expect_same_run(classic, sharded_run, "classic loop vs sharded engine");
  return classic;
}

/// Runs a leg twice under the sharded engine, requires the two runs to agree
/// bit for bit (rounds included), and returns the first.
template <typename Run>
RunResult expect_sharded_repeats(Run run) {
  const RunResult first = run(sharded());
  const RunResult second = run(sharded());
  EXPECT_TRUE(first.sharded);
  expect_same_run(first, second, "two sharded runs");
  EXPECT_EQ(first.rounds, second.rounds) << "rounds diverge between two sharded runs";
  return first;
}

void expect_healthy(const RunResult& run) {
  EXPECT_TRUE(run.serializable);
  EXPECT_TRUE(run.converged);
  EXPECT_GT(run.committed, 0u);
}

TEST(ParallelParity, OtpMixedWorkload) {
  expect_healthy(expect_classic_matches_sharded(
      [](ParallelismConfig p) { return run_mixed(EngineKind::otp, p, /*chaos=*/false); }));
}

TEST(ParallelParity, ConservativeMixedWorkload) {
  expect_healthy(expect_classic_matches_sharded([](ParallelismConfig p) {
    return run_mixed(EngineKind::conservative, p, /*chaos=*/false);
  }));
}

TEST(ParallelParity, OtpLossPartitionCrashChaos) {
  expect_healthy(expect_sharded_repeats(
      [](ParallelismConfig p) { return run_mixed(EngineKind::otp, p, /*chaos=*/true); }));
}

TEST(ParallelParity, ConservativeMixedWorkloadWithChaos) {
  expect_healthy(expect_sharded_repeats([](ParallelismConfig p) {
    return run_mixed(EngineKind::conservative, p, /*chaos=*/true);
  }));
}

TEST(ParallelParity, DurableStorageParity) {
  // Group-commit WAL + fsync modeling keep the bit-for-bit contract:
  // digests AND durability counters identical under both drivers.
  expect_healthy(expect_classic_matches_sharded([](ParallelismConfig p) {
    return run_mixed(EngineKind::otp, p, /*chaos=*/false, /*durable=*/true);
  }));
}

TEST(ParallelParity, DurableRestartFromDiskChaosParity) {
  // The chaos leg swaps the warm recovery for a kill-and-restart-from-disk:
  // real WAL replay inside sim events, still repeatable bit for bit.
  expect_healthy(expect_sharded_repeats([](ParallelismConfig p) {
    return run_mixed(EngineKind::otp, p, /*chaos=*/true, /*durable=*/true);
  }));
}

TEST(ParallelParity, MemoryBackendDigestsUnchangedByStorageTier) {
  // The refactor's no-regression pin: a memory-backend run must be bitwise
  // the run it was before the storage tier existed (the same digests on
  // every run, and the backend reports no WAL).
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 4;
  config.seed = 5;
  Cluster cluster(config);
  EXPECT_EQ(cluster.wal_stats(0), nullptr);
  expect_sharded_repeats(
      [](ParallelismConfig p) { return run_mixed(EngineKind::otp, p, false, false); });
}

TEST(ParallelParity, TpccRemoteMix) {
  const RunResult classic = expect_classic_matches_sharded(run_tpcc);
  EXPECT_TRUE(classic.serializable);
  EXPECT_GT(classic.committed, 0u);
}

// -- topology sweeps ---------------------------------------------------------
//
// Every switched topology profile must uphold the same contract: one
// fault-free (profile, seed) configuration is bit-for-bit identical under
// both drivers, message loss included. The profiles differ in their
// lookahead structure (uniform sub-millisecond edges on metro, a 500us/40ms
// split on wan, a latency triangle on geo-3dc), which drives the channel
// clocks, per-edge rng streams and double-buffered staging cells through
// different round shapes. Each profile gets its own TEST name, so a failure
// names its profile.

/// Cluster tuned for a topology: the wide-area profiles (40ms+ RTTs) need the
/// protocol timers rescaled, or retransmission/failure-detector false
/// positives swamp the run with noise that has nothing to do with parity.
ClusterConfig topology_config(TopologyProfile profile, ParallelismConfig parallel) {
  ClusterConfig config;
  config.n_sites = 5;
  config.n_classes = 8;
  config.seed = 77;
  config.parallel = parallel;
  config.net.topology = profile;
  config.net.loss_prob = 0.005;
  if (profile == TopologyProfile::wan || profile == TopologyProfile::geo_3dc) {
    config.opt.batch_delay = 10 * kMillisecond;
    config.opt.alignment_window = 8 * kMillisecond;
    config.opt.consensus.fast_wait = 150 * kMillisecond;
    config.opt.consensus.round_timeout = 500 * kMillisecond;
    config.fd.interval = 50 * kMillisecond;
    config.fd.suspect_timeout = 500 * kMillisecond;
  }
  return config;
}

RunResult run_topology(TopologyProfile profile, ParallelismConfig parallel) {
  auto cluster = std::make_unique<Cluster>(topology_config(profile, parallel));
  HistoryRecorder recorder(*cluster);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 50;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.query_fraction = 0.15;
  wl.cross_class_fraction = 0.2;
  wl.duration = 600 * kMillisecond;
  WorkloadDriver driver(*cluster, wl, 4242);
  driver.start();
  cluster->run_for(wl.duration + 400 * kMillisecond);
  EXPECT_TRUE(cluster->quiesce(120 * kSecond));

  RunResult out;
  out.history = history_digests(recorder);
  out.stores = store_digest(*cluster);
  out.delivered = cluster->net().delivered_count();
  collect_driver(*cluster, out);
  out.committed = cluster->total_committed();
  collect_metrics(*cluster, out);
  out.serializable = check_one_copy_serializability(recorder.site_logs()).ok();
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster->site_count(); ++s) stores.push_back(&cluster->store(s));
  out.converged = compare_final_states(stores, cluster->catalog()).ok();
  return out;
}

void sweep_topology(TopologyProfile profile) {
  expect_healthy(expect_classic_matches_sharded(
      [profile](ParallelismConfig p) { return run_topology(profile, p); }));
}

TEST(ParallelParity, TopologyMetroParity) { sweep_topology(TopologyProfile::metro); }
TEST(ParallelParity, TopologyWanParity) { sweep_topology(TopologyProfile::wan); }
TEST(ParallelParity, TopologyGeo3dcParity) { sweep_topology(TopologyProfile::geo_3dc); }

/// A shared bus serializes every frame through one global clock, so it
/// leaves the sharded engine no lookahead gap: a lan cluster runs the classic
/// loop even when force_sharded asks for the engine, and reproduces the
/// default run bit for bit - histories, stores, metrics and event counts.
TEST(ParallelParity, SharedBusRunsTheClassicLoop) {
  const RunResult base = run_topology(TopologyProfile::lan, ParallelismConfig{});
  EXPECT_FALSE(base.sharded);
  expect_healthy(base);
  const RunResult forced = run_topology(TopologyProfile::lan, sharded());
  EXPECT_FALSE(forced.sharded) << "lan built a sharded engine";
  expect_same_run(base, forced, "lan with and without force_sharded");
}

// -- CLI output stability ----------------------------------------------------
//
// The CLI is the one surface where internal state becomes human-visible
// bytes, so it gets its own determinism leg: --help and a full run summary
// must be byte-identical across repeat invocations (pins the Flags sorted
// keys() contract - values_ is an unordered_map - and catches any future
// hash-order drift in summary formatting).

#ifdef OTPDB_CLI_PATH
std::string run_cli(const std::string& args, int* exit_code) {
  const std::string cmd = std::string(OTPDB_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  *exit_code = pclose(pipe);
  return out;
}

TEST(ParallelParity, CliHelpByteIdenticalAcrossRuns) {
  int code_a = 0, code_b = 0;
  const std::string a = run_cli("--help", &code_a);
  const std::string b = run_cli("--help", &code_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(code_a, code_b);
  EXPECT_EQ(a, b) << "usage/help output drifted between identical invocations";
}

TEST(ParallelParity, CliRunSummaryByteIdenticalAcrossRuns) {
  const std::string lan =
      "run --engine=otp --sites=3 --classes=4 --objects=64 --rate=100 "
      "--seconds=1 --seed=7";
  for (const std::string& args : {lan, lan + " --topology=metro"}) {
    int code_a = 0, code_b = 0;
    const std::string a = run_cli(args, &code_a);
    const std::string b = run_cli(args, &code_b);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(code_a, 0) << a;
    EXPECT_EQ(code_a, code_b);
    EXPECT_EQ(a, b) << "run summary drifted between identical invocations: " << args;
  }
}

TEST(ParallelParity, CliRejectsUnknownEngineAndAbcast) {
  // A misspelt choice fails with the valid choices, usage and exit code 2,
  // like --topology/--storage/--admission - it must not run the default. So
  // do a flag the subcommand does not read (--threads included: the
  // simulator runs on one thread), a cluster larger than consensus supports,
  // and every input the cluster would otherwise abort on: a crash without a
  // recovery path, at a negative time or on a site that does not exist,
  // multi-class updates on an engine that cannot commit them, an empty
  // catalog, no arrivals, negative execution times, and a network without
  // sites.
  for (const char* args : {"run --engine=optt --seconds=0.1", "run --abcast=seqencer --seconds=0.1",
                           "run --sites=65 --seconds=0.1",
                           "run --engine=lazy --crash-site=1 --seconds=0.1",
                           "run --threads=2 --seconds=0.1", "tpcc --threads=2 --seconds=0.1",
                           "run --bogus=1 --seconds=0.1",
                           "run --engine=lazy --cross-frac=0.3 --seconds=0.1",
                           "run --engine=locktable --cross-frac=0.3 --seconds=0.1",
                           "run --abcast=sequencer --crash-site=1 --seconds=0.1",
                           "run --crash-site=9 --seconds=0.1", "run --classes=0 --seconds=0.1",
                           "run --objects=0 --seconds=0.1", "tpcc --warehouses=0 --seconds=0.1",
                           "run --rate=0 --seconds=0.1", "tpcc --rate=0 --seconds=0.1",
                           "run --exec-ms=-1 --seconds=0.1",
                           "run --crash-site=1 --crash-ms=-5 --seconds=0.1",
                           "spontorder --sites=0"}) {
    int status = 0;
    const std::string out = run_cli(args, &status);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args << "\n" << out;
    EXPECT_EQ(out.rfind("unknown --", 0), 0u) << args << "\n" << out;
    EXPECT_NE(out.find("usage: otpdb_cli"), std::string::npos) << out;
    for (const char* summary : {"run: engine=", "conservation audit :", "spontaneously ordered"}) {
      EXPECT_EQ(out.find(summary), std::string::npos) << "ran anyway:\n" << out;
    }
  }
}
#else
TEST(ParallelParity, CliHelpByteIdenticalAcrossRuns) {
  GTEST_SKIP() << "otpdb_cli not built alongside the test binary";
}
#endif

}  // namespace
}  // namespace otpdb
