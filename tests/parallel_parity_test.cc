// Determinism parity for the site-sharded engine (sim/sharded_engine.h).
//
// The engine's contract: a sharded run of one (configuration, seed) is
// bit-for-bit identical for EVERY thread count, because each shard fires its
// events under the plain Simulator's (timestamp, schedule-order) rule and
// every cross-shard insertion is drained from per-edge staging cells in a
// canonical sender order that no worker schedule can perturb. This suite
// pins that: identical commit histories (every field, including commit
// timestamps and write values), identical checker verdicts, identical metric
// counters and identical sizes of the tables the ordering layer trims below
// the stable floor across sharded runs with 1, 2, 4 and 8 threads - over both
// class-queue engines, mixed workloads (queries, cross-class updates,
// TPC-C-lite with remote transactions), and loss/partition/crash chaos.
// Only switched topologies shard, so every sharded scenario runs on one
// (metro unless it sweeps profiles); a shared-bus (lan) cluster must run the
// classic loop whatever its parallelism settings say.
//
// This binary is the payload of the CI TSan job: any data race in the
// barrier/staging protocol fails it under -fsanitize=thread.
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

/// Which driver ran, and its event and barrier-round counts.
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
    // so even their bit patterns must agree across thread counts.
    out.counters.push_back(static_cast<std::uint64_t>(m.commit_latency_ns.count()));
    double mean = m.commit_latency_ns.mean();
    std::uint64_t bits;
    __builtin_memcpy(&bits, &mean, sizeof(bits));
    out.counters.push_back(bits);
  }
}

ParallelismConfig sharded(unsigned threads) {
  ParallelismConfig p;
  p.threads = threads;
  p.force_sharded = true;  // threads == 1 still runs the sharded engine
  return p;
}

// -- scenarios ---------------------------------------------------------------

enum class EngineKind { otp, conservative };

/// Mixed rmw + cross-class + query workload with message loss, one
/// partition/heal cycle, and (OTP only) a crash/recovery cycle - warm with
/// the memory backend, kill-and-restart-from-disk with the durable one.
RunResult run_mixed(EngineKind engine, unsigned threads, bool chaos, bool durable = false) {
  ClusterConfig config;
  config.n_sites = 5;
  config.n_classes = 8;
  config.seed = 77;
  config.parallel = sharded(threads);
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
  EXPECT_TRUE(out.sharded) << "metro must run the sharded engine";
  out.committed = cluster->total_committed();
  collect_metrics(*cluster, out);
  if (durable) {
    // Durability counters must be thread-count invariant too: group-commit
    // scheduling rides on deterministic sim events, not wall-clock I/O.
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

RunResult run_tpcc(unsigned threads) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 6;
  tpcc::Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = 1999;
  config.parallel = sharded(threads);
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
  EXPECT_TRUE(out.sharded) << "metro must run the sharded engine";
  out.committed = cluster->total_committed();
  collect_metrics(*cluster, out);
  out.serializable = check_one_copy_serializability(recorder.site_logs()).ok();
  for (SiteId s = 0; s < cluster->site_count(); ++s) {
    EXPECT_TRUE(driver.audit(s).empty()) << "site " << s << " audit violated";
  }
  out.converged = true;
  return out;
}

void expect_equal(const RunResult& base, const RunResult& other, unsigned threads) {
  EXPECT_EQ(base.history, other.history) << "commit histories diverge at threads=" << threads;
  EXPECT_EQ(base.stores, other.stores) << "final states diverge at threads=" << threads;
  EXPECT_EQ(base.delivered, other.delivered) << "deliveries diverge at threads=" << threads;
  EXPECT_EQ(base.sharded, other.sharded) << "drivers differ at threads=" << threads;
  EXPECT_EQ(base.events, other.events) << "event counts diverge at threads=" << threads;
  EXPECT_EQ(base.rounds, other.rounds) << "barrier rounds diverge at threads=" << threads;
  EXPECT_EQ(base.counters, other.counters) << "metrics diverge at threads=" << threads;
  EXPECT_EQ(base.retained, other.retained)
      << "trimmed table sizes diverge at threads=" << threads;
  EXPECT_EQ(base.committed, other.committed);
}

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

TEST(ParallelParity, OtpMixedWorkload) {
  const RunResult base = run_mixed(EngineKind::otp, 1, /*chaos=*/false);
  EXPECT_TRUE(base.serializable);
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.committed, 0u);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_equal(base, run_mixed(EngineKind::otp, threads, false), threads);
  }
}

TEST(ParallelParity, OtpLossPartitionCrashChaos) {
  const RunResult base = run_mixed(EngineKind::otp, 1, /*chaos=*/true);
  EXPECT_TRUE(base.serializable);
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.committed, 0u);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_equal(base, run_mixed(EngineKind::otp, threads, true), threads);
  }
}

TEST(ParallelParity, ConservativeMixedWorkloadWithChaos) {
  const RunResult base = run_mixed(EngineKind::conservative, 1, /*chaos=*/true);
  EXPECT_TRUE(base.serializable);
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.committed, 0u);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_equal(base, run_mixed(EngineKind::conservative, threads, true), threads);
  }
}

TEST(ParallelParity, DurableStorageParity) {
  // Group-commit WAL + fsync modeling must keep the bit-for-bit contract:
  // digests AND durability counters identical across {1, 2, 4, 8} threads.
  const RunResult base = run_mixed(EngineKind::otp, 1, /*chaos=*/false, /*durable=*/true);
  EXPECT_TRUE(base.serializable);
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.committed, 0u);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_equal(base, run_mixed(EngineKind::otp, threads, false, true), threads);
  }
}

TEST(ParallelParity, DurableRestartFromDiskChaosParity) {
  // The chaos leg swaps the warm recovery for a kill-and-restart-from-disk:
  // real WAL replay inside sim events, still thread-count invariant.
  const RunResult base = run_mixed(EngineKind::otp, 1, /*chaos=*/true, /*durable=*/true);
  EXPECT_TRUE(base.serializable);
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.committed, 0u);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_equal(base, run_mixed(EngineKind::otp, threads, true, true), threads);
  }
}

TEST(ParallelParity, MemoryBackendDigestsUnchangedByStorageTier) {
  // The refactor's no-regression pin: a memory-backend run must be bitwise
  // the run it was before the storage tier existed (same digests across
  // thread counts, and the backend reports no WAL).
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 4;
  config.seed = 5;
  Cluster cluster(config);
  EXPECT_EQ(cluster.wal_stats(0), nullptr);
  const RunResult a = run_mixed(EngineKind::otp, 2, false, false);
  const RunResult b = run_mixed(EngineKind::otp, 2, false, false);
  expect_equal(a, b, 2);
}

TEST(ParallelParity, TpccRemoteMix) {
  const RunResult base = run_tpcc(1);
  EXPECT_TRUE(base.serializable);
  EXPECT_GT(base.committed, 0u);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_equal(base, run_tpcc(threads), threads);
  }
}

// -- topology sweeps ---------------------------------------------------------
//
// Every switched topology profile must uphold the same contract: one
// (profile, seed) configuration is bit-for-bit identical at every thread
// count. The profiles differ in their lookahead structure (uniform
// sub-millisecond edges on metro, a 500us/40ms split on wan, a latency
// triangle on geo-3dc), which drives the channel clocks, per-edge rng
// streams and double-buffered staging cells through different round shapes.
// Each profile gets its own TEST name, so a failure names its profile.

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
  const RunResult base = run_topology(profile, sharded(1));
  EXPECT_TRUE(base.sharded) << topology_profile_name(profile) << " must shard";
  EXPECT_TRUE(base.serializable);
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.committed, 0u);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_equal(base, run_topology(profile, sharded(threads)), threads);
  }
}

TEST(ParallelParity, TopologyMetroParity) { sweep_topology(TopologyProfile::metro); }
TEST(ParallelParity, TopologyWanParity) { sweep_topology(TopologyProfile::wan); }
TEST(ParallelParity, TopologyGeo3dcParity) { sweep_topology(TopologyProfile::geo_3dc); }

/// A shared bus serializes every frame through one global clock, so it
/// leaves the sharded engine no lookahead gap: a lan cluster runs the classic
/// loop whatever its parallelism settings ask for, and reproduces the
/// threads = 1 run bit for bit - histories, stores, metrics and event counts.
TEST(ParallelParity, SharedBusRunsTheClassicLoop) {
  const RunResult base = run_topology(TopologyProfile::lan, ParallelismConfig{});
  EXPECT_FALSE(base.sharded);
  EXPECT_TRUE(base.serializable);
  EXPECT_TRUE(base.converged);
  EXPECT_GT(base.committed, 0u);
  ParallelismConfig four_threads;
  four_threads.threads = 4;
  ParallelismConfig forced;
  forced.force_sharded = true;
  for (const ParallelismConfig& parallel : {four_threads, forced}) {
    const RunResult run = run_topology(TopologyProfile::lan, parallel);
    EXPECT_FALSE(run.sharded) << "lan built a sharded engine";
    expect_equal(base, run, parallel.threads);
  }
}

/// The classic single-queue loop (threads=1 default) is a different -
/// also deterministic - schedule: not bitwise comparable to sharded runs
/// (global same-timestamp ties across shards have no global order there),
/// but it must satisfy the same logical invariants on the same workload, and
/// both modes must see the identical offered client load (the per-site
/// submission streams depend only on site-local clocks and rngs). Both legs
/// run on metro, where threads = 2 does shard.
TEST(ParallelParity, ClassicLoopInvariantsAndOfferedLoadUnchanged) {
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 80;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.query_fraction = 0.15;
  wl.cross_class_fraction = 0.2;
  wl.duration = 900 * kMillisecond;

  auto run_mode = [&wl](ParallelismConfig parallel, std::uint64_t* updates,
                        std::uint64_t* queries) {
    ClusterConfig config;
    config.n_sites = 5;
    config.n_classes = 8;
    config.seed = 77;
    config.parallel = parallel;
    config.net.topology = TopologyProfile::metro;
    Cluster cluster(config);
    EXPECT_EQ(cluster.engine() != nullptr, parallel.threads > 1);
    HistoryRecorder recorder(cluster);
    WorkloadDriver driver(cluster, wl, 4242);
    driver.start();
    cluster.run_for(wl.duration + 200 * kMillisecond);
    EXPECT_TRUE(cluster.quiesce(60 * kSecond));
    EXPECT_TRUE(check_one_copy_serializability(recorder.site_logs()).ok());
    EXPECT_GT(cluster.total_committed(), 0u);
    *updates = driver.updates_submitted();
    *queries = driver.queries_submitted();
  };

  std::uint64_t classic_updates = 0, classic_queries = 0;
  run_mode(ParallelismConfig{}, &classic_updates, &classic_queries);
  std::uint64_t sharded_updates = 0, sharded_queries = 0;
  run_mode(sharded(2), &sharded_updates, &sharded_queries);
  EXPECT_EQ(classic_updates, sharded_updates);
  EXPECT_EQ(classic_queries, sharded_queries);
}

// -- CLI output stability ----------------------------------------------------
//
// The CLI is the one surface where internal state becomes human-visible
// bytes, so it gets its own determinism leg: --help and a full run summary
// must be byte-identical across repeat invocations (pins the Flags sorted
// keys() contract - values_ is an unordered_map - and catches any future
// hash-order drift in summary formatting), and the run summary must also be
// byte-identical across --threads values (the CLI-level face of the sharded
// engine's bit-for-bit guarantee).

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

TEST(ParallelParity, CliRunSummaryByteIdenticalAcrossRunsAndThreads) {
  const std::string lan =
      "run --engine=otp --sites=3 --classes=4 --objects=64 --rate=100 "
      "--seconds=1 --seed=7";
  const std::string base = lan + " --topology=metro";
  // Repeat-run stability holds for any thread count; cross-thread byte
  // identity is only contractual within the sharded engine (--threads >= 2).
  // The classic loop (--threads=1) is a legitimately different schedule.
  int code_a = 0, code_b = 0, code_t = 0;
  const std::string a = run_cli(base + " --threads=1", &code_a);
  const std::string b = run_cli(base + " --threads=1", &code_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(code_a, 0) << a;
  EXPECT_EQ(code_a, code_b);
  EXPECT_EQ(a, b) << "run summary drifted between identical invocations";
  const std::string t2 = run_cli(base + " --threads=2", &code_t);
  EXPECT_EQ(code_t, 0) << t2;
  const std::string t4 = run_cli(base + " --threads=4", &code_t);
  EXPECT_EQ(code_t, 0) << t4;
  EXPECT_EQ(t2, t4) << "run summary differs across sharded --threads values "
                       "(parallel-engine parity broken at the CLI surface)";
  // The default lan topology never shards: every --threads value prints the
  // classic loop's summary.
  int code_l = 0;
  const std::string l1 = run_cli(lan + " --threads=1", &code_l);
  EXPECT_EQ(code_l, 0) << l1;
  EXPECT_EQ(l1, run_cli(lan + " --threads=4", &code_l))
      << "--threads changed a lan run (shared-bus clusters run the classic loop)";
}

TEST(ParallelParity, CliRejectsUnknownEngineAndAbcast) {
  // A misspelt choice fails with the valid choices, usage and exit code 2,
  // like --topology/--storage/--admission - it must not run the default. So
  // do a cluster larger than consensus supports and a crash on the lazy
  // engine, which has no recovery path.
  for (const char* args : {"run --engine=optt --seconds=0.1", "run --abcast=seqencer --seconds=0.1",
                           "run --sites=65 --seconds=0.1",
                           "run --engine=lazy --crash-site=1 --seconds=0.1"}) {
    int status = 0;
    const std::string out = run_cli(args, &status);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args << "\n" << out;
    EXPECT_NE(out.find("unknown --"), std::string::npos) << out;
    EXPECT_NE(out.find("usage: otpdb_cli"), std::string::npos) << out;
    EXPECT_EQ(out.find("run: engine="), std::string::npos) << "ran anyway:\n" << out;
  }
}
#else
TEST(ParallelParity, CliHelpByteIdenticalAcrossRuns) {
  GTEST_SKIP() << "otpdb_cli not built alongside the test binary";
}
#endif

}  // namespace
}  // namespace otpdb
