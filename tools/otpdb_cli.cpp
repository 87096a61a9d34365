// otpdb_cli - run configurable replicated-database experiments from the
// command line, without writing any C++.
//
// Subcommands:
//   run        generic read-modify-write workload on a chosen engine
//   tpcc       the TPC-C-lite order-entry mix with conservation audit
//   spontorder the Figure-1 spontaneous-order measurement
//
// Examples:
//   otpdb_cli run --engine=otp --sites=4 --classes=8 --rate=200 --seconds=3
//   otpdb_cli run --engine=lazy --classes=1 --hiccup=0.2
//   otpdb_cli tpcc --warehouses=8 --sites=4 --skew=0.8
//   otpdb_cli spontorder --interval-ms=2
//
// Every run is deterministic for a given --seed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "abcast/opt_abcast.h"
#include "baseline/conservative_replica.h"
#include "baseline/lazy_replica.h"
#include "checker/history.h"
#include "core/lock_table_replica.h"
#include "db/durable_store.h"
#include "net/spontaneous_order.h"
#include "net/topology.h"
#include "util/flags.h"
#include "workload/tpcc_lite.h"
#include "workload/workload.h"

using namespace otpdb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: otpdb_cli <run|tpcc|spontorder> [--flags]\n"
               "  run:        --engine=otp|conservative|lazy|locktable --sites=N\n"
               "              --classes=N --objects=N --rate=TXN/S/SITE --seconds=S\n"
               "              --exec-ms=MS --query-frac=F --skew=THETA --hiccup=P\n"
               "              --cross-frac=F --cross-span=N (multi-class updates;\n"
               "              otp/conservative engines)\n"
               "              --abcast=opt|sequencer --seed=N --crash-site=S --crash-ms=T\n"
               "              (crash recovery: otp/conservative/locktable over opt)\n"
               "              --topology=PROFILE (network shape; see below)\n"
               "              --storage=memory|durable --data-dir=PATH\n"
               "              --chaos=PROFILE (fault schedule; see below)\n"
               "              --offered-load=TXN/S/SITE (alias for --rate; overrides it)\n"
               "              --admission=on|off --deadline-ms=MS (overload plane; see below)\n"
               "  tpcc:       --warehouses=N --sites=N --rate=TXN/S/SITE --seconds=S\n"
               "              --skew=THETA --remote-frac=F --seed=N\n"
               "              --topology=PROFILE --storage=memory|durable --data-dir=PATH\n"
               "              --chaos=PROFILE --offered-load=TXN/S/SITE\n"
               "              --admission=on|off --deadline-ms=MS\n"
               "  spontorder: --interval-ms=MS --messages=N --sites=N --seed=N\n"
               "\n"
               "overload plane (--admission / --deadline-ms / --offered-load):\n"
               "  --admission=on    sheds new work at the origin site while its queue\n"
               "                    depth or opt->TO delivery lag is past the high-water\n"
               "                    mark (hysteresis keeps shedding until both recede)\n"
               "  --deadline-ms=MS  per-transaction budget: refused before broadcast\n"
               "                    once the budget is spent, and dropped at the queue\n"
               "                    head by the deterministic virtual-service-clock rule\n"
               "                    (every site drops the same transactions)\n"
               "  Either flag also arms the client retry loop: refused submissions\n"
               "  back off exponentially (seeded jitter) and resubmit. Runs end with\n"
               "  an 'overload plane' summary line and the usual checks.\n"
               "\n"
               "chaos profiles (--chaos):\n"
               "  %s\n"
               "  dup-heavy  20%% message duplication + 5%% bounded reordering\n"
               "             (transport dedup absorbs the copies)\n"
               "  gray-wan   slow-but-alive links into the last site + a flapping\n"
               "             edge; provokes false suspicions the failure\n"
               "             detector's hysteresis must ride out\n"
               "  asym-flap  one-way partition toward the last site plus a\n"
               "             flapping reverse edge and light duplication\n"
               "  flaky-disk injected EIO/short-write/failed-fsync storage faults\n"
               "             (requires --storage=durable) + light duplication\n"
               "  Every profile is deterministic for a given --seed; runs end\n"
               "  with the same serializability/audit checks, so a green run\n"
               "  means the stack survived the schedule.\n"
               "\n"
               "storage (--storage):\n"
               "  memory   in-memory multi-version store only (default)\n"
               "  durable  TO-ordered group-commit WAL + checkpoints per site;\n"
               "           state lives under --data-dir=PATH (one subdirectory\n"
               "           per site; default: a fresh temp dir removed on exit)\n"
               "\n"
               "topology profiles (--topology):\n"
               "  %s\n"
               "  lan (default) rides the shared-bus medium; metro/wan/geo-3dc are\n"
               "  switched (per-site-pair delay matrix, per-edge jitter streams)\n"
               "\n"
               "A flag the subcommand does not list is a usage error.\n",
               chaos_profile_list(), topology_profile_list());
  return 2;
}

/// The flags each subcommand reads; any other flag is a usage error.
constexpr std::string_view kRunFlags[] = {
    "abcast", "admission", "chaos", "classes", "crash-ms", "crash-site", "cross-frac",
    "cross-span", "data-dir", "deadline-ms", "engine", "exec-ms", "hiccup", "objects",
    "offered-load", "query-frac", "rate", "seconds", "seed", "sites", "skew", "storage",
    "topology"};
constexpr std::string_view kTpccFlags[] = {
    "admission", "chaos", "data-dir", "deadline-ms", "offered-load", "rate", "remote-frac",
    "seconds", "seed", "sites", "skew", "storage", "topology", "warehouses"};
constexpr std::string_view kSpontorderFlags[] = {"interval-ms", "messages", "seed", "sites"};

/// False (after one stderr line naming it) when `flags` holds a flag outside
/// `known`.
bool only_known_flags(const Flags& flags, const char* cmd,
                      std::span<const std::string_view> known) {
  for (const std::string& key : flags.keys()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "unknown --%s (not a flag of otpdb_cli %s)\n", key.c_str(), cmd);
      return false;
    }
  }
  return true;
}

/// Reads a count flag that must be at least 1, naming it on stderr when not.
bool positive_count(const Flags& flags, const char* key, std::int64_t fallback,
                    std::int64_t& out) {
  out = flags.get_int(key, fallback);
  if (out >= 1) return true;
  std::fprintf(stderr, "unknown --%s=%lld (must be at least 1)\n", key,
               static_cast<long long>(out));
  return false;
}

/// Reads a duration flag in milliseconds, which must not be negative.
bool millis_flag(const Flags& flags, const char* key, double fallback, SimTime& out) {
  const double ms = flags.get_double(key, fallback);
  if (!(ms >= 0.0)) {
    std::fprintf(stderr, "unknown --%s=%g (must not be negative)\n", key, ms);
    return false;
  }
  out = static_cast<SimTime>(ms * 1e6);
  return true;
}

/// Reads the client arrival rate (--offered-load overrides --rate), which must
/// be positive.
bool arrival_rate(const Flags& flags, double fallback, double& out) {
  const char* key = flags.has("offered-load") ? "offered-load" : "rate";
  out = flags.get_double(key, fallback);
  if (out > 0.0) return true;
  std::fprintf(stderr, "unknown --%s=%g (must be positive)\n", key, out);
  return false;
}

/// Parses --sites into `config`: 1 to ConsensusHost::kMaxSites sites.
bool apply_sites_flag(const Flags& flags, ClusterConfig& config) {
  const std::int64_t sites = flags.get_int("sites", 4);
  if (sites < 1 || sites > static_cast<std::int64_t>(ConsensusHost::kMaxSites)) {
    std::fprintf(stderr, "unknown --sites=%lld (1-%zu)\n", static_cast<long long>(sites),
                 ConsensusHost::kMaxSites);
    return false;
  }
  config.n_sites = static_cast<std::size_t>(sites);
  return true;
}

/// Parses --topology into `config`, exiting with usage() on an unknown name.
bool apply_topology_flag(const Flags& flags, ClusterConfig& config) {
  const std::string name = flags.get("topology", "lan");
  const auto profile = parse_topology_profile(name);
  if (!profile) {
    std::fprintf(stderr, "unknown --topology=%s (profiles: %s)\n", name.c_str(),
                 topology_profile_list());
    return false;
  }
  config.net.topology = *profile;
  return true;
}

/// Parses --abcast into `config.abcast`.
bool apply_abcast_flag(const Flags& flags, ClusterConfig& config) {
  const std::string abcast = flags.get("abcast", "opt");
  if (abcast == "sequencer") {
    config.abcast = AbcastKind::sequencer;
  } else if (abcast != "opt") {
    std::fprintf(stderr, "unknown --abcast=%s (opt|sequencer)\n", abcast.c_str());
    return false;
  }
  return true;
}

/// Parses --storage / --data-dir into `config.storage`.
bool apply_storage_flags(const Flags& flags, ClusterConfig& config) {
  const std::string backend = flags.get("storage", "memory");
  if (backend == "durable") {
    config.storage.backend = StorageBackendKind::durable;
  } else if (backend != "memory") {
    std::fprintf(stderr, "unknown --storage=%s (memory|durable)\n", backend.c_str());
    return false;
  }
  config.storage.data_dir = flags.get("data-dir", "");
  if (!config.storage.data_dir.empty() &&
      config.storage.backend != StorageBackendKind::durable) {
    std::fprintf(stderr, "--data-dir requires --storage=durable\n");
    return false;
  }
  return true;
}

/// Parses --chaos into `config` (network plan + storage faults). Called after
/// storage flags (flaky-disk needs the durable backend) with the run's
/// duration so profiles can scale their schedules.
bool apply_chaos_flag(const Flags& flags, ClusterConfig& config, SimTime duration) {
  const std::string name = flags.get("chaos", "");
  if (name.empty()) return true;
  ChaosProfile profile;
  if (!parse_chaos_profile(name, config.n_sites, duration, profile)) {
    std::fprintf(stderr, "unknown --chaos=%s (profiles: %s)\n", name.c_str(),
                 chaos_profile_list());
    return false;
  }
  config.chaos = profile.net;
  if (profile.flaky_disk) {
    if (config.storage.backend != StorageBackendKind::durable) {
      std::fprintf(stderr, "--chaos=%s injects storage faults; add --storage=durable\n",
                   name.c_str());
      return false;
    }
    config.storage.faults.enabled = true;
    config.storage.faults.seed = config.seed;
    config.storage.faults.write_error_prob = 0.02;
    config.storage.faults.torn_write_prob = 0.01;
    config.storage.faults.fsync_error_prob = 0.02;
  }
  return true;
}

/// Parses --admission into `config.admission` (default thresholds; on|off).
bool apply_admission_flag(const Flags& flags, ClusterConfig& config) {
  const std::string admission = flags.get("admission", "off");
  if (admission == "on") {
    config.admission.enabled = true;
  } else if (admission != "off") {
    std::fprintf(stderr, "unknown --admission=%s (on|off)\n", admission.c_str());
    return false;
  }
  return true;
}

/// One line of overload-plane accounting: what the ingress gates did, what
/// the clients did about it, and how many admitted transactions still missed
/// their deadline. Silent when the plane never engaged (default runs keep
/// their exact pre-overload output).
void print_overload_summary(Cluster& cluster, std::uint64_t retried, std::uint64_t gave_up) {
  std::uint64_t admitted = 0, shed = 0, backpressured = 0, presubmit = 0, queue_drops = 0;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    admitted += m.admitted_updates;
    shed += m.shed_updates;
    backpressured += m.backpressured_updates;
    presubmit += m.deadline_expired_presubmit;
    // Queue-head drops are decided in definitive order, so every live site
    // counts the same set - take the max rather than a misleading sum.
    queue_drops = std::max(queue_drops, m.deadline_expired_queue);
  }
  if (!cluster.config().admission.enabled &&
      shed + backpressured + presubmit + queue_drops + retried + gave_up == 0) {
    return;
  }
  std::printf("  overload plane     : %llu admitted, %llu shed, %llu backpressured, "
              "%llu retried (%llu gave up), expired %llu presubmit / %llu in queue\n",
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(backpressured),
              static_cast<unsigned long long>(retried),
              static_cast<unsigned long long>(gave_up),
              static_cast<unsigned long long>(presubmit),
              static_cast<unsigned long long>(queue_drops));
}

/// One line of injected-fault accounting + how the stack absorbed it.
void print_chaos_summary(Cluster& cluster) {
  if (!cluster.net().chaos_armed() && !cluster.config().storage.faults.enabled) return;
  const ChaosStats cs = cluster.chaos_stats();
  const FailureDetectorStats fd = cluster.fd_stats();
  std::printf("  chaos plane        : %llu dups (%llu suppressed), %llu reorders, "
              "%llu gray delays, %llu parked/%llu released, %llu flaps\n",
              static_cast<unsigned long long>(cs.duplicates_injected),
              static_cast<unsigned long long>(cs.duplicates_suppressed),
              static_cast<unsigned long long>(cs.reorders_injected),
              static_cast<unsigned long long>(cs.gray_delays),
              static_cast<unsigned long long>(cs.deliveries_parked),
              static_cast<unsigned long long>(cs.parked_released),
              static_cast<unsigned long long>(cs.flap_transitions));
  std::printf("  suspicion churn    : %llu suspicions, %llu restored\n",
              static_cast<unsigned long long>(fd.suspicions),
              static_cast<unsigned long long>(fd.restores));
  if (cluster.config().storage.faults.enabled) {
    std::uint64_t injected = 0, io_errors = 0, io_retries = 0, sealed = 0;
    int degraded = 0, failed = 0;
    for (SiteId s = 0; s < cluster.site_count(); ++s) {
      if (const IoFaultStats* f = cluster.storage(s).io_fault_stats()) injected += f->injected();
      if (const WalStats* w = cluster.wal_stats(s)) {
        io_errors += w->io_errors;
        io_retries += w->io_retries;
        sealed += w->segments_sealed_on_error;
      }
      const StorageHealth h = cluster.storage(s).health();
      degraded += h == StorageHealth::degraded;
      failed += h == StorageHealth::failed;
    }
    std::printf("  storage faults     : %llu injected -> %llu errors seen, %llu retries, "
                "%llu segments sealed; health: %d degraded, %d failed\n",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(io_errors),
                static_cast<unsigned long long>(io_retries),
                static_cast<unsigned long long>(sealed), degraded, failed);
  }
}

ReplicaFactory make_factory(const std::string& engine) {
  if (engine == "conservative") {
    return [](const ReplicaDeps& d) {
      return std::make_unique<ConservativeReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                                   d.registry, d.site);
    };
  }
  if (engine == "lazy") {
    return [](const ReplicaDeps& d) {
      return std::make_unique<LazyReplica>(d.sim, d.net, d.storage, d.catalog, d.registry,
                                           d.site);
    };
  }
  if (engine == "locktable") {
    return [](const ReplicaDeps& d) {
      return std::make_unique<LockTableReplica>(d.sim, d.abcast, d.storage, d.catalog,
                                                d.registry, d.site,
                                                rmw_access_extractor(d.catalog));
    };
  }
  return nullptr;  // otp default
}

void print_cluster_summary(Cluster& cluster, double seconds, bool lazy_engine) {
  std::uint64_t committed = 0, aborts = 0, redo = 0, reorders = 0;
  OnlineStats latency, gap, query_latency;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    committed += m.committed;
    aborts += m.aborts;
    redo += m.reexecutions;
    reorders += m.mismatch_reorders;
    latency.merge(m.commit_latency_ns);
    gap.merge(m.opt_to_gap_ns);
    query_latency.merge(m.query_latency_ns);
  }
  const double goodput =
      lazy_engine ? static_cast<double>(committed) / seconds
                  : static_cast<double>(committed) /
                        static_cast<double>(cluster.site_count()) / seconds;
  std::printf("  goodput            : %.1f txn/s (cluster-wide)\n", goodput);
  std::printf("  commit latency     : mean %.2f ms, max %.2f ms\n", latency.mean() / 1e6,
              latency.max() / 1e6);
  if (gap.count() > 0) {
    std::printf("  opt->TO gap        : mean %.2f ms\n", gap.mean() / 1e6);
  }
  std::printf("  optimistic aborts  : %llu (re-executions %llu, reorders %llu)\n",
              static_cast<unsigned long long>(aborts), static_cast<unsigned long long>(redo),
              static_cast<unsigned long long>(reorders));
  if (query_latency.count() > 0) {
    std::printf("  query latency      : mean %.2f ms over %zu queries\n",
                query_latency.mean() / 1e6, query_latency.count());
  }
  if (auto* opt = dynamic_cast<OptAbcast*>(&cluster.abcast(0))) {
    const auto& cs = opt->consensus_stats();
    if (cs.instances_decided > 0) {
      std::printf("  ordering fast path : %.1f%% of %llu stages\n",
                  100.0 * static_cast<double>(cs.fast_decides) /
                      static_cast<double>(cs.instances_decided),
                  static_cast<unsigned long long>(cs.instances_decided));
    }
  }
  if (cluster.wal_stats(0) != nullptr) {
    std::uint64_t logged = 0, fsyncs = 0, bytes = 0, checkpoints = 0;
    for (SiteId s = 0; s < cluster.site_count(); ++s) {
      const WalStats& w = *cluster.wal_stats(s);
      logged += w.commits_logged;
      fsyncs += w.fsyncs;
      bytes += w.wal_bytes;
      checkpoints += w.checkpoints;
    }
    std::printf("  durable storage    : %llu commits over %llu fsyncs "
                "(%.1f commits/fsync), %.1f KiB WAL, %llu checkpoints\n",
                static_cast<unsigned long long>(logged),
                static_cast<unsigned long long>(fsyncs),
                fsyncs > 0 ? static_cast<double>(logged) / static_cast<double>(fsyncs) : 0.0,
                static_cast<double>(bytes) / 1024.0,
                static_cast<unsigned long long>(checkpoints));
  }
}

int cmd_run(const Flags& flags) {
  if (!only_known_flags(flags, "run", kRunFlags)) return usage();
  const std::string engine = flags.get("engine", "otp");
  if (engine != "otp" && engine != "conservative" && engine != "lazy" && engine != "locktable") {
    std::fprintf(stderr, "unknown --engine=%s (otp|conservative|lazy|locktable)\n",
                 engine.c_str());
    return usage();
  }
  ClusterConfig config;
  if (!apply_sites_flag(flags, config)) return usage();
  if (!apply_abcast_flag(flags, config)) return usage();
  const std::int64_t crash_site = flags.get_int("crash-site", -1);
  if (crash_site >= 0) {
    // Recovery needs a class-queue engine over the optimistic broadcast.
    const char* why = nullptr;
    if (engine == "lazy") {
      why = "for --engine=lazy (no crash recovery path)";
    } else if (config.abcast == AbcastKind::sequencer) {
      why = "for --abcast=sequencer (no crash recovery path)";
    } else if (crash_site >= static_cast<std::int64_t>(config.n_sites)) {
      why = "(no such site)";
    }
    if (why != nullptr) {
      std::fprintf(stderr, "unknown --crash-site=%lld %s\n", static_cast<long long>(crash_site),
                   why);
      return usage();
    }
  }
  SimTime crash_at = 0;
  if (crash_site >= 0 && !millis_flag(flags, "crash-ms", 500.0, crash_at)) return usage();
  std::int64_t classes = 0, objects = 0;
  if (!positive_count(flags, "classes", 8, classes)) return usage();
  if (!positive_count(flags, "objects", 32, objects)) return usage();
  config.n_classes = static_cast<std::size_t>(classes);
  config.objects_per_class = static_cast<std::uint64_t>(objects);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  config.net.hiccup_prob = flags.get_double("hiccup", config.net.hiccup_prob);
  const SimTime duration = static_cast<SimTime>(flags.get_double("seconds", 2.0) * 1e9);
  if (!apply_topology_flag(flags, config)) return usage();
  if (!apply_storage_flags(flags, config)) return usage();
  if (!apply_chaos_flag(flags, config, duration)) return usage();
  if (!apply_admission_flag(flags, config)) return usage();

  WorkloadConfig wl;
  if (!arrival_rate(flags, 100.0, wl.updates_per_second_per_site)) return usage();
  if (!millis_flag(flags, "exec-ms", 3.0, wl.mean_exec_time)) return usage();
  wl.cross_class_fraction = flags.get_double("cross-frac", 0.0);
  if (wl.cross_class_fraction > 0.0 && config.n_classes > 1 &&
      (engine == "lazy" || engine == "locktable")) {
    std::fprintf(stderr,
                 "unknown --cross-frac=%g for --engine=%s (multi-class updates need the "
                 "otp or conservative engine)\n",
                 wl.cross_class_fraction, engine.c_str());
    return usage();
  }

  ReplicaFactory factory = make_factory(engine);
  auto cluster = factory ? std::make_unique<Cluster>(config, std::move(factory))
                         : std::make_unique<Cluster>(config);
  HistoryRecorder recorder(*cluster);

  wl.query_fraction = flags.get_double("query-frac", 0.0);
  wl.class_skew_theta = flags.get_double("skew", 0.0);
  wl.cross_class_span = static_cast<std::size_t>(flags.get_int("cross-span", 2));
  wl.duration = duration;
  wl.deadline_budget = static_cast<SimTime>(flags.get_double("deadline-ms", 0.0) * 1e6);
  // Either overload knob arms the client retry loop (refusals back off and
  // resubmit instead of being dropped on the floor).
  if (config.admission.enabled || wl.deadline_budget != 0) wl.max_retries = 8;
  WorkloadDriver driver(*cluster, wl, config.seed * 7 + 3);
  driver.start();

  if (crash_site >= 0) {
    cluster->sim().schedule_at(crash_at, [&cluster, crash_site] {
      cluster->crash_site(static_cast<SiteId>(crash_site));
      std::printf("  !! crashed site %lld\n", static_cast<long long>(crash_site));
    });
    const SimTime recover_at = crash_at + 300 * kMillisecond;
    cluster->sim().schedule_at(recover_at, [&cluster, crash_site] {
      cluster->recover_site(static_cast<SiteId>(crash_site));
      std::printf("  !! recovered site %lld\n", static_cast<long long>(crash_site));
    });
  }

  cluster->run_for(wl.duration);
  const bool drained = cluster->quiesce(120 * kSecond);
  cluster->run_for(kSecond);

  std::printf("run: engine=%s sites=%zu classes=%zu rate=%.0f/s/site seed=%llu\n",
              engine.c_str(), config.n_sites, config.n_classes,
              wl.updates_per_second_per_site,
              static_cast<unsigned long long>(config.seed));
  std::printf("  submitted          : %llu updates, %llu queries%s\n",
              static_cast<unsigned long long>(driver.updates_submitted()),
              static_cast<unsigned long long>(driver.queries_submitted()),
              drained ? "" : "  (WARNING: did not drain)");
  const double seconds = static_cast<double>(cluster->sim().now()) / 1e9;
  print_cluster_summary(*cluster, seconds, engine == "lazy");
  print_overload_summary(*cluster, driver.retries(), driver.gave_up());
  print_chaos_summary(*cluster);

  const auto check = engine == "locktable"
                         ? check_object_level_serializability(recorder.site_logs())
                         : check_one_copy_serializability(recorder.site_logs());
  std::printf("  serializability    : %s\n", check.ok() ? "1-copy-serializable" : "VIOLATED");
  if (!check.ok()) std::printf("%s\n", check.summary().c_str());
  // The lazy engine's lost updates are the expected counterexample, not a
  // failure of the run.
  return drained && (check.ok() || engine == "lazy") ? 0 : 1;
}

int cmd_tpcc(const Flags& flags) {
  if (!only_known_flags(flags, "tpcc", kTpccFlags)) return usage();
  ClusterConfig config;
  if (!apply_sites_flag(flags, config)) return usage();
  std::int64_t warehouses = 0;
  if (!positive_count(flags, "warehouses", 8, warehouses)) return usage();
  config.n_classes = static_cast<std::size_t>(warehouses);
  tpcc::Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  tpcc::MixConfig mix;
  if (!arrival_rate(flags, 120.0, mix.txn_per_second_per_site)) return usage();
  const SimTime duration = static_cast<SimTime>(flags.get_double("seconds", 2.0) * 1e9);
  if (!apply_topology_flag(flags, config)) return usage();
  if (!apply_storage_flags(flags, config)) return usage();
  if (!apply_chaos_flag(flags, config, duration)) return usage();
  if (!apply_admission_flag(flags, config)) return usage();
  Cluster cluster(config);

  mix.duration = duration;
  mix.warehouse_skew_theta = flags.get_double("skew", 0.0);
  mix.remote_txn_fraction = flags.get_double("remote-frac", 0.0);
  mix.deadline_budget = static_cast<SimTime>(flags.get_double("deadline-ms", 0.0) * 1e6);
  if (config.admission.enabled || mix.deadline_budget != 0) mix.max_retries = 8;
  tpcc::TpccDriver driver(cluster, layout, mix, config.seed + 41);
  driver.start();
  cluster.run_for(mix.duration);
  const bool drained = cluster.quiesce(120 * kSecond);

  const auto& stats = driver.stats();
  std::printf("tpcc: %zu warehouses, %zu sites, %.0f txn/s/site%s\n", config.n_classes,
              config.n_sites, mix.txn_per_second_per_site,
              drained ? "" : "  (WARNING: did not drain)");
  std::printf("  mix submitted      : %llu NewOrder / %llu Payment / %llu Delivery / "
              "%llu StockLevel\n",
              static_cast<unsigned long long>(stats.new_orders),
              static_cast<unsigned long long>(stats.payments),
              static_cast<unsigned long long>(stats.deliveries),
              static_cast<unsigned long long>(stats.stock_level_queries));
  print_cluster_summary(cluster, static_cast<double>(cluster.sim().now()) / 1e9, false);
  print_overload_summary(cluster, stats.retries, stats.gave_up);
  print_chaos_summary(cluster);
  bool clean = true;
  for (SiteId s = 0; s < cluster.site_count(); ++s) clean &= driver.audit(s).empty();
  std::printf("  conservation audit : %s\n", clean ? "clean at every site" : "VIOLATED");
  return drained && clean ? 0 : 1;
}

int cmd_spontorder(const Flags& flags) {
  if (!only_known_flags(flags, "spontorder", kSpontorderFlags)) return usage();
  struct Blank final : Payload {};
  std::int64_t n_sites = 0;
  if (!positive_count(flags, "sites", 4, n_sites)) return usage();
  const auto sites = static_cast<std::size_t>(n_sites);
  const int per_site = static_cast<int>(flags.get_int("messages", 400));
  const double interval_ms = flags.get_double("interval-ms", 2.0);
  const SimTime interval = interval_ms <= 0.0
                               ? static_cast<SimTime>(sites) * 100 * kMicrosecond
                               : static_cast<SimTime>(interval_ms * 1e6);
  Simulator sim;
  Network net(sim, sites, NetConfig{}, Rng(static_cast<std::uint64_t>(flags.get_int("seed", 1))));
  for (SiteId s = 0; s < sites; ++s) net.subscribe(s, 0, [](const Message&) {});
  net.record_arrivals(0);
  for (SiteId s = 0; s < sites; ++s) {
    const SimTime phase = static_cast<SimTime>(s) * interval / static_cast<SimTime>(sites);
    for (int i = 0; i < per_site; ++i) {
      sim.schedule_at(phase + static_cast<SimTime>(i) * interval,
                      [&net, s] { net.multicast(s, 0, std::make_shared<Blank>()); });
    }
  }
  sim.run();
  const auto stats = analyze_spontaneous_order(net.arrival_logs());
  std::printf("spontorder: %zu sites, %d msgs/site, interval %.2f ms\n", sites, per_site,
              interval_ms);
  std::printf("  spontaneously ordered (pair agreement) : %.2f%%\n",
              100.0 * stats.pair_agreement());
  std::printf("  identical arrival rank at all sites    : %.2f%%\n",
              100.0 * stats.position_agreement());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Flags flags(argc - 1, argv + 1);
  if (cmd == "run") return cmd_run(flags);
  if (cmd == "tpcc") return cmd_tpcc(flags);
  if (cmd == "spontorder") return cmd_spontorder(flags);
  return usage();
}
