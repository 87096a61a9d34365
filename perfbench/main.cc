// End-to-end benchmark of otpdb; perfbench/run.py builds and drives it and
// perfbench/README.md describes the workloads and metrics.
//
//   otpdb_perfbench --workload tpcc-lan|rmw-wan|durable-crash --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//
// One process runs one workload. It repeats one deterministic simulation
// (a pure function of workload and seed) until S wall seconds are spent, so
// every repetition must report identical simulated-time metrics and counts,
// and the host-time metrics are medians over repetitions. A fixed
// calibration kernel (calibration.h) runs between simulation slices; every
// host-time figure is scaled by its speed relative to the reference host.
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 alternates untraced and traced repetitions, fails if they
// simulate different runs, and prints the per-layer metrics; the spans of
// the last traced repetition are written to DIR as a Chrome trace.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is 1 when any correctness check failed.

#include "util/counting_new.h"  // this TU owns the counting global operator new

#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abcast/opt_abcast.h"
#include "calibration.h"
#include "checker/history.h"
#include "checker/invariant_monitor.h"
#include "core/cluster.h"
#include "core/otp_replica.h"
#include "db/durable_store.h"
#include "ledger.h"
#include "trace.h"
#include "workload/tpcc_lite.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace otpdb;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Mix { tpcc, rmw };

struct WorkloadSpec {
  const char* name;
  Mix mix;
  TopologyProfile topology;
  /// Site-sharded engine (sim/sharded_engine.h) instead of the classic
  /// single-queue loop. It runs with one worker: its schedule is bit-identical
  /// for every thread count, and a second worker thread made wall time depend
  /// on when the host scheduled the other vCPU (see README.md).
  bool sharded;
  bool durable;
  double updates_per_site_s;  ///< Poisson update arrivals per site
  double queries_per_site_s;  ///< Poisson snapshot-query arrivals per site
  double class_skew;          ///< rmw: Zipf theta of the (first) class
  double cross_fraction;      ///< rmw: share of updates spanning 2 classes
  SimTime duration;           ///< submission window of one repetition
  SimTime slice;              ///< simulated time between calibration points
  bool crash;                 ///< crash kCrashSite mid-run, cold-restart it later
};

constexpr std::size_t kSites = 4;
constexpr std::size_t kClasses = 16;  // warehouses (tpcc) or conflict classes (rmw)
constexpr std::uint64_t kRmwObjectsPerClass = 64;
constexpr std::size_t kOpsPerTxn = 4;
constexpr SimTime kMeanExec = 3 * kMillisecond;
constexpr SimTime kMeanQueryExec = 6 * kMillisecond;
constexpr SiteId kCrashSite = 3;
constexpr SiteId kFailoverSite = 0;
constexpr SimTime kRestartDelay = 200 * kMillisecond;
// Clients of the crashing site move to kFailoverSite this long before the
// crash, so no client request is in flight from the site when it dies.
constexpr SimTime kFailoverLead = 50 * kMillisecond;
// TPC-C-lite update mix (NewOrder/Payment/Delivery = 45/43/4); the 8%
// StockLevel share runs as the separate query stream.
constexpr double kNewOrderWeight = 0.45;
constexpr double kPaymentWeight = 0.43;
constexpr double kDeliveryWeight = 0.04;

// tpcc rates: 400 client transactions/s/site, 8% of them StockLevel queries.
const WorkloadSpec kWorkloads[] = {
    {"tpcc-lan", Mix::tpcc, TopologyProfile::lan, false, false, 368, 32, 0.0, 0.0,
     60 * kSecond, 2 * kSecond, false},
    {"rmw-wan", Mix::rmw, TopologyProfile::wan, true, false, 150, 12, 0.5, 0.2,
     120 * kSecond, 4 * kSecond, false},
    {"durable-crash", Mix::tpcc, TopologyProfile::lan, false, true, 368, 32, 0.0, 0.0,
     40 * kSecond, 2 * kSecond, true},
};

const tpcc::Layout kLayout{};

ClusterConfig make_config(const WorkloadSpec& spec, std::uint64_t seed,
                          const std::string& data_dir) {
  ClusterConfig config;
  config.n_sites = kSites;
  config.n_classes = kClasses;
  config.objects_per_class =
      spec.mix == Mix::tpcc ? kLayout.objects_per_warehouse() : kRmwObjectsPerClass;
  config.seed = seed;
  config.net.topology = spec.topology;
  if (spec.topology == TopologyProfile::wan) {
    // The WAN timer rescale of bench/bench_common.h apply_topology(): the
    // protocol timers are calibrated for LAN latencies.
    config.opt.batch_delay = 10 * kMillisecond;
    config.opt.alignment_window = 8 * kMillisecond;
    config.opt.consensus.fast_wait = 150 * kMillisecond;
    config.opt.consensus.round_timeout = 500 * kMillisecond;
    config.fd.interval = 50 * kMillisecond;
    config.fd.suspect_timeout = 500 * kMillisecond;
  }
  config.parallel.force_sharded = spec.sharded;
  if (spec.durable) {
    config.storage.backend = StorageBackendKind::durable;
    config.storage.data_dir = data_dir;
    config.storage.flush_window = 2 * kMillisecond;
    config.storage.fsync_latency = 5 * kMillisecond;
    config.storage.checkpoint_interval = 1 * kSecond;
    config.storage.segment_bytes = 1 << 20;
  }
  return config;
}

// ---------------------------------------------------------------------------
// The broadcast seam: a forwarding AtomicBroadcast between each replica and
// its real OptAbcast. It stamps the ledger and, in traced runs, records spans
// around broadcast() and the delivery callbacks the replica registers.
// ---------------------------------------------------------------------------

class ObservedAbcast final : public AtomicBroadcast {
 public:
  ObservedAbcast(AtomicBroadcast& inner, Simulator& sim, Ledger& ledger, Tracer* tracer)
      : inner_(inner), sim_(sim), site_(inner.site()), ledger_(ledger), tracer_(tracer) {}
  ObservedAbcast(const ObservedAbcast&) = delete;
  ObservedAbcast& operator=(const ObservedAbcast&) = delete;

  MsgId broadcast(PayloadPtr payload) override {
    MsgId id;
    {
      SiteSpan span(tracer_, site_, SpanKind::broadcast);
      id = inner_.broadcast(std::move(payload));
      span.set_txn(id);
    }
    ledger_.on_broadcast(site_, id);
    return id;
  }

  void set_callbacks(AbcastCallbacks callbacks) override {
    app_ = std::move(callbacks);
    // Register exactly the variants the replica registered, so the
    // broadcast's dispatch (batched or per message) is unchanged.
    AbcastCallbacks wrapped;
    if (app_.opt_deliver) {
      wrapped.opt_deliver = [this](const Message& msg) { opt_deliver(msg); };
    }
    if (app_.to_deliver) {
      wrapped.to_deliver = [this](const MsgId& id, TOIndex index) { to_deliver(id, index); };
    }
    if (app_.to_deliver_batch) {
      wrapped.to_deliver_batch = [this](std::span<const ToDelivery> burst) {
        to_deliver_batch(burst);
      };
    }
    inner_.set_callbacks(std::move(wrapped));
  }

  SiteId site() const override { return site_; }
  const AbcastStats& stats() const override { return inner_.stats(); }
  bool backpressured() const override { return inner_.backpressured(); }

 private:
  void opt_deliver(const Message& msg) {
    ledger_.on_opt(site_, msg.id, sim_.now());
    SiteSpan span(tracer_, site_, SpanKind::opt_deliver);
    span.set_txn(msg.id);
    app_.opt_deliver(msg);
  }
  void to_deliver(const MsgId& id, TOIndex index) {
    ledger_.on_to(site_, id, index, sim_.now());
    SiteSpan span(tracer_, site_, SpanKind::to_deliver);
    span.set_txn(id);
    app_.to_deliver(id, index);
  }
  void to_deliver_batch(std::span<const ToDelivery> burst) {
    for (const auto& [id, index] : burst) ledger_.on_to(site_, id, index, sim_.now());
    SiteSpan span(tracer_, site_, SpanKind::to_deliver);
    span.set_entries(burst.size());
    if (!burst.empty()) span.set_txn(burst.front().first);
    app_.to_deliver_batch(burst);
  }

  AtomicBroadcast& inner_;
  Simulator& sim_;
  SiteId site_;
  Ledger& ledger_;
  Tracer* tracer_;
  AbcastCallbacks app_;
};

// ---------------------------------------------------------------------------
// Open-loop clients: per site, one Poisson stream of updates and one of
// snapshot queries, in simulated time, each on the site's own shard.
// ---------------------------------------------------------------------------

struct ClientCounts {
  std::uint64_t updates = 0;  ///< generated update requests
  std::uint64_t queries = 0;  ///< generated queries
  std::uint64_t refused = 0;  ///< updates the ingress gate refused (clients do not retry)
};

class Clients {
 public:
  Clients(Cluster& cluster, const WorkloadSpec& spec, Ledger& ledger, Tracer* tracer,
          std::uint64_t seed)
      : cluster_(cluster), spec_(spec), ledger_(ledger), tracer_(tracer), counts_(kSites) {
    Rng master(seed);
    for (std::size_t s = 0; s < kSites; ++s) {
      update_rngs_.push_back(master.split());
      query_rngs_.push_back(master.split());
    }
  }

  /// Registers the procedures and schedules every stream's first arrival.
  void start() {
    if (spec_.mix == Mix::tpcc) {
      procs_ = tpcc::register_procedures(cluster_.procedures(), cluster_.catalog(), kLayout);
      tpcc::load_initial_state(cluster_, kLayout);
    } else {
      rmw_ = register_rmw_procedure(cluster_.procedures(), cluster_.catalog());
      rmw_cross_ = register_rmw_cross_procedure(cluster_.procedures());
    }
    horizon_ = cluster_.sim().now() + spec_.duration;
    for (SiteId s = 0; s < kSites; ++s) {
      schedule_update(s);
      if (spec_.queries_per_site_s > 0) schedule_query(s);
    }
  }

  /// Clients of `site` submit to kFailoverSite during [from, until).
  void fail_over(SiteId site, SimTime from, SimTime until) {
    OTPDB_CHECK_MSG(cluster_.engine() == nullptr,
                    "cross-site failover needs the single-queue loop");
    failover_site_ = site;
    failover_from_ = from;
    failover_until_ = until;
  }

  ClientCounts totals() const {
    ClientCounts t;
    for (const ClientCounts& c : counts_) {
      t.updates += c.updates;
      t.queries += c.queries;
      t.refused += c.refused;
    }
    return t;
  }

 private:
  SiteId target(SiteId client, SimTime now) const {
    if (client == failover_site_ && now >= failover_from_ && now < failover_until_) {
      return kFailoverSite;
    }
    return client;
  }

  void schedule_update(SiteId client) {
    Simulator& sim = cluster_.site_sim(client);
    const SimTime at = sim.now() + static_cast<SimTime>(update_rngs_[client].exponential(
                                       static_cast<double>(kSecond) / spec_.updates_per_site_s));
    if (at > horizon_) return;
    sim.schedule_at(at, [this, client] {
      submit_update(client);
      schedule_update(client);
    });
  }

  void schedule_query(SiteId client) {
    Simulator& sim = cluster_.site_sim(client);
    const SimTime at = sim.now() + static_cast<SimTime>(query_rngs_[client].exponential(
                                       static_cast<double>(kSecond) / spec_.queries_per_site_s));
    if (at > horizon_) return;
    sim.schedule_at(at, [this, client] {
      submit_query(client);
      schedule_query(client);
    });
  }

  void submit_update(SiteId client) {
    Rng& rng = update_rngs_[client];
    const SimTime now = cluster_.site_sim(client).now();
    const SiteId site = target(client, now);
    ReplicaBase& replica = cluster_.replica(site);
    ++counts_[client].updates;
    SubmitResult result;
    if (spec_.mix == Mix::tpcc) {
      const auto warehouse =
          static_cast<ClassId>(rng.uniform_int(0, static_cast<std::int64_t>(kClasses) - 1));
      const auto exec = static_cast<SimTime>(rng.exponential(static_cast<double>(kMeanExec)));
      const double dice =
          rng.next_double() * (kNewOrderWeight + kPaymentWeight + kDeliveryWeight);
      TxnArgs args;
      ProcId proc = 0;
      const auto districts = static_cast<std::int64_t>(kLayout.n_districts);
      const auto customers = static_cast<std::int64_t>(kLayout.n_customers);
      if (dice < kNewOrderWeight) {
        proc = procs_.new_order;
        args.ints = {rng.uniform_int(0, districts - 1), rng.uniform_int(0, customers - 1)};
        for (std::size_t i = 0; i < kOpsPerTxn; ++i) {
          args.ints.push_back(
              rng.uniform_int(0, static_cast<std::int64_t>(kLayout.n_items) - 1));
          args.ints.push_back(rng.uniform_int(1, 5));  // quantity
        }
      } else if (dice < kNewOrderWeight + kPaymentWeight) {
        proc = procs_.payment;
        args.ints = {rng.uniform_int(0, customers - 1), rng.uniform_int(1, 100)};
      } else {
        proc = procs_.delivery;
        args.ints = {rng.uniform_int(0, districts - 1)};
      }
      ledger_.expect(site, now, 0);
      SiteSpan span(tracer_, site, SpanKind::submit_update);
      result = replica.submit_update(proc, warehouse, std::move(args), exec);
    } else {
      const bool cross = rng.bernoulli(spec_.cross_fraction);
      const auto first = static_cast<ClassId>(rng.zipf(kClasses, spec_.class_skew));
      const std::int64_t delta = rng.uniform_int(1, 10);
      const auto exec = static_cast<SimTime>(rng.exponential(static_cast<double>(kMeanExec)));
      const auto last = static_cast<std::int64_t>(kRmwObjectsPerClass) - 1;
      TxnArgs args;
      args.ints.push_back(delta);
      ledger_.expect(site, now, delta * static_cast<std::int64_t>(kOpsPerTxn));
      if (cross) {
        // One read-modify-write per covered class, round-robin over the two.
        std::vector<ClassId> classes = {first, static_cast<ClassId>((first + 1) % kClasses)};
        for (std::size_t i = 0; i < kOpsPerTxn; ++i) {
          const ObjectId obj = cluster_.catalog().object(
              classes[i % classes.size()], static_cast<std::uint64_t>(rng.uniform_int(0, last)));
          args.ints.push_back(static_cast<std::int64_t>(obj));
        }
        SiteSpan span(tracer_, site, SpanKind::submit_update);
        result = replica.submit_update_multi(rmw_cross_, std::move(classes), std::move(args), exec);
      } else {
        for (std::size_t i = 0; i < kOpsPerTxn; ++i) args.ints.push_back(rng.uniform_int(0, last));
        SiteSpan span(tracer_, site, SpanKind::submit_update);
        result = replica.submit_update(rmw_, first, std::move(args), exec);
      }
    }
    const bool broadcast = ledger_.settle(site);
    OTPDB_CHECK_MSG(broadcast == (result == SubmitResult::admitted),
                    "an admitted update must broadcast exactly once");
    if (!broadcast) ++counts_[client].refused;
  }

  void submit_query(SiteId client) {
    Rng& rng = query_rngs_[client];
    const SimTime now = cluster_.site_sim(client).now();
    const SiteId site = target(client, now);
    const auto exec = static_cast<SimTime>(rng.exponential(static_cast<double>(kMeanQueryExec)));
    const PartitionCatalog& catalog = cluster_.catalog();
    QueryFn fn;
    if (spec_.mix == Mix::tpcc) {
      // StockLevel: counts the low-stock items of one warehouse.
      const auto warehouse =
          static_cast<ClassId>(rng.uniform_int(0, static_cast<std::int64_t>(kClasses) - 1));
      fn = [&catalog, warehouse](QueryContext& ctx) {
        int low = 0;
        for (std::uint64_t i = 0; i < kLayout.n_items; ++i) {
          low += ctx.read_int(catalog.object(warehouse, kLayout.stock_offset(i))) <
                 tpcc::kStockLevelThreshold;
        }
        (void)low;
      };
    } else {
      // Sum of kOpsPerTxn objects in each of two consecutive classes.
      const auto first =
          static_cast<ClassId>(rng.uniform_int(0, static_cast<std::int64_t>(kClasses) - 1));
      std::vector<ObjectId> objects;
      for (ClassId c = 0; c < 2; ++c) {
        for (std::size_t k = 0; k < kOpsPerTxn; ++k) {
          objects.push_back(catalog.object(
              static_cast<ClassId>((first + c) % kClasses),
              static_cast<std::uint64_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(kRmwObjectsPerClass) - 1))));
        }
      }
      fn = [objects = std::move(objects)](QueryContext& ctx) {
        std::int64_t sum = 0;
        for (ObjectId obj : objects) sum += ctx.read_int(obj);
        (void)sum;
      };
    }
    ++counts_[client].queries;
    const std::size_t index = ledger_.add_query(site, now);
    SiteSpan span(tracer_, site, SpanKind::submit_query);
    cluster_.replica(site).submit_query(std::move(fn), exec,
                                        [this, site, index](const QueryReport& report) {
                                          ledger_.query_done(site, index, report.completed_at);
                                        });
  }

  Cluster& cluster_;
  const WorkloadSpec& spec_;
  Ledger& ledger_;
  Tracer* tracer_;
  std::vector<Rng> update_rngs_;
  std::vector<Rng> query_rngs_;
  std::vector<ClientCounts> counts_;  // per client site, shard-confined
  tpcc::Procedures procs_;
  ProcId rmw_ = 0;
  ProcId rmw_cross_ = 0;
  SimTime horizon_ = 0;
  SiteId failover_site_ = kSites;  // none
  SimTime failover_from_ = 0;
  SimTime failover_until_ = 0;
};

// ---------------------------------------------------------------------------
// Host clocks
// ---------------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string filesystem_of(const std::string& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext2/3/4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

/// Mounts a tmpfs over `dir` (inside the work directory) in a mount
/// namespace private to this process, so the durable workload's real fsync
/// calls hit memory instead of the host's shared disk, and nothing outside
/// the work directory is written. Must run while the process is still
/// single-threaded. Returns an empty string, or why the mount failed (the
/// run then keeps the directory on its own filesystem and says so).
std::string mount_private_tmpfs(const std::string& dir) {
  std::filesystem::create_directories(dir);
  if (unshare(CLONE_NEWNS) != 0) return std::string("unshare: ") + std::strerror(errno);
  // Keep the new mount from propagating back to the parent namespace.
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return std::string("make-private: ") + std::strerror(errno);
  }
  if (mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV, "size=512m") != 0) {
    return std::string("mount: ") + std::strerror(errno);
  }
  return "";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of simulated durations, in milliseconds.
double percentile_ms(std::vector<SimTime> v, double p) {
  if (v.empty()) return 0;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size()))), 1,
      v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]) / 1e6;
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

/// Everything a repetition reports that must repeat exactly: counts and
/// simulated-time metrics. Compared field by field across repetitions.
struct SimOutcome {
  std::vector<std::pair<std::string, double>> values;

  void add(const std::string& name, double v) { values.emplace_back(name, v); }
  double get(const std::string& name) const {
    for (const auto& [n, v] : values) {
      if (n == name) return v;
    }
    OTPDB_CHECK_MSG(false, "unknown outcome field");
    return 0;
  }
};

struct TraceSummary {
  double submit_update_us = 0;  ///< self time: the nested broadcast is excluded
  double abcast_send_us = 0;
  double opt_deliver_us = 0;
  double to_deliver_us = 0;     ///< per delivered entry
  double submit_query_us = 0;
  double sim_self_us = 0;  ///< run_for/quiesce time no site span covered, total
  double restart_ms = 0;
  std::uint64_t allocs_core = 0;  ///< self allocations of the core seams
  std::uint64_t allocs_send = 0;  ///< allocations inside broadcast()
  std::size_t spans = 0;
};

struct RepResult {
  double setup_s = 0;
  double wall_s = 0;    ///< measured phase: simulation slices through the drain
  double cpu_s = 0;     ///< process CPU time over the same intervals
  double kernel_s = 0;  ///< median calibration unit of this repetition (0 = none)
  std::uint64_t allocs = 0;
  std::uint64_t committed = 0;  ///< distinct committed transactions
  std::uint64_t attempted = 0;  ///< client requests generated
  std::uint64_t failed = 0;     ///< client requests never committed or answered
  SimOutcome outcome;
  /// Sharded-engine round structure. Not compared across repetitions: the
  /// traced run's monitor adds hub events, which may change rounds without
  /// changing the run.
  double engine_rounds_per_sim_s = 0;
  double engine_activations_per_round = 0;
  TraceSummary trace;
  std::vector<std::string> violations;
};

struct RunContext {
  const WorkloadSpec& spec;
  std::uint64_t seed;
  std::string work_dir;
  CalibrationKernel* kernel = nullptr;  ///< null during the warm-up repetition
};

/// Union length of [start, end) intervals.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, lo = 0, hi = -1;
  for (const auto& [s, e] : iv) {
    if (s > hi) {
      if (hi > lo) total += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

TraceSummary summarize(const Tracer& tracer) {
  TraceSummary t;
  struct Acc {
    std::int64_t self_ns = 0;
    std::uint64_t entries = 0;
  };
  Acc acc[kSpanKinds];
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(tracer.roots().size());
  for (const auto& buffer : tracer.sites()) {
    t.spans += buffer.size();
    // Self time and self allocations: a span minus its direct children.
    std::vector<std::int64_t> child_ns(buffer.size(), 0);
    std::vector<std::uint64_t> child_allocs(buffer.size(), 0);
    for (const Span& span : buffer) {
      if (span.parent < 0) continue;
      child_ns[static_cast<std::size_t>(span.parent)] += span.duration_ns();
      child_allocs[static_cast<std::size_t>(span.parent)] += span.allocs;
    }
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      const Span& span = buffer[i];
      Acc& a = acc[static_cast<std::size_t>(span.kind)];
      a.self_ns += span.duration_ns() - child_ns[i];
      a.entries += span.entries;
      const std::uint64_t self_allocs = span.allocs - child_allocs[i];
      (span.kind == SpanKind::broadcast ? t.allocs_send : t.allocs_core) += self_allocs;
      if (span.parent < 0 && span.root >= 0) {
        children[static_cast<std::size_t>(span.root)].emplace_back(span.start_ns, span.end_ns);
      }
    }
  }
  auto mean_us = [&acc](SpanKind kind) {
    const Acc& a = acc[static_cast<std::size_t>(kind)];
    return a.entries ? static_cast<double>(a.self_ns) / 1e3 / static_cast<double>(a.entries)
                     : 0.0;
  };
  t.submit_update_us = mean_us(SpanKind::submit_update);
  t.abcast_send_us = mean_us(SpanKind::broadcast);
  t.opt_deliver_us = mean_us(SpanKind::opt_deliver);
  t.to_deliver_us = mean_us(SpanKind::to_deliver);
  t.submit_query_us = mean_us(SpanKind::submit_query);
  for (std::size_t i = 0; i < tracer.roots().size(); ++i) {
    const Span& root = tracer.roots()[i];
    if (root.kind == SpanKind::restart) t.restart_ms += static_cast<double>(root.duration_ns()) / 1e6;
    if (root.kind != SpanKind::run_for && root.kind != SpanKind::quiesce) continue;
    t.sim_self_us += static_cast<double>(root.duration_ns() - covered_ns(children[i])) / 1e3;
  }
  return t;
}

struct SetupState {
  std::vector<std::unique_ptr<ObservedAbcast>> abcasts;  // outlive the cluster
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Clients> clients;
};

/// Builds the cluster over ObservedAbcast forwarders, registers procedures,
/// loads data and starts the clients: the timed set-up.
void set_up(SetupState& state, const RunContext& ctx, const std::string& data_dir,
            Ledger& ledger, Tracer* tracer) {
  state.abcasts.reserve(kSites);
  ReplicaFactory factory = [&state, &ledger, tracer](const ReplicaDeps& deps) {
    state.abcasts.push_back(
        std::make_unique<ObservedAbcast>(deps.abcast, deps.sim, ledger, tracer));
    return std::make_unique<OtpReplica>(deps.sim, *state.abcasts.back(), deps.storage,
                                        deps.catalog, deps.registry, deps.site);
  };
  state.cluster =
      std::make_unique<Cluster>(make_config(ctx.spec, ctx.seed, data_dir), std::move(factory));
  state.clients = std::make_unique<Clients>(*state.cluster, ctx.spec, ledger, tracer,
                                            ctx.seed ^ 0x5EED5EED5EEDULL);
  state.clients->start();
}

std::string fresh_data_dir(const RunContext& ctx) {
  if (!ctx.spec.durable) return "";
  const std::string dir = ctx.work_dir + "/tmpfs/data-" + ctx.spec.name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Times set-up alone (no simulation), for the setup_s median.
double time_setup_only(const RunContext& ctx) {
  const std::string data_dir = fresh_data_dir(ctx);
  Ledger ledger(kSites, 0, 0);
  SetupState state;
  const double t0 = wall_now();
  set_up(state, ctx, data_dir, ledger, nullptr);
  const double elapsed = wall_now() - t0;
  state.clients.reset();
  state.cluster.reset();
  if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
  return elapsed;
}

RepResult run_rep(const RunContext& ctx, bool traced) {
  const WorkloadSpec& spec = ctx.spec;
  RepResult out;
  const std::string data_dir = fresh_data_dir(ctx);
  // Benchmark bookkeeping is allocated up front so the measured phase's
  // allocation count is the program's alone.
  const auto expected_updates = static_cast<std::size_t>(
      spec.updates_per_site_s * static_cast<double>(spec.duration) / 1e9 * kSites * 1.2 + 1024);
  const auto expected_queries = static_cast<std::size_t>(
      spec.queries_per_site_s * static_cast<double>(spec.duration) / 1e9 * kSites * 1.2 + 1024);
  Ledger ledger(kSites, expected_updates, expected_queries);
  std::unique_ptr<Tracer> tracer;
  if (traced) tracer = std::make_unique<Tracer>(kSites, expected_updates * 3 + expected_queries);
  Tracer* tr = tracer.get();

  SetupState state;
  const double setup_start = wall_now();
  {
    RootSpan span(tr, SpanKind::build);
    set_up(state, ctx, data_dir, ledger, tr);
  }
  out.setup_s = wall_now() - setup_start;
  Cluster& cluster = *state.cluster;
  Clients& clients = *state.clients;

  // Commit observation. The traced run's InvariantMonitor owns the commit
  // hooks (its HistoryRecorder), so its commits reach the ledger after the
  // run; untraced runs stamp them live. Either way a hook is installed, so
  // the engine records read/write sets in both.
  std::unique_ptr<InvariantMonitor> monitor;
  std::unique_ptr<tpcc::TpccDriver> auditor;
  if (spec.mix == Mix::tpcc) {
    // Only its audit() is used. The clients generate no remote transactions,
    // so it checks money and stock conservation per warehouse.
    auditor = std::make_unique<tpcc::TpccDriver>(cluster, kLayout, tpcc::MixConfig{}, ctx.seed);
  }
  if (traced) {
    InvariantMonitor::Config config;
    config.dedup_replayed_commits = spec.crash;
    monitor = std::make_unique<InvariantMonitor>(cluster, config);
    if (auditor) monitor->set_audit([&auditor](SiteId s) { return auditor->audit(s); });
  } else {
    for (SiteId s = 0; s < kSites; ++s) {
      cluster.replica(s).set_commit_hook([&ledger](const CommitRecord& r) { ledger.on_commit(r); });
    }
  }
  const auto max_committed = [&](SiteId s) {
    if (!monitor) return ledger.max_committed(s);
    TOIndex m = 0;
    for (const CommitRecord& r : monitor->recorder().site_logs()[s]) m = std::max(m, r.index);
    return m;
  };

  const SimTime crash_at = spec.duration / 2;
  const SimTime restart_at = crash_at + kRestartDelay;
  if (spec.crash) clients.fail_over(kCrashSite, crash_at - kFailoverLead, restart_at);

  std::vector<double> kernel_units;
  kernel_units.reserve(static_cast<std::size_t>(spec.duration / spec.slice) + 8);
  std::uint64_t kernel_allocs = 0;
  const auto calibrate = [&] {
    if (ctx.kernel == nullptr) return;
    const std::uint64_t before = heap_alloc_count.load();
    const double unit = ctx.kernel->run_unit();
    kernel_allocs += heap_alloc_count.load() - before;
    kernel_units.push_back(unit);
  };
  const std::uint64_t allocs_start = heap_alloc_count.load();
  const auto timed = [&](SpanKind kind, auto&& fn) {
    const double w0 = wall_now(), c0 = cpu_now();
    {
      RootSpan span(tr, kind);
      fn();
    }
    out.wall_s += wall_now() - w0;
    out.cpu_s += cpu_now() - c0;
  };

  // Measured phase: slices of simulated time with calibration in between,
  // the crash and restart at their slice boundaries, then the drain.
  calibrate();
  SimTime restarted_at = 0;
  TOIndex catchup_target = 0;
  for (SimTime t = 0; t < spec.duration;) {
    SimTime next = std::min(t + spec.slice, spec.duration);
    if (spec.crash && t < crash_at && next > crash_at) next = crash_at;
    if (spec.crash && t < restart_at && next > restart_at) next = restart_at;
    timed(SpanKind::run_for, [&] { cluster.run_for(next - t); });
    t = next;
    if (spec.crash && t == crash_at) {
      timed(SpanKind::crash, [&] { cluster.crash_site(kCrashSite); });
    }
    if (spec.crash && t == restart_at) {
      for (SiteId s = 0; s < kSites; ++s) {
        if (s != kCrashSite) catchup_target = std::max(catchup_target, max_committed(s));
      }
      ledger.watch_catchup(kCrashSite, catchup_target);
      restarted_at = cluster.sim().now();
      timed(SpanKind::restart, [&] { cluster.restart_site_from_disk(kCrashSite); });
    }
    calibrate();
  }
  bool drained = false;
  timed(SpanKind::quiesce, [&] { drained = cluster.quiesce(60 * kSecond); });
  out.allocs = heap_alloc_count.load() - allocs_start - kernel_allocs;
  calibrate();
  if (kernel_allocs != 0) out.violations.push_back("calibration kernel allocated");
  out.kernel_s = kernel_units.empty() ? 0 : median(kernel_units);

  // --- correctness --------------------------------------------------------
  CheckResult battery;
  {
    RootSpan span(tr, SpanKind::check);
    if (!drained) out.violations.push_back("cluster did not drain within 60 simulated s");
    if (monitor) {
      battery = monitor->finish();
      for (const auto& log : monitor->recorder().site_logs()) {
        for (const CommitRecord& r : log) ledger.on_commit(r);
      }
    } else {
      std::vector<const VersionedStore*> stores;
      for (SiteId s = 0; s < kSites; ++s) stores.push_back(&cluster.store(s));
      battery = compare_final_states(stores, cluster.catalog());
      if (auditor) {
        for (SiteId s = 0; s < kSites; ++s) {
          for (const std::string& v : auditor->audit(s)) battery.violations.push_back(v);
        }
      }
    }
  }
  for (const std::string& v : battery.violations) out.violations.push_back(v);

  std::uint64_t broadcasts = 0, lost = 0;
  std::int64_t expected_sum = 0;
  std::vector<SimTime> commit_lat, query_lat, opt_lat, gap_lat, post_lat;
  for (const auto& site_updates : ledger.updates()) {
    broadcasts += site_updates.size();
    for (const UpdateStamp& u : site_updates) {
      expected_sum += u.effect;
      if (u.commit == kUnset) {
        ++lost;
        continue;
      }
      commit_lat.push_back(u.commit - u.submit);
      if (u.opt != kUnset) opt_lat.push_back(u.opt - u.submit);
      if (u.opt != kUnset && u.to != kUnset) gap_lat.push_back(u.to - u.opt);
      if (u.to != kUnset) post_lat.push_back(u.commit - u.to);
    }
  }
  std::uint64_t unanswered = 0;
  for (const auto& site_queries : ledger.queries()) {
    for (const QueryStamp& q : site_queries) {
      if (q.done == kUnset) {
        ++unanswered;
      } else {
        query_lat.push_back(q.done - q.submit);
      }
    }
  }
  const ClientCounts generated = clients.totals();
  if (generated.updates != broadcasts + generated.refused) {
    out.violations.push_back("generated updates do not match broadcasts + refusals");
  }
  // Every site that never crashed commits every broadcast update.
  for (SiteId s = 0; s < kSites; ++s) {
    if (spec.crash && s == kCrashSite) continue;
    if (cluster.replica(s).metrics().committed != broadcasts - lost) {
      out.violations.push_back("site " + std::to_string(s) + " committed " +
                               std::to_string(cluster.replica(s).metrics().committed) +
                               " of " + std::to_string(broadcasts - lost));
    }
  }
  if (spec.mix == Mix::rmw) {
    // Conservation: each committed rmw adds delta to each of its objects.
    for (SiteId s = 0; s < kSites; ++s) {
      std::int64_t sum = 0;
      for (ObjectId obj = 0; obj < cluster.catalog().object_count(); ++obj) {
        sum += as_int(cluster.store(s).read_latest(obj).value_or(Value{std::int64_t{0}}));
      }
      if (sum != expected_sum) {
        out.violations.push_back("site " + std::to_string(s) + " rmw sum " +
                                 std::to_string(sum) + " != " + std::to_string(expected_sum));
      }
    }
  }

  // --- counts and simulated-time metrics ------------------------------------
  const std::uint64_t committed = cluster.replica(0).metrics().committed;
  out.committed = committed;
  out.attempted = generated.updates + generated.queries;
  out.failed = generated.refused + lost + unanswered;

  std::uint64_t commits_all = 0, reexec = 0, aborts = 0, reorders = 0, q_done = 0,
                q_retries = 0;
  double wait_sum = 0, gap_sum = 0;
  std::uint64_t wait_n = 0;
  std::uint64_t fast = 0, decided = 0, rounds_started = 0;
  for (SiteId s = 0; s < kSites; ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    commits_all += m.committed;
    reexec += m.reexecutions;
    aborts += m.aborts;
    reorders += m.mismatch_reorders;
    q_done += m.queries_done;
    q_retries += m.query_retries;
    wait_sum += m.commit_wait_ns.sum();
    wait_n += m.commit_wait_ns.count();
    gap_sum += m.opt_to_gap_ns.sum();
    const auto* opt = dynamic_cast<const OptAbcast*>(&cluster.abcast(s));
    OTPDB_CHECK(opt != nullptr);
    fast += opt->consensus_stats().fast_decides;
    decided += opt->consensus_stats().instances_decided;
    rounds_started += opt->consensus_stats().rounds_started;
  }
  WalStats wal;
  for (SiteId s = 0; s < kSites; ++s) {
    if (const WalStats* w = cluster.wal_stats(s)) {
      wal.commits_logged += w->commits_logged;
      wal.fsyncs += w->fsyncs;
      wal.wal_bytes += w->wal_bytes;
      wal.checkpoints += w->checkpoints;
      wal.segments_truncated += w->segments_truncated;
      wal.replayed_commits += w->replayed_commits;
    }
  }
  // The monitor's watermark sampling adds hub events of its own.
  const std::uint64_t monitor_events = monitor ? monitor->samples() - 1 : 0;
  const std::uint64_t events =
      (cluster.engine() ? cluster.engine()->executed() : cluster.sim().executed()) -
      monitor_events;
  const double sim_s = static_cast<double>(cluster.sim().now()) / 1e9;

  SimOutcome& o = out.outcome;
  o.add("commit_p50_ms", percentile_ms(commit_lat, 50));
  o.add("commit_p99_ms", percentile_ms(commit_lat, 99));
  o.add("query_p50_ms", percentile_ms(query_lat, 50));
  o.add("query_p99_ms", percentile_ms(query_lat, 99));
  o.add("ordering_hidden_pct", gap_sum > 0 ? 100.0 * (1.0 - wait_sum / gap_sum) : 0.0);
  o.add("abcast.opt_p50_ms", percentile_ms(opt_lat, 50));
  o.add("abcast.opt_p99_ms", percentile_ms(opt_lat, 99));
  o.add("abcast.order_gap_p50_ms", percentile_ms(gap_lat, 50));
  o.add("abcast.order_gap_p99_ms", percentile_ms(gap_lat, 99));
  o.add("core.post_order_p50_ms", percentile_ms(post_lat, 50));
  o.add("core.post_order_p99_ms", percentile_ms(post_lat, 99));
  o.add("core.commit_wait_ms", wait_n ? wait_sum / static_cast<double>(wait_n) / 1e6 : 0.0);
  o.add("recovery.catchup_ms",
        spec.crash && ledger.catchup_done() != kUnset
            ? static_cast<double>(ledger.catchup_done() - restarted_at) / 1e6
            : 0.0);
  o.add("count.generated_updates", static_cast<double>(generated.updates));
  o.add("count.generated_queries", static_cast<double>(generated.queries));
  o.add("count.committed", static_cast<double>(committed));
  o.add("count.commits_all_sites", static_cast<double>(commits_all));
  o.add("count.events", static_cast<double>(events));
  o.add("count.messages", static_cast<double>(cluster.net().delivered_count()));
  o.add("count.reexecutions", static_cast<double>(reexec));
  o.add("count.aborts", static_cast<double>(aborts));
  o.add("count.reorders", static_cast<double>(reorders));
  o.add("count.queries_done", static_cast<double>(q_done));
  o.add("count.query_retries", static_cast<double>(q_retries));
  o.add("count.consensus_decided", static_cast<double>(decided));
  o.add("count.consensus_fast", static_cast<double>(fast));
  o.add("count.consensus_rounds", static_cast<double>(rounds_started));
  o.add("count.fd_suspicions", static_cast<double>(cluster.fd_stats().suspicions));
  o.add("count.wal_commits", static_cast<double>(wal.commits_logged));
  o.add("count.wal_fsyncs", static_cast<double>(wal.fsyncs));
  o.add("count.wal_bytes", static_cast<double>(wal.wal_bytes));
  o.add("count.wal_checkpoints", static_cast<double>(wal.checkpoints));
  o.add("count.wal_segments_truncated", static_cast<double>(wal.segments_truncated));
  o.add("count.wal_replayed", static_cast<double>(wal.replayed_commits));
  const AbcastStats& crashed = cluster.abcast(kCrashSite).stats();
  o.add("count.recovery_tombstones",
        spec.crash ? static_cast<double>(crashed.recovery_tombstones) : 0.0);
  o.add("count.recovery_bodies",
        spec.crash ? static_cast<double>(crashed.recovery_bodies_fetched) : 0.0);
  o.add("count.refused", static_cast<double>(generated.refused));
  o.add("count.lost", static_cast<double>(lost + unanswered));
  o.add("count.sim_s", sim_s);
  if (const ShardedEngine* engine = cluster.engine()) {
    const EngineStats& es = engine->stats();
    out.engine_rounds_per_sim_s = static_cast<double>(es.rounds) / sim_s;
    out.engine_activations_per_round =
        es.rounds ? static_cast<double>(es.site_activations) / static_cast<double>(es.rounds)
                  : 0.0;
  }

  if (tr) out.trace = summarize(*tr);
  if (tr) {
    const std::string path = ctx.work_dir + "/trace-" + spec.name + ".json";
    const long written = tr->write_chrome_trace(path, 100000);
    std::printf("trace: %s (%ld of %zu site spans, %zu root spans)\n", path.c_str(), written,
                out.trace.spans, tr->roots().size());
  }
  state.clients.reset();
  state.cluster.reset();
  if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
  return out;
}

/// Factor that scales a host time measured while the calibration unit took
/// `kernel_s` to the reference host. The workloads' host time moves with
/// about the square root of the kernel's (log-log slope 0.55 on tpcc-lan and
/// 0.46 on a two-thread rmw-wan, r >= 0.91, over 56 repetitions on the
/// reference host), so the benchmark scales by that fixed power.
double speed_scale(double kernel_s) {
  return std::sqrt(CalibrationKernel::kReferenceSeconds / kernel_s);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: otpdb_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, work_dir;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1) || work_dir.empty()) {
    return usage();
  }
  std::filesystem::create_directories(work_dir);
  RunContext ctx{*spec, seed, work_dir, nullptr};
  const double start = wall_now();
  std::printf("workload %s seed %llu trace %d: %zu sites, %s, %s, %s storage\n", spec->name,
              static_cast<unsigned long long>(seed), trace, kSites,
              spec->topology == TopologyProfile::wan ? "wan" : "lan",
              spec->sharded ? "sharded engine (1 worker)" : "classic loop",
              spec->durable ? "durable" : "memory");
  if (spec->durable) {
    const std::string data_root = work_dir + "/tmpfs";
    const std::string failure = mount_private_tmpfs(data_root);
    if (!failure.empty()) {
      std::printf("WARNING: no private tmpfs (%s); the WAL's fsync calls go to the disk\n",
                  failure.c_str());
    }
    std::printf("durable data directory on %s (%s); 2 ms group-commit window, 5 ms modeled "
                "fsync, real fsync calls\n",
                filesystem_of(data_root).c_str(), data_root.c_str());
  }

  // Warm-up repetition: no calibration kernel in memory yet, so the peak
  // RSS after it is the workload's own.
  std::vector<RepResult> reps;
  reps.push_back(run_rep(ctx, false));
  const double rss = peak_rss_mib();

  CalibrationKernel kernel;
  ctx.kernel = &kernel;
  std::vector<double> kernel_units;
  std::vector<double> setups;
  for (int i = 0; i < 40; ++i) {
    kernel_units.push_back(kernel.run_unit());
    setups.push_back(time_setup_only(ctx));
  }

  std::vector<RepResult> untraced, traced;
  const double measure_start = wall_now();
  double longest = 0;
  while (true) {
    const double elapsed = wall_now() - measure_start;
    const std::size_t done = trace ? traced.size() : untraced.size();
    if (done >= (trace ? 1u : 3u) && elapsed + longest > seconds) break;
    const double t0 = wall_now();
    untraced.push_back(run_rep(ctx, false));
    if (trace) traced.push_back(run_rep(ctx, true));
    longest = std::max(longest, wall_now() - t0);
  }

  // Every repetition simulates the same run: compare all of them.
  std::vector<std::string> violations;
  std::vector<const RepResult*> all;
  for (const auto* set : {&reps, &untraced, &traced}) {
    for (const RepResult& r : *set) all.push_back(&r);
  }
  for (const RepResult* r : all) {
    for (const std::string& v : r->violations) violations.push_back(v);
    for (std::size_t i = 0; i < r->outcome.values.size(); ++i) {
      const auto& [name, value] = r->outcome.values[i];
      if (value != reps[0].outcome.values[i].second) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "nondeterministic %s: %.17g vs %.17g", name.c_str(),
                      value, reps[0].outcome.values[i].second);
        violations.push_back(buf);
      }
    }
  }
  for (const RepResult& r : untraced) {
    if (r.allocs != untraced[0].allocs) {
      violations.push_back("allocation count differs between repetitions: " +
                           std::to_string(r.allocs) + " vs " + std::to_string(untraced[0].allocs));
    }
  }
  const bool correct = violations.empty();
  for (const std::string& v : violations) std::printf("VIOLATION: %s\n", v.c_str());

  for (const RepResult& r : untraced) kernel_units.push_back(r.kernel_s);
  for (const RepResult& r : traced) kernel_units.push_back(r.kernel_s);
  const double run_kernel = median(kernel_units);
  const auto scale = [](const RepResult& r) { return speed_scale(r.kernel_s); };
  const RepResult& ref = reps[0];
  const double committed = static_cast<double>(ref.committed);
  std::vector<double> tput, tput_raw, cpu_us, cpu_raw, norm_wall, traced_wall, cpu_util;
  for (const RepResult& r : untraced) {
    tput.push_back(committed / (r.wall_s * scale(r)));
    tput_raw.push_back(committed / r.wall_s);
    cpu_us.push_back(r.cpu_s * scale(r) / committed * 1e6);
    cpu_raw.push_back(r.cpu_s / committed * 1e6);
    norm_wall.push_back(r.wall_s * scale(r));
    cpu_util.push_back(r.cpu_s / r.wall_s);
  }
  for (const RepResult& r : traced) traced_wall.push_back(r.wall_s * scale(r));
  const double setup_scale = speed_scale(run_kernel);
  std::vector<double> setup_all = setups;
  for (const RepResult& r : untraced) setup_all.push_back(r.setup_s);
  const double setup_raw = median(setup_all);

  const SimOutcome& o = ref.outcome;
  std::vector<Metric> e2e = {
      {"sim_txn_per_host_s", median(tput), "1/s"},
      {"host_cpu_us_per_txn", median(cpu_us), "us"},
      {"allocs_per_txn", static_cast<double>(untraced[0].allocs) / committed, "count"},
      {"peak_rss_mib", rss, "MiB"},
      {"setup_s", setup_raw * setup_scale, "s"},
      {"commit_p50_ms", o.get("commit_p50_ms"), "ms"},
      {"commit_p99_ms", o.get("commit_p99_ms"), "ms"},
      {"query_p50_ms", o.get("query_p50_ms"), "ms"},
      {"query_p99_ms", o.get("query_p99_ms"), "ms"},
      {"ordering_hidden_pct", o.get("ordering_hidden_pct"), "%"},
  };
  for (const RepResult& r : untraced) {
    std::printf("  rep: wall %.4f s cpu %.4f s kernel %.3f ms -> %.1f txn/host-s scaled\n",
                r.wall_s, r.cpu_s, r.kernel_s * 1e3, committed / (r.wall_s * scale(r)));
  }
  std::printf("%zu repetitions of %.1f simulated s (%llu committed transactions each), "
              "%.1f wall s\n",
              all.size(), o.get("count.sim_s"), static_cast<unsigned long long>(ref.committed),
              wall_now() - start);
  std::printf("host speed: calibration unit %.3f ms (reference %.3f ms)\n", run_kernel * 1e3,
              CalibrationKernel::kReferenceSeconds * 1e3);
  std::printf("end-to-end (host time scaled to the reference host):\n");
  for (const Metric& m : e2e) std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("  raw: %.6g txn/host-s, %.6g cpu us/txn, setup %.6g s\n", median(tput_raw),
              median(cpu_raw), setup_raw);

  if (trace == 0) {
    print_json(correct, ref.attempted, ref.failed, e2e);
    return correct ? 0 : 1;
  }

  // Per-layer metrics: counts from the deterministic outcome, host time from
  // the traced repetitions (scaled like the end-to-end figures).
  const auto count = [&](const char* name) { return o.get(name); };
  std::vector<double> usub, send, optd, tod, qsub, self, restart, core_alloc, send_alloc,
      other_alloc;
  for (const RepResult& r : traced) {
    const double s = scale(r);
    usub.push_back(r.trace.submit_update_us * s);
    send.push_back(r.trace.abcast_send_us * s);
    optd.push_back(r.trace.opt_deliver_us * s);
    tod.push_back(r.trace.to_deliver_us * s);
    qsub.push_back(r.trace.submit_query_us * s);
    self.push_back(r.trace.sim_self_us * s / committed);
    restart.push_back(r.trace.restart_ms * s);
    core_alloc.push_back(static_cast<double>(r.trace.allocs_core) / committed);
    send_alloc.push_back(static_cast<double>(r.trace.allocs_send) / committed);
    other_alloc.push_back(
        static_cast<double>(r.allocs - r.trace.allocs_core - r.trace.allocs_send) / committed);
  }
  const double decided = count("count.consensus_decided");
  const double commits_all = count("count.commits_all_sites");
  const double generated = count("count.generated_updates") + count("count.generated_queries");
  const double wal_fsyncs = count("count.wal_fsyncs");
  const double queries_done = count("count.queries_done");
  std::vector<Metric> layers = {
      {"sim.events_per_txn", count("count.events") / committed, "count"},
      {"sim.self_us_per_txn", median(self), "us"},
      {"engine.rounds_per_sim_s", ref.engine_rounds_per_sim_s, "1/s"},
      {"engine.activations_per_round", ref.engine_activations_per_round, "count"},
      {"net.msgs_per_txn", count("count.messages") / committed, "count"},
      {"abcast.send_us", median(send), "us"},
      {"abcast.opt_p50_ms", count("abcast.opt_p50_ms"), "ms"},
      {"abcast.opt_p99_ms", count("abcast.opt_p99_ms"), "ms"},
      {"abcast.order_gap_p50_ms", count("abcast.order_gap_p50_ms"), "ms"},
      {"abcast.order_gap_p99_ms", count("abcast.order_gap_p99_ms"), "ms"},
      {"consensus.fast_pct", decided ? 100.0 * count("count.consensus_fast") / decided : 0.0,
       "%"},
      {"consensus.rounds_per_instance",
       decided ? count("count.consensus_rounds") / decided : 0.0, "count"},
      {"fd.suspicions", count("count.fd_suspicions"), "count"},
      {"abcast.recovery_tombstones", count("count.recovery_tombstones"), "count"},
      {"abcast.recovery_bodies", count("count.recovery_bodies"), "count"},
      {"core.submit_us", median(usub), "us"},
      {"core.opt_deliver_us", median(optd), "us"},
      {"core.to_deliver_us", median(tod), "us"},
      {"core.useful_exec_pct",
       100.0 * commits_all / (commits_all + count("count.reexecutions")), "%"},
      {"core.undo_per_ktxn", 1000.0 * count("count.aborts") / committed, "count"},
      {"core.reorder_per_ktxn", 1000.0 * count("count.reorders") / committed, "count"},
      {"core.commit_wait_ms", count("core.commit_wait_ms"), "ms"},
      {"core.post_order_p50_ms", count("core.post_order_p50_ms"), "ms"},
      {"core.post_order_p99_ms", count("core.post_order_p99_ms"), "ms"},
      {"query.submit_us", median(qsub), "us"},
      {"query.retry_pct",
       queries_done ? 100.0 * count("count.query_retries") / queries_done : 0.0, "%"},
      {"wal.commits_per_fsync", wal_fsyncs ? count("count.wal_commits") / wal_fsyncs : 0.0,
       "count"},
      {"wal.bytes_per_txn", count("count.wal_bytes") / committed, "B"},
      {"wal.checkpoints", count("count.wal_checkpoints"), "count"},
      {"wal.segments_truncated", count("count.wal_segments_truncated"), "count"},
      {"wal.replayed_commits", count("count.wal_replayed"), "count"},
      {"db.restart_ms", median(restart), "ms"},
      {"recovery.catchup_ms", count("recovery.catchup_ms"), "ms"},
      {"alloc.core_per_txn", median(core_alloc), "count"},
      {"alloc.abcast_send_per_txn", median(send_alloc), "count"},
      {"alloc.other_per_txn", median(other_alloc), "count"},
      {"workload.refused", count("count.refused"), "count"},
      {"workload.lost", count("count.lost"), "count"},
      {"workload.failed_pct",
       100.0 * (count("count.refused") + count("count.lost")) / generated, "%"},
      {"host.cpu_per_wall", median(cpu_util), "ratio"},
      {"host.kernel_ms", run_kernel * 1e3, "ms"},
      {"trace.overhead_ratio", median(traced_wall) / median(norm_wall), "ratio"},
  };
  std::printf("per-layer:\n");
  for (const Metric& m : layers) std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  print_json(correct, ref.attempted, ref.failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
