// Cluster - assembles a full replicated-database system inside one simulator:
// network segment, failure detectors, atomic broadcast endpoints, versioned
// stores, and one replica engine per site. This is the top-level object that
// examples, tests and benches instantiate.
//
// The replica engine is pluggable (OTP, conservative, lazy - see
// src/baseline) through a factory, so every experiment runs the competing
// engines over an identical substrate.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "abcast/failure_detector.h"
#include "abcast/opt_abcast.h"
#include "abcast/sequencer_abcast.h"
#include "core/otp_replica.h"
#include "core/replica_base.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "db/storage_backend.h"
#include "db/versioned_store.h"
#include "net/network.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb {

enum class AbcastKind { optimistic, sequencer };

/// Selects the cluster driver. The classic single-queue loop is the default.
/// On a switched topology (metro, wan, geo-3dc), force_sharded runs the
/// site-sharded engine instead (sim/sharded_engine.h); a fault-free run is
/// bit-for-bit the classic loop's. A shared-bus (lan) cluster always runs the
/// classic loop: every frame serializes through one bus clock, so there is no
/// lookahead gap to shard on.
struct ParallelismConfig {
  bool force_sharded = false;
};

struct ClusterConfig {
  std::size_t n_sites = 4;
  std::size_t n_classes = 8;
  std::uint64_t objects_per_class = 64;
  std::uint64_t seed = 1;

  NetConfig net;
  AbcastKind abcast = AbcastKind::optimistic;
  OptAbcastConfig opt;
  FailureDetectorConfig fd;

  OtpReplicaConfig otp;

  /// Overload plane: per-site admission control (core/admission.h), installed
  /// on every replica by build(). Disabled by default - zero behavior change
  /// for configurations that never touch it.
  AdmissionConfig admission;

  /// Per-cluster storage tier: in-memory (default, the pre-durability
  /// behavior) or the group-commit WAL backend (db/durable_store.h).
  StorageConfig storage;

  /// Declarative network-chaos plan (net/fault_plan.h): timed duplication,
  /// reordering, one-way partitions, flapping, and gray links, executed
  /// deterministically from a dedicated rng split. An empty plan leaves the
  /// run bit-identical to pre-chaos builds.
  ChaosConfig chaos;

  /// Driver selection (see ParallelismConfig and sim/sharded_engine.h).
  ParallelismConfig parallel;
};

/// Per-site dependencies handed to a replica factory.
struct ReplicaDeps {
  Simulator& sim;
  Network& net;
  AtomicBroadcast& abcast;
  StorageBackend& storage;
  const PartitionCatalog& catalog;
  const ProcedureRegistry& registry;
  SiteId site;
};

using ReplicaFactory = std::function<std::unique_ptr<ReplicaBase>(const ReplicaDeps&)>;

class Cluster {
 public:
  /// Builds the cluster with the default engine (OTP) at every site.
  explicit Cluster(ClusterConfig config);
  /// Builds the cluster with a custom engine factory.
  Cluster(ClusterConfig config, ReplicaFactory factory);
  /// Tears down replicas and backends, then removes the data directory if
  /// the cluster created it (temp-dir default for durable runs).
  ~Cluster();

  /// The control clock: the single simulator in classic mode, the network
  /// hub shard in sharded mode. Schedule chaos injection and client
  /// submissions that address arbitrary sites here; never mutate
  /// network-wide state from a site-shard event.
  Simulator& sim() { return engine_ ? engine_->hub() : sim_; }
  /// The shard owning `site`'s replica/abcast/store events (== sim() in
  /// classic mode). Per-site client streams schedule here so they run in the
  /// site's own phase.
  Simulator& site_sim(SiteId site) { return engine_ ? engine_->site(site) : sim_; }
  /// The sharded engine, or nullptr when the classic loop drives the run.
  ShardedEngine* engine() { return engine_.get(); }
  Network& net() { return *net_; }
  const ClusterConfig& config() const { return config_; }
  const PartitionCatalog& catalog() const { return catalog_; }

  /// Register stored procedures here before submitting work. The registry is
  /// shared by all sites (procedures are pre-declared and site-independent).
  ProcedureRegistry& procedures() { return registry_; }

  std::size_t site_count() const { return config_.n_sites; }
  ReplicaBase& replica(SiteId site) { return *replicas_[site]; }
  VersionedStore& store(SiteId site) { return backends_[site]->memory(); }
  StorageBackend& storage(SiteId site) { return *backends_[site]; }
  /// Durability counters for `site`, or nullptr with the memory backend.
  const WalStats* wal_stats(SiteId site) const { return backends_[site]->wal_stats(); }
  AtomicBroadcast& abcast(SiteId site) { return *abcasts_[site]; }
  FailureDetector& failure_detector(SiteId site) { return *fds_[site]; }

  /// Chaos-plane counters (all zero when no plan is armed).
  const ChaosStats& chaos_stats() const { return net_->chaos_stats(); }
  /// Suspicion churn across all failure detectors: total suspicions raised
  /// and later revised (a restore == one false or healed suspicion).
  FailureDetectorStats fd_stats() const {
    FailureDetectorStats total;
    for (const auto& fd : fds_) total.merge(fd->stats());
    return total;
  }

  /// Loads an initial value at every site's store (index-0 version).
  void load_everywhere(ObjectId obj, Value value);

  /// Runs the simulation for a fixed span of simulated time.
  void run_for(SimTime span) {
    if (engine_) {
      engine_->run_until(engine_->now() + span);
    } else {
      sim_.run_until(sim_.now() + span);
    }
  }

  /// Crashes a site: it stops sending and receiving; its volatile replica and
  /// protocol state is considered lost (cleared on recovery). The storage
  /// backend stops producing I/O until recovery.
  void crash_site(SiteId site) {
    net_->crash(site);
    backends_[site]->crash();
  }

  /// Recovers a crashed site (paper model: sites always recover). Clears the
  /// volatile state, reconnects the network, and starts redo catch-up from
  /// the peers' decision logs; everything at or below the site's committed
  /// floor is TO-delivered as a body-less tombstone. Requires recovery
  /// support in the engine over the optimistic broadcast (the sequencer
  /// protocol has no recovery path).
  void recover_site(SiteId site);

  /// Cold-restarts a crashed durable site: RAM is lost, the store is rebuilt
  /// in place from its own checkpoint + WAL as exactly the committed state
  /// at its durable floor, and peer catch-up re-executes everything above
  /// the floor (everything at or below it is TO-delivered as a body-less
  /// tombstone). Peers keep those stages: the site's heartbeats never
  /// carried a floor above its durable floor. Requires the durable backend.
  /// The virtual service clock of deadline budgets restarts from zero: a
  /// run that combines deadlines with cold restarts may drop differently
  /// at the restarted site.
  ///
  /// Returns the durable floor; queries at the site start there.
  TOIndex restart_site_from_disk(SiteId site);

  /// Runs until every replica reports zero in-flight work or `deadline_span`
  /// elapses. Returns true if the cluster quiesced.
  bool quiesce(SimTime deadline_span = 30 * kSecond);

  /// Sum of committed transactions across sites / per-site metrics access.
  std::uint64_t total_committed() const;

 private:
  void build(ReplicaFactory factory);

  ClusterConfig config_;
  Simulator sim_;  // classic-mode clock (unused when engine_ is set)
  // Destroyed after everything holding shard references (declaration order).
  std::unique_ptr<ShardedEngine> engine_;
  Rng rng_;
  PartitionCatalog catalog_;
  ProcedureRegistry registry_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<FailureDetector>> fds_;
  std::vector<std::unique_ptr<AtomicBroadcast>> abcasts_;
  std::vector<std::unique_ptr<StorageBackend>> backends_;
  std::vector<std::unique_ptr<ReplicaBase>> replicas_;
  std::filesystem::path data_root_;  ///< durable-backend root (one dir per site)
  bool owns_data_root_ = false;      ///< cluster created it -> cluster removes it
};

}  // namespace otpdb
