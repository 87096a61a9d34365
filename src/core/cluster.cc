#include "core/cluster.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/assert.h"

namespace otpdb {

Cluster::Cluster(ClusterConfig config)
    : Cluster(std::move(config), [](const ReplicaDeps& deps) {
        return std::make_unique<OtpReplica>(deps.sim, deps.abcast, deps.storage, deps.catalog,
                                            deps.registry, deps.site);
      }) {}

Cluster::Cluster(ClusterConfig config, ReplicaFactory factory)
    : config_(config),
      rng_(config.seed),
      catalog_(config.n_classes, config.objects_per_class) {
  build(std::move(factory));
}

Cluster::~Cluster() {
  // Replicas and backends hold data-dir file handles; drop them before
  // removing a cluster-owned temp directory.
  replicas_.clear();
  backends_.clear();
  if (owns_data_root_) {
    std::error_code ec;
    std::filesystem::remove_all(data_root_, ec);
  }
}

void Cluster::build(ReplicaFactory factory) {
  OTPDB_CHECK(config_.n_sites >= 1);
  if (config_.storage.backend == StorageBackendKind::durable) {
    if (config_.storage.data_dir.empty()) {
      static std::atomic<std::uint64_t> counter{0};
      data_root_ = std::filesystem::temp_directory_path() /
                   ("otpdb-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter.fetch_add(1)));
      owns_data_root_ = true;
    } else {
      data_root_ = config_.storage.data_dir;
    }
    std::error_code ec;
    std::filesystem::create_directories(data_root_, ec);
    OTPDB_CHECK_MSG(!ec, "cannot create the cluster data directory");
  }
  if (topology_switched(config_.net.topology) && config_.parallel.force_sharded) {
    engine_ = std::make_unique<ShardedEngine>(config_.n_sites);
  }
  // The network runs on the hub shard; each site's protocol stack (failure
  // detector, broadcast endpoint, replica) runs on the site's own shard. In
  // classic mode both are the one simulator.
  net_ = std::make_unique<Network>(sim(), config_.n_sites, config_.net, rng_.split());
  if (engine_) net_->attach_engine(*engine_);
  if (config_.chaos.enabled()) {
    // Armed with its own split AFTER the network's, so a chaos-off run draws
    // the exact same streams as a pre-chaos build.
    net_->arm_chaos(config_.chaos, rng_.split());
  }

  for (SiteId s = 0; s < config_.n_sites; ++s) {
    fds_.push_back(std::make_unique<FailureDetector>(site_sim(s), *net_, s, config_.fd));
  }
  for (SiteId s = 0; s < config_.n_sites; ++s) {
    switch (config_.abcast) {
      case AbcastKind::optimistic:
        abcasts_.push_back(
            std::make_unique<OptAbcast>(site_sim(s), *net_, *fds_[s], s, config_.opt));
        break;
      case AbcastKind::sequencer:
        abcasts_.push_back(
            std::make_unique<SequencerAbcast>(site_sim(s), *net_, s, config_.sequencer));
        break;
    }
    // Dense object index covering the catalog's whole contiguous id space.
    // Durable backends schedule their flush/checkpoint events on the site's
    // own shard, so they run in the site's phase of the sharded engine.
    backends_.push_back(make_storage_backend(config_.storage, site_sim(s), s,
                                             config_.n_classes, catalog_.object_count(),
                                             data_root_));
  }
  for (SiteId s = 0; s < config_.n_sites; ++s) {
    replicas_.push_back(factory(
        ReplicaDeps{site_sim(s), *net_, *abcasts_[s], *backends_[s], catalog_, registry_, s}));
    OTPDB_CHECK(replicas_.back() != nullptr);
    replicas_.back()->configure_admission(config_.admission);
  }
  for (SiteId s = 0; s < config_.n_sites; ++s) {
    // A site's stable floor: what it has committed, capped by what its
    // storage would recover after a cold restart. The heartbeats carry it.
    fds_[s]->set_floor_source([this, s] {
      return std::min(replicas_[s]->committed_floor(), backends_[s]->durable_floor());
    });
  }
  for (auto& fd : fds_) fd->start();
}

void Cluster::recover_site(SiteId site) {
  OTPDB_CHECK(site < config_.n_sites);
  auto* abcast = dynamic_cast<OptAbcast*>(abcasts_[site].get());
  OTPDB_CHECK_MSG(abcast != nullptr, "recovery requires the optimistic broadcast");
  replicas_[site]->crash_recover_reset();
  backends_[site]->reopen();
  abcast->crash_reset();
  net_->recover(site);
  abcast->begin_recovery(replicas_[site]->committed_floor());
}

RecoveredState Cluster::restart_site_from_disk(SiteId site) {
  OTPDB_CHECK(site < config_.n_sites);
  auto* abcast = dynamic_cast<OptAbcast*>(abcasts_[site].get());
  OTPDB_CHECK_MSG(abcast != nullptr, "recovery requires the optimistic broadcast");
  const RecoveredState recovered = backends_[site]->restart_from_disk();
  replicas_[site]->restart_from_disk(recovered.class_watermarks, recovered.durable_floor);
  abcast->crash_reset();
  net_->recover(site);
  abcast->begin_recovery(recovered.durable_floor);
  return recovered;
}

void Cluster::load_everywhere(ObjectId obj, Value value) {
  for (auto& backend : backends_) backend->load(obj, value);
}

bool Cluster::quiesce(SimTime deadline_span) {
  const SimTime deadline = sim().now() + deadline_span;
  while (sim().now() < deadline) {
    bool idle = true;
    for (const auto& replica : replicas_) idle &= replica->in_flight() == 0;
    if (idle) return true;
    run_for(5 * kMillisecond);
  }
  bool idle = true;
  for (const auto& replica : replicas_) idle &= replica->in_flight() == 0;
  return idle;
}

std::uint64_t Cluster::total_committed() const {
  std::uint64_t n = 0;
  for (const auto& replica : replicas_) n += replica->metrics().committed;
  return n;
}

}  // namespace otpdb
