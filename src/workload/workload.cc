#include "workload/workload.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/assert.h"

namespace otpdb {

namespace {
constexpr SimTime kBackoffBase = 2 * kMillisecond;
constexpr SimTime kBackoffCap = 64 * kMillisecond;
constexpr SimTime kBackoffJitter = 1 * kMillisecond;
}  // namespace

void RetryingClient::submit(SiteId site, PendingUpdate pending) {
  // Arguments are copied into each attempt so a refusal keeps the original.
  ReplicaBase& replica = cluster_.replica(site);
  const SubmitResult result =
      pending.cross ? replica.submit_update_multi(pending.proc, pending.classes, pending.args,
                                                  pending.exec_duration, pending.deadline)
                    : replica.submit_update(pending.proc, pending.klass, pending.args,
                                            pending.exec_duration, pending.deadline);
  switch (result) {
    case SubmitResult::admitted:
      return;
    case SubmitResult::expired:
      // Deadline budget ran out while the client was backing off (or the
      // site's queue never cleared in time). Nothing more to do.
      ++counters_.expired_presubmit;
      return;
    case SubmitResult::shed:
    case SubmitResult::backpressure:
      break;  // retryable refusals
  }
  if (pending.attempts >= max_retries_) {
    ++counters_.gave_up;
    return;
  }
  const std::size_t shift = std::min<std::size_t>(pending.attempts, 20);
  const SimTime delay =
      std::min(kBackoffCap, kBackoffBase << shift) +
      static_cast<SimTime>(
          site_rngs_[site].uniform_int(0, static_cast<std::int64_t>(kBackoffJitter)));
  ++pending.attempts;
  ++counters_.retries;
  // Boxed: the event capture must stay within Simulator::kActionCapacity, and
  // a PendingUpdate (two vectors + scalars) does not.
  cluster_.site_sim(site).schedule_after(
      delay, [this, site, boxed = std::make_unique<PendingUpdate>(std::move(pending))]() {
        submit(site, std::move(*boxed));
      });
}

ProcId register_rmw_procedure(ProcedureRegistry& registry, const PartitionCatalog& catalog) {
  return registry.add("rmw", [&catalog](TxnContext& ctx) {
    const auto& ints = ctx.args().ints;
    OTPDB_CHECK_MSG(ints.size() >= 2, "rmw args: [delta, offset...]");
    const std::int64_t delta = ints[0];
    for (std::size_t i = 1; i < ints.size(); ++i) {
      const ObjectId obj =
          catalog.object(ctx.conflict_class(), static_cast<std::uint64_t>(ints[i]));
      ctx.write(obj, ctx.read_int(obj) + delta);
    }
  });
}

ProcId register_rmw_cross_procedure(ProcedureRegistry& registry) {
  return registry.add("rmw_cross", [](TxnContext& ctx) {
    const auto& ints = ctx.args().ints;
    OTPDB_CHECK_MSG(ints.size() >= 2, "rmw_cross args: [delta, object...]");
    const std::int64_t delta = ints[0];
    for (std::size_t i = 1; i < ints.size(); ++i) {
      const auto obj = static_cast<ObjectId>(ints[i]);
      ctx.write(obj, ctx.read_int(obj) + delta);
    }
  });
}

WorkloadDriver::WorkloadDriver(Cluster& cluster, WorkloadConfig config, std::uint64_t seed)
    : cluster_(cluster),
      config_(config),
      client_(cluster, site_rngs_, config.max_retries) {
  Rng master(seed);
  site_rngs_.reserve(cluster.site_count());
  for (std::size_t s = 0; s < cluster.site_count(); ++s) site_rngs_.push_back(master.split());
}

void WorkloadDriver::start() {
  OTPDB_CHECK(!started_);
  started_ = true;
  rmw_proc_ = register_rmw_procedure(cluster_.procedures(), cluster_.catalog());
  rmw_cross_proc_ = register_rmw_cross_procedure(cluster_.procedures());
  const SimTime horizon = cluster_.sim().now() + config_.duration;
  for (SiteId s = 0; s < cluster_.site_count(); ++s) schedule_next(s, horizon);
}

SimTime WorkloadDriver::next_gap(Rng& rng) const {
  const double mean_gap_ns =
      static_cast<double>(kSecond) / config_.updates_per_second_per_site;
  if (config_.poisson_arrivals) return static_cast<SimTime>(rng.exponential(mean_gap_ns));
  return static_cast<SimTime>(mean_gap_ns);
}

void WorkloadDriver::schedule_next(SiteId site, SimTime horizon) {
  // On the site's own shard, timed by the site's own rng stream.
  Simulator& sim = cluster_.site_sim(site);
  const SimTime at = sim.now() + next_gap(site_rngs_[site]);
  if (at > horizon) return;  // submission window closed for this site
  sim.schedule_at(at, [this, site, horizon] {
    submit_one(site);
    schedule_next(site, horizon);
  });
}

void WorkloadDriver::submit_one(SiteId site) {
  Rng& rng = site_rngs_[site];
  const auto& catalog = cluster_.catalog();

  if (config_.query_fraction > 0.0 && rng.bernoulli(config_.query_fraction)) {
    // Snapshot query spanning `query_classes` consecutive classes.
    const auto first = static_cast<ClassId>(
        rng.uniform_int(0, static_cast<std::int64_t>(catalog.class_count() - 1)));
    std::vector<ObjectId> objects;
    for (std::size_t c = 0; c < config_.query_classes; ++c) {
      const auto klass = static_cast<ClassId>((first + c) % catalog.class_count());
      for (std::size_t k = 0; k < config_.query_reads_per_class; ++k) {
        const auto off = static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(catalog.objects_per_class() - 1)));
        objects.push_back(catalog.object(klass, off));
      }
    }
    const SimTime exec = config_.exponential_exec
                             ? static_cast<SimTime>(rng.exponential(
                                   static_cast<double>(config_.mean_query_exec_time)))
                             : config_.mean_query_exec_time;
    ++queries_submitted_;
    cluster_.replica(site).submit_query(
        [objects = std::move(objects)](QueryContext& ctx) {
          std::int64_t sum = 0;
          for (ObjectId obj : objects) sum += ctx.read_int(obj);
          (void)sum;  // result observed by the done-callback via ctx reads
        },
        exec, nullptr);
    return;
  }

  // Short-circuit keeps the rng stream identical to the base model whenever
  // cross_class_fraction is 0 (seed-stable workloads).
  if (config_.cross_class_fraction > 0.0 && catalog.class_count() > 1 &&
      rng.bernoulli(config_.cross_class_fraction)) {
    submit_cross_class(site, rng);
    return;
  }

  const auto klass = static_cast<ClassId>(
      rng.zipf(static_cast<std::uint64_t>(catalog.class_count()), config_.class_skew_theta));
  TxnArgs args;
  args.ints.push_back(rng.uniform_int(1, 10));  // delta
  for (std::size_t i = 0; i < config_.ops_per_txn; ++i) {
    args.ints.push_back(
        rng.uniform_int(0, static_cast<std::int64_t>(catalog.objects_per_class() - 1)));
  }
  const SimTime exec =
      config_.exponential_exec
          ? static_cast<SimTime>(rng.exponential(static_cast<double>(config_.mean_exec_time)))
          : config_.mean_exec_time;
  ++updates_submitted_;
  PendingUpdate pending;
  pending.proc = rmw_proc_;
  pending.klass = klass;
  pending.args = std::move(args);
  pending.exec_duration = exec;
  if (config_.deadline_budget != 0) {
    pending.deadline = cluster_.site_sim(site).now() + config_.deadline_budget;
  }
  client_.submit(site, std::move(pending));
}

void WorkloadDriver::submit_cross_class(SiteId site, Rng& rng) {
  const auto& catalog = cluster_.catalog();
  const std::size_t span =
      std::min(std::max<std::size_t>(config_.cross_class_span, 2), catalog.class_count());
  const auto first = static_cast<ClassId>(
      rng.zipf(static_cast<std::uint64_t>(catalog.class_count()), config_.class_skew_theta));
  std::vector<ClassId> classes;
  classes.reserve(span);
  for (std::size_t c = 0; c < span; ++c) {
    classes.push_back(static_cast<ClassId>((first + c) % catalog.class_count()));
  }
  // One read-modify-write per covered class (round-robin beyond the span), so
  // the transaction genuinely touches every partition it locks.
  TxnArgs args;
  args.ints.push_back(rng.uniform_int(1, 10));  // delta
  const std::size_t ops = std::max(config_.ops_per_txn, span);
  for (std::size_t i = 0; i < ops; ++i) {
    const ClassId klass = classes[i % span];
    const auto off = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(catalog.objects_per_class() - 1)));
    args.ints.push_back(static_cast<std::int64_t>(catalog.object(klass, off)));
  }
  const SimTime exec =
      config_.exponential_exec
          ? static_cast<SimTime>(rng.exponential(static_cast<double>(config_.mean_exec_time)))
          : config_.mean_exec_time;
  ++updates_submitted_;
  ++cross_class_submitted_;
  PendingUpdate pending;
  pending.cross = true;
  pending.proc = rmw_cross_proc_;
  pending.classes = std::move(classes);
  pending.args = std::move(args);
  pending.exec_duration = exec;
  if (config_.deadline_budget != 0) {
    pending.deadline = cluster_.site_sim(site).now() + config_.deadline_budget;
  }
  client_.submit(site, std::move(pending));
}

}  // namespace otpdb
