#include "core/query_engine.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace otpdb {

QueryEngine::QueryEngine(Simulator& sim, const VersionedStore& store,
                         const PartitionCatalog& catalog, ReplicaMetrics& metrics)
    : QueryEngine(sim, store, catalog.class_count(),
                  [&catalog](ObjectId obj) { return Domain{catalog.class_of(obj)}; }, metrics) {}

QueryEngine::QueryEngine(Simulator& sim, const VersionedStore& store, std::size_t domain_count,
                         DomainOf domain_of, ReplicaMetrics& metrics)
    : sim_(sim),
      store_(store),
      domain_of_(std::move(domain_of)),
      metrics_(metrics),
      to_history_(domain_count),
      last_committed_(domain_count, 0) {}

QueryEngine::QuerySlot QueryEngine::acquire_slot() {
  if (!free_slots_.empty()) {
    const QuerySlot slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  pool_.emplace_back();
  return static_cast<QuerySlot>(pool_.size() - 1);
}

void QueryEngine::release_slot(QuerySlot slot) {
  pool_[slot].fn = nullptr;  // drop closures now; the slot object is recycled
  pool_[slot].done = nullptr;
  pool_[slot].live = false;
  free_slots_.push_back(slot);
}

void QueryEngine::submit(QueryFn fn, SimTime exec_duration, QueryDoneFn done) {
  const QuerySlot slot = acquire_slot();
  RunningQuery& query = pool_[slot];
  query.fn = std::move(fn);
  query.done = std::move(done);
  query.snapshot = last_to_index_;  // the "i" of the paper's index "i.5"
  query.submitted_at = sim_.now();
  query.attempts = 0;
  query.live = true;
  ++metrics_.queries_started;
  if (active_snapshots_.empty() || active_snapshots_.back().snapshot != query.snapshot) {
    OTPDB_ASSERT(active_snapshots_.empty() || active_snapshots_.back().snapshot < query.snapshot);
    active_snapshots_.push_back(SnapshotCount{query.snapshot, 0});
  }
  ++active_snapshots_.back().queries;
  query.first_run = sim_.schedule_after(exec_duration, [this, slot] { run(slot); });
}

void QueryEngine::advance_to_index(TOIndex index) {
  if (index <= committed_floor_) return;  // replay below the snapshot floor
  OTPDB_CHECK(index > last_to_index_);
  // The engines deliver indices contiguously; any skipped over (only unit
  // tests do that) stay outstanding, so the floor never passes an index it
  // has not seen finish.
  done_.resize(index - committed_floor_, false);
  last_to_index_ = index;
}

void QueryEngine::mark_done(TOIndex index) {
  if (index <= committed_floor_) return;
  OTPDB_CHECK_MSG(index <= last_to_index_, "finished an index never TO-delivered");
  done_[index - committed_floor_ - 1] = true;
  while (!done_.empty() && done_.front()) {
    done_.pop_front();
    ++committed_floor_;
  }
}

void QueryEngine::note_to_delivered(Domain domain, TOIndex index) {
  if (index > last_to_index_) advance_to_index(index);
  History& history = to_history_[domain];
  OTPDB_ASSERT(history.indices.empty() || history.indices.back() < index);
  if (history.indices.size() >= history.trim_at) {
    // No snapshot reads below the GC horizon, and snapshot_bound() stands
    // the committed floor in for the indices dropped here.
    auto& indices = history.indices;
    indices.erase(indices.begin(), std::lower_bound(indices.begin(), indices.end(), gc_horizon()));
    history.trim_at = std::max(History::kMinTrim, 2 * indices.size());
  }
  history.indices.push_back(index);
  if (index <= last_committed_[domain]) mark_done(index);  // replay: committed pre-crash
}

void QueryEngine::note_committed(Domain domain, TOIndex index) {
  OTPDB_ASSERT(last_committed_[domain] < index);
  last_committed_[domain] = index;
}

void QueryEngine::finish_commit(TOIndex index) {
  mark_done(index);
  const auto first = std::lower_bound(
      waiters_.begin(), waiters_.end(), index,
      [](const Waiter& w, TOIndex idx) { return w.index < idx; });
  auto last = first;
  while (last != waiters_.end() && last->index == index) ++last;
  if (first == last) return;
  // Collect before running: a rerun may park again and mutate waiters_.
  wake_scratch_.clear();
  for (auto it = first; it != last; ++it) wake_scratch_.push_back(it->slot);
  waiters_.erase(first, last);
  for (const QuerySlot slot : wake_scratch_) run(slot);
}

void QueryEngine::reset_volatile() {
  for (History& history : to_history_) history.indices.clear();
  // Everything at or below the committed floor is in the store, and GC kept
  // the versions a snapshot there reads.
  last_to_index_ = committed_floor_;
  done_.clear();
  for (QuerySlot slot = 0; slot < pool_.size(); ++slot) {
    if (!pool_[slot].live) continue;
    sim_.cancel(pool_[slot].first_run);  // no-op for parked queries: it fired
    ++metrics_.queries_dropped;
    release_slot(slot);
  }
  waiters_.clear();
  active_snapshots_.clear();
}

void QueryEngine::restore_watermarks(TOIndex durable_floor) {
  std::fill(last_committed_.begin(), last_committed_.end(), durable_floor);
  committed_floor_ = durable_floor;
  last_to_index_ = durable_floor;
  done_.clear();
}

TOIndex QueryEngine::gc_horizon() const {
  // Future snapshots start at last_to_index, and a warm recovery restarts
  // them at the committed floor, so the oldest snapshot a read can still use
  // is q_min = min(active, committed floor). A read at q_min needs the newest
  // version with index <= q_min, which VersionedStore::commit keeps when the
  // horizon is q_min + 1.
  const TOIndex q_min = active_snapshots_.empty()
                            ? committed_floor_
                            : std::min(committed_floor_, active_snapshots_.front().snapshot);
  return q_min + 1;
}

TOIndex QueryEngine::snapshot_bound(Domain domain, TOIndex snapshot) const {
  const auto& history = to_history_[domain].indices;
  auto it = std::upper_bound(history.begin(), history.end(), snapshot);
  const TOIndex from_history = it == history.begin() ? 0 : *std::prev(it);
  // Indices at or below the committed floor may be missing from the history
  // (a recovery cleared it, or they arrived as tombstones), but every one of
  // them is committed or dropped here, so the domain's youngest is at most
  // its commit watermark. Capped there, the floor stands in for them and an
  // idle domain never waits. The stand-in never exceeds the watermark, so in
  // normal operation the bound waits exactly when the history alone would.
  return std::max(from_history,
                  std::min({snapshot, committed_floor_, last_committed_[domain]}));
}

Value QueryEngine::read(ObjectId obj, TOIndex snapshot) const {
  const Domain domain = domain_of_(obj);
  OTPDB_CHECK_MSG(domain < to_history_.size(), "query read outside the catalogued objects");
  const TOIndex bound = snapshot_bound(domain, snapshot);
  if (bound > last_committed_[domain]) {
    // The version this snapshot must observe is TO-delivered but its commit
    // is still in flight locally: the query has to wait for it.
    throw detail::SnapshotNotReady{bound};
  }
  return store_.read_snapshot(obj, snapshot).value_or(Value{std::int64_t{0}});
}

void QueryEngine::run(QuerySlot slot) {
  RunningQuery& query = pool_[slot];
  ++query.attempts;
  if (query.attempts > 1) ++metrics_.query_retries;
  QueryContext ctx(
      query.snapshot, [this](ObjectId obj, TOIndex snapshot) { return read(obj, snapshot); },
      read_log_);
  try {
    query.fn(ctx);
  } catch (const detail::SnapshotNotReady& wait) {
    // Park sorted by the awaited index; upper_bound keeps arrival order
    // within an index (the old map<index, vector> FIFO semantics).
    const auto pos = std::upper_bound(
        waiters_.begin(), waiters_.end(), wait.index,
        [](TOIndex idx, const Waiter& w) { return idx < w.index; });
    waiters_.insert(pos, Waiter{wait.index, slot});
    return;
  }
  ++metrics_.queries_done;
  const auto active = std::lower_bound(
      active_snapshots_.begin(), active_snapshots_.end(), query.snapshot,
      [](const SnapshotCount& c, TOIndex snapshot) { return c.snapshot < snapshot; });
  OTPDB_ASSERT(active != active_snapshots_.end() && active->snapshot == query.snapshot);
  --active->queries;
  while (!active_snapshots_.empty() && active_snapshots_.front().queries == 0) {
    active_snapshots_.pop_front();
  }
  QueryReport report;
  report.snapshot_index = query.snapshot;
  report.submitted_at = query.submitted_at;
  report.completed_at = sim_.now();
  report.attempts = query.attempts;
  report.reads.swap(read_log_);  // lent to the report, taken back below
  metrics_.query_latency_ns.add(static_cast<double>(report.completed_at - report.submitted_at));
  // Move the completion callback out before releasing: done() may submit a
  // fresh query and legitimately reuse this slot.
  QueryDoneFn done = std::move(query.done);
  release_slot(slot);
  if (done) done(report);
  read_log_.swap(report.reads);
}

}  // namespace otpdb
