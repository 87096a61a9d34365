// Per-transaction simulated timestamps the benchmark observes from outside
// the engine: the scheduled submit (the benchmark's own open-loop clients),
// Opt-delivery, TO-delivery and commit at the origin site, and query
// completion. Latency percentiles are computed from these, never from the
// library's own accumulators, so a change to those cannot move the figures.
//
// Every entry is written on the origin site's own shard (a site's callbacks
// only stamp that site's own transactions), so the per-site vectors need no
// lock under the sharded engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/txn.h"
#include "net/message.h"
#include "util/assert.h"
#include "util/types.h"

namespace perfbench {

constexpr otpdb::SimTime kUnset = -1;

struct UpdateStamp {
  std::uint64_t seq = 0;  ///< MsgId::seq at the origin (MsgId::sender is the site)
  otpdb::SimTime submit = 0;
  otpdb::SimTime opt = kUnset;
  otpdb::SimTime to = kUnset;
  otpdb::SimTime commit = kUnset;
  std::int64_t effect = 0;  ///< rmw: amount the transaction adds to the sum of all objects
};

struct QueryStamp {
  otpdb::SimTime submit = 0;
  otpdb::SimTime done = kUnset;
};

class Ledger {
 public:
  Ledger(std::size_t n_sites, std::size_t reserve_updates, std::size_t reserve_queries)
      : updates_(n_sites), queries_(n_sites), expected_(n_sites), max_committed_(n_sites, 0) {
    for (auto& v : updates_) v.reserve(reserve_updates);
    for (auto& v : queries_) v.reserve(reserve_queries);
  }

  /// The client is about to submit an update at `site`: the broadcast it
  /// triggers (if admitted) is stamped with this scheduled time and effect.
  void expect(otpdb::SiteId site, otpdb::SimTime at, std::int64_t effect) {
    expected_[site] = Expected{at, effect, true};
  }
  /// Returns true if the expected broadcast happened (the submit was admitted).
  bool settle(otpdb::SiteId site) {
    const bool consumed = !expected_[site].armed;
    expected_[site].armed = false;
    return consumed;
  }

  void on_broadcast(otpdb::SiteId site, const otpdb::MsgId& id) {
    Expected& e = expected_[site];
    OTPDB_CHECK_MSG(e.armed, "a broadcast the benchmark's clients did not submit");
    e.armed = false;
    std::vector<UpdateStamp>& v = updates_[site];
    OTPDB_CHECK(v.empty() || v.back().seq < id.seq);
    UpdateStamp stamp;
    stamp.seq = id.seq;
    stamp.submit = e.at;
    stamp.effect = e.effect;
    v.push_back(stamp);
  }

  void on_opt(otpdb::SiteId site, const otpdb::MsgId& id, otpdb::SimTime now) {
    if (id.sender != site) return;
    if (UpdateStamp* u = find(id); u != nullptr && u->opt == kUnset) u->opt = now;
  }

  void on_to(otpdb::SiteId site, const otpdb::MsgId& id, otpdb::TOIndex index,
             otpdb::SimTime now) {
    if (site == catchup_site_ && catchup_target_ > 0 && catchup_done_ == kUnset &&
        index >= catchup_target_) {
      catchup_done_ = now;
    }
    if (id.sender != site) return;
    if (UpdateStamp* u = find(id); u != nullptr && u->to == kUnset) u->to = now;
  }

  void on_commit(const otpdb::CommitRecord& record) {
    max_committed_[record.site] = std::max(max_committed_[record.site], record.index);
    if (record.site != record.txn.sender) return;
    if (UpdateStamp* u = find(record.txn); u != nullptr && u->commit == kUnset) {
      u->commit = record.at;
    }
  }

  std::size_t add_query(otpdb::SiteId site, otpdb::SimTime at) {
    queries_[site].push_back(QueryStamp{at, kUnset});
    return queries_[site].size() - 1;
  }
  void query_done(otpdb::SiteId site, std::size_t index, otpdb::SimTime at) {
    queries_[site][index].done = at;
  }

  /// Catch-up of a restarted site: done once it TO-delivers `target`.
  void watch_catchup(otpdb::SiteId site, otpdb::TOIndex target) {
    catchup_site_ = site;
    catchup_target_ = target;
    catchup_done_ = kUnset;
  }
  otpdb::SimTime catchup_done() const { return catchup_done_; }
  otpdb::TOIndex max_committed(otpdb::SiteId site) const { return max_committed_[site]; }

  const std::vector<std::vector<UpdateStamp>>& updates() const { return updates_; }
  const std::vector<std::vector<QueryStamp>>& queries() const { return queries_; }

 private:
  struct Expected {
    otpdb::SimTime at = 0;
    std::int64_t effect = 0;
    bool armed = false;
  };

  UpdateStamp* find(const otpdb::MsgId& id) {
    std::vector<UpdateStamp>& v = updates_[id.sender];
    auto it = std::lower_bound(v.begin(), v.end(), id.seq,
                               [](const UpdateStamp& u, std::uint64_t seq) { return u.seq < seq; });
    return it != v.end() && it->seq == id.seq ? &*it : nullptr;
  }

  std::vector<std::vector<UpdateStamp>> updates_;
  std::vector<std::vector<QueryStamp>> queries_;
  std::vector<Expected> expected_;
  std::vector<otpdb::TOIndex> max_committed_;
  otpdb::SiteId catchup_site_ = 0;
  otpdb::TOIndex catchup_target_ = 0;
  otpdb::SimTime catchup_done_ = kUnset;
};

}  // namespace perfbench
