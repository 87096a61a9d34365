#include "abcast/failure_detector.h"

#include <algorithm>

#include "abcast/channels.h"
#include "util/assert.h"
#include "util/log.h"

namespace otpdb {

namespace {
/// Cap on the backed-off timeout, as a multiple of `suspect_timeout`.
constexpr double kMaxTimeoutFactor = 8.0;
}  // namespace

struct FailureDetector::HeartbeatPayload final : Payload {
  TOIndex floor = 0;  // the sender's stable floor at send time

  void clear() { floor = 0; }
};

FailureDetector::FailureDetector(Simulator& sim, Network& net, SiteId self,
                                 FailureDetectorConfig config)
    : sim_(sim),
      net_(net),
      self_(self),
      config_(config),
      last_heard_(net.site_count(), 0),
      timeout_(net.site_count(), config.suspect_timeout),
      suspected_(net.site_count(), false),
      floors_(net.site_count(), 0) {
  net_.subscribe(self_, kChannelHeartbeat, [this](const Message& m) { on_heartbeat(m); });
}

FailureDetector::~FailureDetector() = default;

void FailureDetector::start() {
  OTPDB_CHECK(!started_);
  started_ = true;
  // Treat everyone as freshly heard at start so nobody is suspected before a
  // full timeout elapses.
  for (auto& t : last_heard_) t = sim_.now();
  tick();
}

std::size_t FailureDetector::alive_count() const {
  std::size_t n = 0;
  for (bool s : suspected_)
    if (!s) ++n;
  return n;
}

void FailureDetector::note_floor(SiteId site, TOIndex floor) {
  if (floor <= floors_[site]) return;
  const bool was_min = floors_[site] == stable_floor_;
  floors_[site] = floor;
  if (was_min) stable_floor_ = *std::min_element(floors_.begin(), floors_.end());
}

void FailureDetector::tick() {
  auto heartbeat = heartbeats_.acquire();
  if (floor_source_) {
    heartbeat->floor = floor_source_();
    note_floor(self_, heartbeat->floor);
  }
  net_.multicast(self_, kChannelHeartbeat, std::move(heartbeat));
  const SimTime now = sim_.now();
  for (SiteId s = 0; s < net_.site_count(); ++s) {
    if (s == self_) continue;
    const bool late = now - last_heard_[s] > timeout_[s];
    if (late && !suspected_[s]) {
      suspected_[s] = true;
      ++stats_.suspicions;
      OTPDB_DEBUG("fd") << "site " << self_ << " suspects " << s;
      if (on_suspect_) on_suspect_(s);
    }
  }
  sim_.schedule_after(config_.interval, [this] { tick(); });
}

void FailureDetector::on_heartbeat(const Message& msg) {
  note_floor(msg.from, payload_cast_fast<HeartbeatPayload>(msg)->floor);
  const SimTime now = sim_.now();
  const SimTime gap = now - last_heard_[msg.from];
  last_heard_[msg.from] = now;
  if (suspected_[msg.from]) {
    suspected_[msg.from] = false;
    ++stats_.restores;
    // Hysteresis: the suspicion was premature (the peer is alive), so back
    // off this peer's timeout before the next round of lateness.
    if (config_.timeout_backoff > 1.0) {
      const auto cap = static_cast<SimTime>(static_cast<double>(config_.suspect_timeout) *
                                            kMaxTimeoutFactor);
      timeout_[msg.from] = std::min(
          cap, static_cast<SimTime>(static_cast<double>(timeout_[msg.from]) *
                                    config_.timeout_backoff));
    }
    OTPDB_DEBUG("fd") << "site " << self_ << " restores " << msg.from;
    if (on_restore_) on_restore_(msg.from);
  } else if (timeout_[msg.from] > config_.suspect_timeout && gap <= 2 * config_.interval) {
    // Timely heartbeat on a backed-off peer: decay one interval back toward
    // the base timeout, so a healed link re-earns the fast detector.
    timeout_[msg.from] =
        std::max(config_.suspect_timeout, timeout_[msg.from] - config_.interval);
  }
}

}  // namespace otpdb
