// Shared test harness: builds an n-site broadcast stack over the simulated
// network, records every Opt-/TO-delivery per site, and checks the five
// properties of Atomic Broadcast with Optimistic Delivery (paper Section 2.1).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "abcast/abcast.h"
#include "abcast/failure_detector.h"
#include "abcast/opt_abcast.h"
#include "abcast/sequencer_abcast.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb::test {

struct NumberedPayload final : Payload {
  std::uint64_t n = 0;
  explicit NumberedPayload(std::uint64_t v) : n(v) {}
};

enum class Protocol { optimistic, sequencer };

inline const char* protocol_name(Protocol p) {
  return p == Protocol::optimistic ? "optimistic" : "sequencer";
}

struct DeliveryLog {
  std::vector<MsgId> opt;                     // Opt-deliver order
  std::vector<std::pair<MsgId, TOIndex>> to;  // TO-deliver order + index
  // Interleaved event positions (one counter across both callback kinds) used
  // to verify the Local Order property exactly.
  std::size_t event_counter = 0;
  std::unordered_map<MsgId, std::size_t> opt_pos;
  std::unordered_map<MsgId, std::size_t> to_pos;
};

class AbcastHarness {
 public:
  AbcastHarness(Protocol protocol, std::size_t n_sites, NetConfig net_config,
                std::uint64_t seed, OptAbcastConfig opt_config = {})
      : protocol_(protocol), net_(sim_, n_sites, net_config, Rng(seed)), logs_(n_sites) {
    for (SiteId s = 0; s < n_sites; ++s) {
      fds_.push_back(
          std::make_unique<FailureDetector>(sim_, net_, s, FailureDetectorConfig{}));
    }
    for (SiteId s = 0; s < n_sites; ++s) {
      if (protocol == Protocol::optimistic) {
        endpoints_.push_back(
            std::make_unique<OptAbcast>(sim_, net_, *fds_[s], s, opt_config));
      } else {
        endpoints_.push_back(std::make_unique<SequencerAbcast>(sim_, net_, s));
      }
      DeliveryLog& log = logs_[s];
      endpoints_[s]->set_callbacks(AbcastCallbacks{
          [&log](const Message& m) {
            log.opt_pos[m.id] = log.event_counter++;
            log.opt.push_back(m.id);
          },
          [&log](const MsgId& id, TOIndex index) {
            log.to_pos[id] = log.event_counter++;
            log.to.emplace_back(id, index);
          },
      });
    }
    for (auto& fd : fds_) fd->start();
  }

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  AtomicBroadcast& endpoint(SiteId s) { return *endpoints_[s]; }
  const DeliveryLog& log(SiteId s) const { return logs_[s]; }
  std::size_t site_count() const { return logs_.size(); }

  /// Broadcasts `count` messages from rotating senders spaced `gap` apart.
  void broadcast_stream(std::uint64_t count, SimTime gap, SimTime start = 0) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const SiteId sender = static_cast<SiteId>(i % site_count());
      sim_.schedule_at(start + static_cast<SimTime>(i) * gap, [this, sender, i] {
        endpoints_[sender]->broadcast(std::make_shared<NumberedPayload>(i));
      });
    }
  }

  /// Asserts the five properties over `sites` (defaults to all), expecting
  /// `expected` messages delivered everywhere.
  void check_properties(std::uint64_t expected, std::vector<SiteId> sites = {}) {
    if (sites.empty()) {
      for (SiteId s = 0; s < site_count(); ++s) sites.push_back(s);
    }
    const DeliveryLog& ref = logs_[sites[0]];

    for (SiteId s : sites) {
      const DeliveryLog& log = logs_[s];
      // Termination + Global Agreement: everything reaches every site, both
      // optimistically and definitively.
      ASSERT_EQ(log.opt.size(), expected) << "site " << s << " opt count";
      ASSERT_EQ(log.to.size(), expected) << "site " << s << " TO count";
      // Local Agreement: every Opt-delivered message was TO-delivered (counts
      // equal and TO ids form the same set as opt ids).
      std::unordered_map<MsgId, int> balance;
      for (const MsgId& id : log.opt) ++balance[id];
      for (const auto& [id, index] : log.to) --balance[id];
      for (const auto& [id, v] : balance) {
        ASSERT_EQ(v, 0) << "site " << s << ": Opt/TO sets differ";
      }
      // Global Order: identical TO sequence (ids and indices) at all sites.
      ASSERT_EQ(log.to.size(), ref.to.size());
      for (std::size_t i = 0; i < log.to.size(); ++i) {
        EXPECT_EQ(log.to[i].first, ref.to[i].first)
            << "site " << s << " TO position " << i << " differs from site " << sites[0];
        EXPECT_EQ(log.to[i].second, ref.to[i].second) << "definitive index differs";
        EXPECT_EQ(log.to[i].second, i + 1) << "indices must be contiguous from 1";
      }
      // Local Order: a site Opt-delivers m strictly before TO-delivering m.
      for (const auto& [id, index] : log.to) {
        ASSERT_TRUE(log.opt_pos.contains(id))
            << "site " << s << " TO-delivered a message never Opt-delivered";
        EXPECT_LT(log.opt_pos.at(id), log.to_pos.at(id))
            << "site " << s << " violated Local Order";
      }
    }
  }

 private:
  Protocol protocol_;
  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<FailureDetector>> fds_;
  std::vector<std::unique_ptr<AtomicBroadcast>> endpoints_;
  std::vector<DeliveryLog> logs_;
};

}  // namespace otpdb::test
