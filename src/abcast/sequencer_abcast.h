// Fixed-sequencer atomic broadcast with optimistic delivery.
//
// The classic total-order construction (Isis/Amoeba style): data messages are
// multicast to all sites; one distinguished site (the sequencer) assigns
// consecutive definitive indices in its arrival order and multicasts ORDER
// confirmations. Every site Opt-delivers data on arrival (tentative order) and
// TO-delivers in index order once both the ORDER confirmation and the data
// message itself have arrived (Local Order property).
//
// Serves two roles in this repository:
//  * baseline ordering protocol for the benches (its TO latency is one
//    network hop behind OptAbcast's fast path but it is mismatch-immune at
//    the sequencer site), and
//  * a second, structurally different implementation of the AtomicBroadcast
//    interface exercising the same property test suite.
//
// Site 0 is the sequencer. Fault model: tolerates crash of non-sequencer
// sites only; OptAbcast is the crash-tolerant protocol (f < n/2).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "abcast/abcast.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace otpdb {

class SequencerAbcast final : public AtomicBroadcast {
 public:
  SequencerAbcast(Simulator& sim, Network& net, SiteId self);

  MsgId broadcast(PayloadPtr payload) override;
  void set_callbacks(AbcastCallbacks callbacks) override;
  SiteId site() const override { return self_; }
  const AbcastStats& stats() const override { return stats_; }

  TOIndex next_index() const { return next_expected_; }

 private:
  void on_data(const Message& msg);
  void on_order(const Message& msg);
  void drain();

  Simulator& sim_;
  Network& net_;
  SiteId self_;
  AbcastCallbacks callbacks_;

  std::unordered_set<MsgId> arrived_;
  std::unordered_map<MsgId, SimTime> opt_time_;
  std::map<TOIndex, MsgId> order_book_;  // confirmations not yet TO-delivered
  TOIndex next_assign_ = 1;              // sequencer role: next index to hand out
  TOIndex next_expected_ = 1;            // delivery role: next index to TO-deliver
  AbcastStats stats_;
  std::vector<ToDelivery> drain_scratch_;  // reused burst buffer (drain)
};

}  // namespace otpdb
