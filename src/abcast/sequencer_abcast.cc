#include "abcast/sequencer_abcast.h"

#include "abcast/channels.h"
#include "util/assert.h"

namespace otpdb {
namespace {

constexpr SiteId kSequencer = 0;  ///< the site that assigns the definitive indices

struct OrderPayload final : Payload {
  MsgId subject;
  TOIndex index = 0;
};

}  // namespace

SequencerAbcast::SequencerAbcast(Simulator& sim, Network& net, SiteId self)
    : sim_(sim), net_(net), self_(self) {
  net_.subscribe(self_, kChannelData, [this](const Message& m) { on_data(m); });
  net_.subscribe(self_, kChannelSequencer, [this](const Message& m) { on_order(m); });
}

MsgId SequencerAbcast::broadcast(PayloadPtr payload) {
  ++stats_.broadcasts;
  return net_.multicast(self_, kChannelData, std::move(payload));
}

void SequencerAbcast::set_callbacks(AbcastCallbacks callbacks) {
  callbacks_ = std::move(callbacks);
}

void SequencerAbcast::on_data(const Message& msg) {
  OTPDB_ASSERT(!arrived_.contains(msg.id));
  arrived_.insert(msg.id);
  opt_time_[msg.id] = sim_.now();
  ++stats_.opt_delivered;
  if (callbacks_.opt_deliver) callbacks_.opt_deliver(msg);

  if (self_ == kSequencer) {
    auto order = std::make_shared<OrderPayload>();
    order->subject = msg.id;
    order->index = next_assign_++;
    net_.multicast(self_, kChannelSequencer, std::move(order));
  }
  drain();
}

void SequencerAbcast::on_order(const Message& msg) {
  const auto* order = payload_cast_fast<OrderPayload>(msg);
  OTPDB_CHECK(order != nullptr);
  OTPDB_ASSERT(!order_book_.contains(order->index));
  order_book_[order->index] = order->subject;
  drain();
}

void SequencerAbcast::drain() {
  // Same collect-then-dispatch pattern as OptAbcast::drain_decided: the
  // deliverable prefix cannot grow synchronously during dispatch.
  drain_scratch_.clear();
  while (true) {
    auto it = order_book_.find(next_expected_);
    if (it == order_book_.end()) break;
    if (!arrived_.contains(it->second)) break;  // Local Order: data must precede
    const MsgId id = it->second;
    const TOIndex index = it->first;
    order_book_.erase(it);
    ++next_expected_;
    ++stats_.to_delivered;
    stats_.opt_to_gap_total_ns += sim_.now() - opt_time_[id];
    drain_scratch_.emplace_back(id, index);
  }
  dispatch_to_deliver(callbacks_, drain_scratch_);
}

}  // namespace otpdb
