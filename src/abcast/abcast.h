// Atomic Broadcast with Optimistic Delivery - the interface of paper Section 2.1.
//
// Three primitives:
//   TO-broadcast(m): broadcast(payload) below.
//   Opt-deliver(m):  callbacks.opt_deliver - fired as soon as the message
//                    arrives from the network; the sequence of these calls is
//                    the site's *tentative* order (no agreement yet).
//   TO-deliver(m):   callbacks.to_deliver - fired when the definitive total
//                    order of m is established; carries only the message id
//                    plus the definitive index (the body was already handed
//                    over by Opt-deliver), exactly as the paper prescribes.
//
// Implementations must satisfy the paper's five properties: Termination,
// Global Agreement, Local Agreement, Global Order, and Local Order (a site
// Opt-delivers m before it TO-delivers m). tests/abcast_properties_test.cc
// checks all five over randomized runs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "net/message.h"
#include "util/types.h"

namespace otpdb {

/// One definitive delivery: message id + its definitive index.
using ToDelivery = std::pair<MsgId, TOIndex>;

/// Delivery callbacks registered by the application (the transaction manager).
struct AbcastCallbacks {
  /// Tentative delivery, in network-arrival order. Carries the full message.
  std::function<void(const Message&)> opt_deliver;
  /// Definitive delivery confirmation: message id + its definitive index.
  /// Indices are contiguous from 1 and identical at all sites.
  std::function<void(const MsgId&, TOIndex)> to_deliver;
  /// Optional batched variant: when set, a burst of definitive deliveries
  /// (e.g. one decided consensus stage draining at once) arrives as a single
  /// call carrying the deliveries in definitive order, and `to_deliver` is
  /// not invoked for them. Entries are exactly what per-message delivery
  /// would have produced; receivers must process them in order.
  std::function<void(std::span<const ToDelivery>)> to_deliver_batch;
};

/// Dispatches a drained burst through the batched callback when the receiver
/// registered one, else per message. Shared by all broadcast implementations
/// so the delivery contract lives in one place.
inline void dispatch_to_deliver(const AbcastCallbacks& callbacks,
                                std::span<const ToDelivery> burst) {
  if (burst.empty()) return;
  if (callbacks.to_deliver_batch) {
    callbacks.to_deliver_batch(burst);
  } else if (callbacks.to_deliver) {
    for (const auto& [id, index] : burst) callbacks.to_deliver(id, index);
  }
}

/// Counters exposed by broadcast implementations (for benches and tests).
struct AbcastStats {
  std::uint64_t broadcasts = 0;
  std::uint64_t opt_delivered = 0;
  std::uint64_t to_delivered = 0;
  /// Sum over messages of (TO-deliver time - Opt-deliver time), nanoseconds;
  /// divide by to_delivered for the mean optimistic window.
  std::int64_t opt_to_gap_total_ns = 0;
  /// Catch-up TO-deliveries at or below the durable floor: the decision is
  /// replayed for ordering but the body is never fetched (the replica already
  /// holds the committed state on disk).
  std::uint64_t recovery_tombstones = 0;
  /// Message bodies fetched from peers during catch-up (the durable tail).
  std::uint64_t recovery_bodies_fetched = 0;
  /// Late data or consensus messages dropped because their slot lies below
  /// the cluster's stable floor (already trimmed; never delivered again).
  std::uint64_t below_floor_dropped = 0;
};

/// Per-site handle of an atomic broadcast protocol instance.
class AtomicBroadcast {
 public:
  virtual ~AtomicBroadcast() = default;

  /// TO-broadcast: injects a message destined to all sites (self included).
  /// Returns the message id by which deliveries will refer to it.
  virtual MsgId broadcast(PayloadPtr payload) = 0;

  /// Registers delivery callbacks. Must be called before any broadcast.
  virtual void set_callbacks(AbcastCallbacks callbacks) = 0;

  /// The site this instance runs on.
  virtual SiteId site() const = 0;

  virtual const AbcastStats& stats() const = 0;

  /// Sender-side backpressure: true while this site's in-flight undelivered
  /// broadcasts are at their configured cap and new submissions should be
  /// refused upstream (the ingress gate) instead of growing protocol state
  /// unboundedly. Default: never (protocols without a cap).
  virtual bool backpressured() const { return false; }
};

}  // namespace otpdb
