// Deterministic discrete-event simulator.
//
// All otpdb experiments run an entire replicated cluster inside one Simulator:
// the network model schedules message arrivals, replicas schedule transaction
// execution completions, the broadcast protocols schedule timeouts. Events at
// equal timestamps fire in schedule order (stable FIFO tie-break), so a run is
// a pure function of (configuration, seed).
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "sim/inline_action.h"
#include "util/assert.h"

namespace otpdb {

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

/// Sentinel for "no event pending" (see Simulator::next_event_time).
constexpr SimTime kSimTimeMax = INT64_MAX;

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Encodes (slot, generation) into one word; 0 is the null handle.
struct EventId {
  std::uint64_t value = 0;
  bool operator==(const EventId&) const = default;
};

/// Single-threaded discrete-event engine.
///
/// The sharded cluster engine (sim/sharded_engine.h) runs one Simulator per
/// site plus one for the network hub and advances them in rounds; a message
/// a site sends to another during its phase goes through the SharedMedium
/// staging cells, never directly into the receiver's queue.
class Simulator {
 public:
  /// Inline-only callback: captures must fit InlineAction::kCapacity (a
  /// compile-time check), so scheduling an event never heap-allocates.
  using Action = InlineAction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `at` (>= now). Returns a cancel handle.
  EventId schedule_at(SimTime at, Action action);

  /// Schedules `action` `delay` after now (delay >= 0).
  EventId schedule_after(SimTime delay, Action action);

  /// Cancels a pending event. Returns false if it already fired or was cancelled.
  bool cancel(EventId id);

  /// Runs the earliest pending event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue empties or `limit` events have fired.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX);

  /// Runs events with time <= deadline; afterwards now() == max(now, deadline).
  void run_until(SimTime deadline);

  /// Pending (non-cancelled) event count.
  std::size_t pending() const { return live_; }

  /// Firing time of the earliest pending event, or kSimTimeMax when idle.
  /// (Non-const: drops stale cancelled heap entries as a side effect.)
  SimTime next_event_time();

  /// Total events executed so far (for bench counters / loop guards).
  std::uint64_t executed() const { return executed_; }

 private:
  // Actions live in a recycled slot pool; heap entries reference slots by
  // index and carry the slot's generation so cancelled/stale entries are
  // recognized with one array probe (no hash tables on the event hot path).
  struct Slot {
    Action action;
    std::uint32_t generation = 0;
    bool armed = false;
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // schedule order; breaks timestamp ties FIFO
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Pops heap entries until the top references a live event (or the heap is
  /// empty). Returns false when nothing is pending.
  bool settle_top();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace otpdb
