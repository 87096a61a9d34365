// Deterministic discrete-event simulator.
//
// All otpdb experiments run an entire replicated cluster inside one Simulator:
// the network model schedules message arrivals, replicas schedule transaction
// execution completions, the broadcast protocols schedule timeouts. Events at
// equal timestamps fire in schedule order (stable FIFO tie-break), so a run is
// a pure function of (configuration, seed).
//
// An event costs one queue insert, one queue removal and one closure
// construction:
//   * Its closure is built directly in a slot and runs there, so it never
//     moves. Slots live in chunks of kChunkSlots that are allocated when the
//     store grows and never relocate: a running closure may schedule any
//     number of events without its captures moving under it. A fired or
//     cancelled slot goes onto an intrusive free list and is reused LIFO.
//     Captures must fit kActionCapacity bytes (a compile-time check), so once
//     the store and the queue have grown to their working size scheduling
//     allocates nothing.
//   * The queue is a 4-ary min-heap of 16-byte keys, (time, tag) compared as
//     one unsigned 128-bit integer. tag = sequence number << kSlotBits | slot:
//     sequence numbers grow with every schedule, so key order is the total
//     order (time, schedule order) and the pop order is exactly the FIFO
//     tie-break rule. The tag is also the event's EventId. A simulator thus
//     holds fewer than 2^24 events at a time and schedules fewer than 2^40
//     over its life (both checked).
//   * A slot holds the tag of its armed event; a key whose slot no longer
//     holds its tag belongs to a cancelled event. The top key is always live
//     (a cancel of the top event drops it, a pop drops the cancelled keys that
//     surface), so next_event_time() and run_until's bound test read one key.
//     Cancelled keys below the top never outnumber the live ones: the cancel
//     that would make them do compacts the queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/recycling.h"

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
/// 0 is the null handle.
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
  /// The largest closure an event may capture, in bytes. Sized for the
  /// largest closure the codebase schedules (the lazy engine's query
  /// completion: two std::functions plus a timestamp, 80 bytes) with a little
  /// headroom. Grow deliberately - every slot pays for it.
  static constexpr std::size_t kActionCapacity = 96;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `action`, a void() callable, at absolute time `at` (>= now).
  /// The closure is constructed in its slot and runs there. Returns a cancel
  /// handle.
  template <typename F>
  EventId schedule_at(SimTime at, F&& action);

  /// Schedules `action` `delay` after now (delay >= 0).
  template <typename F>
  EventId schedule_after(SimTime delay, F&& action) {
    OTPDB_CHECK(delay >= 0);
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Cancels a pending event and destroys its closure. Returns false if it
  /// already fired, is running, or was cancelled.
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
  SimTime next_event_time() const {
    return heap_.empty() ? kSimTimeMax : time_of(heap_.front());
  }

  /// Total events executed so far (for bench counters / loop guards).
  std::uint64_t executed() const { return executed_; }

 private:
  using Key = unsigned __int128;  // time << 64 | tag

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << (64 - kSlotBits);
  // 2 KB chunks: 8 KB ones made a five-simulator cluster's set-up about 8%
  // slower (perfbench rmw-wan setup_s).
  static constexpr std::uint32_t kChunkSlots = 16;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    alignas(std::max_align_t) unsigned char buf[kActionCapacity];
    void (*run)(void*);   // invokes the closure, then destroys it
    void (*drop)(void*);  // destroys it unrun; nullptr when trivially destructible
    std::uint64_t tag;    // the armed event's tag; 0 while running or free
    std::uint32_t next_free;
  };
  struct Chunk {
    Slot slots[kChunkSlots];
  };

  template <typename Fn>
  static void run_action(void* p) {
    Fn& fn = *static_cast<Fn*>(p);
    fn();
    if constexpr (!std::is_trivially_destructible_v<Fn>) fn.~Fn();
  }
  template <typename Fn>
  static void drop_action(void* p) {
    static_cast<Fn*>(p)->~Fn();
  }

  static SimTime time_of(Key key) { return static_cast<SimTime>(key >> 64); }
  static std::uint64_t tag_of(Key key) { return static_cast<std::uint64_t>(key); }
  static std::uint32_t slot_of(std::uint64_t tag) {
    return static_cast<std::uint32_t>(tag & kSlotMask);
  }

  Slot& slot(std::uint32_t index) {
    return chunks_[index / kChunkSlots]->slots[index % kChunkSlots];
  }
  bool live(Key key) { return slot(slot_of(tag_of(key))).tag == tag_of(key); }

  /// A free slot: the most recently released one, else a fresh one. A
  /// released slot's closure storage is poisoned under AddressSanitizer
  /// until it is handed out again, so a reference kept into a finished
  /// event's captures is reported as a use after free.
  std::uint32_t acquire_slot() {
    if (free_head_ == kNoSlot) return grow_slots();
    const std::uint32_t index = free_head_;
    Slot& s = slot(index);
    free_head_ = s.next_free;
    recycling_detail::unpoison(s.buf, kActionCapacity);
    return index;
  }
  std::uint32_t grow_slots();
  void release_slot(std::uint32_t index) {
    Slot& s = slot(index);
    recycling_detail::poison(s.buf, kActionCapacity);
    s.next_free = free_head_;
    free_head_ = index;
  }

  /// Queues the event whose closure slot `index` holds.
  EventId arm(std::uint32_t index, SimTime at);
  /// Pops the top key and runs its event. Pre: the queue is not empty.
  void fire_top();

  void push(Key key);
  void pop_top();
  void sift_down(std::size_t hole, Key key);
  /// Pops cancelled keys off the top until a live one (or nothing) is left.
  void drop_stale_tops();
  /// Removes every cancelled key and rebuilds the heap.
  void compact();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  // tags are never 0, the null EventId
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t stale_ = 0;  // cancelled keys still in heap_
  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots handed out so far
  std::uint32_t free_head_ = kNoSlot;
};

template <typename F>
EventId Simulator::schedule_at(SimTime at, F&& action) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_r_v<void, Fn&>, "an event action is a void() callable");
  static_assert(sizeof(Fn) <= kActionCapacity,
                "event capture exceeds Simulator::kActionCapacity - shrink the capture "
                "(capture pointers/indices, not values) or grow kActionCapacity deliberately");
  static_assert(alignof(Fn) <= alignof(std::max_align_t),
                "over-aligned event captures are not supported");
  OTPDB_CHECK_MSG(at >= now_, "cannot schedule an event in the simulated past");
  const std::uint32_t index = acquire_slot();
  Slot& s = slot(index);
  ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(action));
  s.run = &run_action<Fn>;
  s.drop = std::is_trivially_destructible_v<Fn> ? nullptr : &drop_action<Fn>;
  return arm(index, at);
}

}  // namespace otpdb
