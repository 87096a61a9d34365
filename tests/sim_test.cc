// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"
// Defines the counting global operator new (one TU per binary): pins the
// guarantee that steady-state event scheduling never touches the heap. The
// tests compare otpdb::heap_alloc_count across hot loops.
#include "util/counting_new.h"

namespace otpdb {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsFireInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimestampsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterFireFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(25);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 25);
  sim.run_until(100);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilAdvancesTimeWithEmptyQueue) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 9);
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.run(), 6u);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulator, PendingExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.schedule_at(1, [] {});
  sim.schedule_at(2, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

// -- Allocation guarantees and closure storage ---------------------------------

/// Self-rescheduling event with a trivially-copyable capture: the shape of
/// every hot-path closure (this + an index or two).
struct Recur {
  Simulator* sim;
  std::uint64_t* fired;
  void operator()() const {
    ++*fired;
    sim->schedule_after(10, Recur{sim, fired});
  }
};

TEST(Simulator, SteadyStateSchedulingDoesNotAllocate) {
  Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 64; ++i) sim.schedule_at(i, Recur{&sim, &fired});
  // Warm-up: slot store and queue reach their working size.
  sim.run(8 * 1024);
  const std::uint64_t before = heap_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t fired_before = fired;
  sim.run(64 * 1024);
  EXPECT_EQ(heap_alloc_count.load(std::memory_order_relaxed), before)
      << "steady-state event scheduling touched the heap";
  EXPECT_EQ(fired - fired_before, 64u * 1024u);
}

TEST(Simulator, SteadyStateCancelDoesNotAllocate) {
  Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 16; ++i) sim.schedule_at(i, Recur{&sim, &fired});
  // Churn pattern of the protocol stack: a timer scheduled slightly ahead and
  // cancelled before it fires (cancelled keys leave the queue, so it stays
  // bounded). Warm up with the same pattern first.
  auto churn = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const EventId doomed = sim.schedule_after(1, Recur{&sim, &fired});
      EXPECT_TRUE(sim.cancel(doomed));
      sim.step();
    }
  };
  churn(1024);
  const std::uint64_t before = heap_alloc_count.load(std::memory_order_relaxed);
  churn(4096);
  EXPECT_EQ(heap_alloc_count.load(std::memory_order_relaxed), before)
      << "schedule/cancel churn touched the heap";
}

/// Counts its copies and records where the last one was made and where it
/// runs: a closure relocated after scheduling would be copied again.
struct AddressProbe {
  const void** built;
  const void** ran;
  int* copies;
  AddressProbe(const void** b, const void** r, int* c) : built(b), ran(r), copies(c) {}
  AddressProbe(const AddressProbe& other)
      : built(other.built), ran(other.ran), copies(other.copies) {
    ++*copies;
    *built = this;
  }
  void operator()() const { *ran = this; }
};

TEST(Simulator, ClosuresRunWhereTheyWereBuilt) {
  Simulator sim;
  const void* built = nullptr;
  const void* ran = nullptr;
  int copies = 0;
  const AddressProbe probe(&built, &ran, &copies);
  sim.schedule_at(5, probe);
  // More events than one slot chunk holds: the store grows while the probe
  // waits, and must not move it.
  for (int i = 0; i < 1000; ++i) sim.schedule_at(1, [] {});
  sim.run();
  EXPECT_EQ(copies, 1) << "the closure was moved after it was built";
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(ran, built);
}

TEST(Simulator, NonTrivialCapturesAreDestroyedOnce) {
  // A closure that owns resources is destroyed exactly once: after it runs,
  // when it is cancelled, or with the simulator while it is still pending -
  // next to a cancelled event whose key is still queued.
  auto counter = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.schedule_at(5, [counter, p = std::make_unique<int>(7)] { *counter += *p; });
    const EventId doomed = sim.schedule_at(6, [counter] { *counter += 100; });
    sim.schedule_at(50, [counter] { *counter += 1000; });
    sim.schedule_at(55, [] {});
    const EventId late = sim.schedule_at(60, [counter] { *counter += 10000; });
    EXPECT_EQ(counter.use_count(), 5);
    EXPECT_TRUE(sim.cancel(doomed));
    EXPECT_EQ(counter.use_count(), 4) << "a cancelled closure was not destroyed";
    sim.run_until(10);
    EXPECT_EQ(counter.use_count(), 3) << "a fired closure was not destroyed";
    EXPECT_TRUE(sim.cancel(late));  // its key stays queued behind the pending ones
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(*counter, 7);
  EXPECT_EQ(counter.use_count(), 1) << "a pending closure leaked with its simulator";
}

TEST(Simulator, CancelledTimersDoNotAccumulate) {
  // The consensus round timer's shape, compressed: a 1 s timer is armed and
  // cancelled 1 us later, 100k times, next to one live event. Cancelled
  // entries must leave the queue long before their second passes, so once
  // warm the simulator allocates nothing.
  struct Rearm {
    Simulator* sim;
    EventId* timer;
    int* left;
    void operator()() const {
      EXPECT_TRUE(sim->cancel(*timer));
      if (--*left == 0) return;
      *timer = sim->schedule_after(kSecond, [] { ADD_FAILURE() << "a cancelled timer fired"; });
      sim->schedule_after(kMicrosecond, *this);
    }
  };
  Simulator sim;
  EventId timer = sim.schedule_after(kSecond, [] {});
  int left = 1000;
  sim.schedule_after(kMicrosecond, Rearm{&sim, &timer, &left});
  sim.run();  // warm-up
  ASSERT_EQ(left, 0);

  left = 100000;
  timer = sim.schedule_after(kSecond, [] {});
  sim.schedule_after(kMicrosecond, Rearm{&sim, &timer, &left});
  const std::uint64_t before = heap_alloc_count.load(std::memory_order_relaxed);
  sim.run();
  EXPECT_EQ(heap_alloc_count.load(std::memory_order_relaxed), before)
      << "cancelled timers piled up in the queue";
  EXPECT_EQ(left, 0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.next_event_time(), kSimTimeMax);
}

TEST(Simulator, CancellingTheNextEventMovesNextEventTime) {
  Simulator sim;
  const EventId first = sim.schedule_at(10, [] {});
  const EventId second = sim.schedule_at(20, [] {});
  sim.schedule_at(30, [] {});
  EXPECT_EQ(sim.next_event_time(), 10);
  EXPECT_TRUE(sim.cancel(second));
  EXPECT_EQ(sim.next_event_time(), 10);
  EXPECT_TRUE(sim.cancel(first));
  EXPECT_EQ(sim.next_event_time(), 30);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.now(), 30);
}

// -- Differential test against a reference queue ----------------------------

/// Drives a Simulator and a reference model - a sorted map keyed by
/// (time, schedule order) - through the same random operations, and checks
/// after every one that the simulator fires exactly the reference's earliest
/// event and agrees on cancels, pending count and next event time.
class ReferenceHarness {
 public:
  explicit ReferenceHarness(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      if (op == ops / 2) schedule_grower();
      switch (rng_.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2:
          schedule(random_delay());
          break;
        case 3:
          cancel(random_event());
          break;
        case 4: {
          const bool had_pending = !ref_.empty();
          EXPECT_EQ(sim_.step(), had_pending);
          break;
        }
        case 5:
          sim_.run(static_cast<std::uint64_t>(rng_.uniform_int(1, 20)));
          break;
        case 6:
          run_until(sim_.now() + rng_.uniform_int(0, 40));
          break;
        case 7:
          // Past the last event, then a schedule at the new now().
          run_until((ref_.empty() ? sim_.now() : ref_.rbegin()->first.first) +
                    rng_.uniform_int(0, 3));
          schedule(0);
          break;
        case 8:
          if (rng_.bernoulli(0.1)) timer_burst();
          break;
        default:
          break;  // just the checks below, between schedules
      }
      check_front();
    }
    sim_.run();
    EXPECT_TRUE(ref_.empty());
    check_front();
  }

  std::size_t fired() const { return fired_; }
  std::size_t cancelled() const { return cancelled_; }
  std::size_t events() const { return events_.size(); }
  long token_uses() const { return token_.use_count(); }

 private:
  using RefKey = std::pair<SimTime, std::uint64_t>;  // (time, schedule order)

  struct Event {
    EventId handle;
    RefKey key;
  };

  SimTime random_delay() {
    // Mostly tiny delays, so equal timestamps are common.
    switch (rng_.uniform_int(0, 5)) {
      case 0:
      case 1:
        return 0;
      case 2:
        return 1;
      case 3:
        return rng_.uniform_int(2, 5);
      case 4:
        return rng_.uniform_int(6, 50);
      default:
        return rng_.uniform_int(51, 2000);
    }
  }

  /// Any event ever scheduled (pending, fired, cancelled or running), most
  /// often a recent one, which is likelier still to be pending.
  std::size_t random_event() {
    const auto n = static_cast<std::int64_t>(events_.size());
    if (n == 0) return 0;
    const std::int64_t lo = rng_.bernoulli(0.7) ? std::max<std::int64_t>(0, n - 64) : 0;
    return static_cast<std::size_t>(rng_.uniform_int(lo, n - 1));
  }

  void record(std::size_t id, SimTime at) {
    const RefKey key{at, next_seq_++};
    events_[id].key = key;
    ref_.emplace(key, id);
  }

  void schedule(SimTime delay) {
    const std::size_t id = events_.size();
    events_.push_back({});
    const SimTime at = sim_.now() + delay;
    // Every fourth closure owns a resource, so cancels and fires exercise
    // the destroying paths too.
    if (id % 4 == 0) {
      events_[id].handle = sim_.schedule_at(at, [this, id, token = token_] {
        EXPECT_GE(token.use_count(), 2);
        on_fire(id);
      });
    } else {
      events_[id].handle = sim_.schedule_at(at, [this, id] { on_fire(id); });
    }
    record(id, at);
  }

  /// An event that schedules 10k events while it runs: the slot store grows
  /// under the running closure, whose captures must stay intact.
  void schedule_grower() {
    const std::size_t id = events_.size();
    events_.push_back({});
    std::array<std::uint64_t, 10> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = 0x9e3779b97f4a7c15ULL * (i + id);
    const SimTime at = sim_.now() + random_delay();
    events_[id].handle = sim_.schedule_at(at, [this, id, payload] {
      on_fire(id);
      for (int i = 0; i < 10000; ++i) schedule(random_delay());
      for (std::size_t i = 0; i < payload.size(); ++i) {
        ASSERT_EQ(payload[i], 0x9e3779b97f4a7c15ULL * (i + id)) << "capture changed under growth";
      }
    });
    record(id, at);
  }

  /// Far-future timers, most of them cancelled at once: their stale queue
  /// entries outnumber the live events, so the queue compacts.
  void timer_burst() {
    const std::size_t first = events_.size();
    for (int i = 0; i < 50; ++i) schedule(rng_.uniform_int(5000, 6000));
    for (std::size_t id = first; id < events_.size(); ++id) {
      if (!rng_.bernoulli(0.1)) cancel(id);
    }
  }

  void cancel(std::size_t id) {
    if (id >= events_.size()) return;
    const bool pending = ref_.erase(events_[id].key) == 1;
    EXPECT_EQ(sim_.cancel(events_[id].handle), pending) << "event " << id;
    if (pending) ++cancelled_;
  }

  void run_until(SimTime deadline) {
    const SimTime before = sim_.now();
    sim_.run_until(deadline);
    EXPECT_EQ(sim_.now(), std::max(before, deadline));
    EXPECT_TRUE(ref_.empty() || ref_.begin()->first.first > deadline);
  }

  void on_fire(std::size_t id) {
    ++fired_;
    ASSERT_FALSE(ref_.empty()) << "fired event " << id << " with nothing pending";
    const auto first = ref_.begin();
    ASSERT_EQ(first->second, id) << "fired out of (time, schedule order)";
    EXPECT_EQ(first->first.first, sim_.now());
    ref_.erase(first);
    // Actions from inside a running event: cancel itself (it is running, so
    // the cancel fails), cancel another event, schedule more.
    if (rng_.bernoulli(0.1)) cancel(id);
    if (rng_.bernoulli(0.2)) cancel(random_event());
    if (rng_.bernoulli(0.3)) schedule(random_delay());
    if (rng_.bernoulli(0.1)) schedule(random_delay());
    check_front();
  }

  void check_front() {
    EXPECT_EQ(sim_.pending(), ref_.size());
    EXPECT_EQ(sim_.next_event_time(), ref_.empty() ? kSimTimeMax : ref_.begin()->first.first);
  }

  Rng rng_;
  Simulator sim_;
  std::map<RefKey, std::size_t> ref_;  // pending events
  std::vector<Event> events_;          // every event ever scheduled, by id
  std::uint64_t next_seq_ = 0;
  std::size_t fired_ = 0;
  std::size_t cancelled_ = 0;
  std::shared_ptr<int> token_ = std::make_shared<int>(0);
};

TEST(SimulatorDifferential, MatchesSortedReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ReferenceHarness harness(seed);
    harness.run(20000);
    // The random mix must actually exercise firing, cancelling and growth.
    EXPECT_GT(harness.fired(), 10000u);
    EXPECT_GT(harness.cancelled(), 1000u);
    EXPECT_EQ(harness.fired() + harness.cancelled(), harness.events());
    EXPECT_EQ(harness.token_uses(), 1) << "a closure that owns a resource leaked";
  }
}

TEST(Simulator, CancelledEventDoesNotBlockRunUntil) {
  Simulator sim;
  bool fired = false;
  const EventId a = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(a);
  sim.schedule_at(20, [&] { fired = true; });
  sim.run_until(15);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 15);
}

}  // namespace
}  // namespace otpdb
