// Component micro-benchmarks (wall-clock): the hot data structures and code
// paths underlying the simulation-level experiments - event queue, RNG,
// versioned store, class queue, network message path, consensus instance,
// end-to-end single-transaction processing.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "abcast/consensus.h"
#include "abcast/opt_abcast.h"
#include "core/class_queue.h"
#include "core/cluster.h"
#include "db/txn_interner.h"
#include "db/versioned_store.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/workload.h"

// Defines the counting global operator new (one TU per binary): lets
// BM_SimulatorSteadyStateChurn and BM_SimulatorProtocolShape report
// allocations per event (expected: 0.0 — an oversized event capture is a
// compile error, so the cost cannot silently reappear).
#include "util/counting_new.h"

namespace otpdb::bench {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNext);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.zipf(64, 0.99));
}
BENCHMARK(BM_RngZipf);

void BM_SimulatorScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) sim.schedule_at(i, [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleAndRun);

/// Steady-state event churn with the allocation counter attached: a pool of
/// self-rescheduling events (the hot-path closure shape: a pointer or two)
/// runs with constant pending count. allocs_per_event must be 0.0 — the
/// proof that per-event heap allocations stay off the path.
void BM_SimulatorSteadyStateChurn(benchmark::State& state) {
  struct Recur {
    Simulator* sim;
    void operator()() const { sim->schedule_after(10, Recur{sim}); }
  };
  Simulator sim;
  for (int i = 0; i < 64; ++i) sim.schedule_at(i, Recur{&sim});
  sim.run(8 * 1024);  // warm-up: slot store and queue reach their working size
  const std::uint64_t allocs_before = heap_alloc_count.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    constexpr std::uint64_t kChunk = 4096;
    events += sim.run(kChunk);
  }
  const std::uint64_t allocs = heap_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_event"] =
      events ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorSteadyStateChurn);

/// The event shape of a protocol run: about 45 live events whose delays
/// spread over 50 us - 3 ms (network deliveries, executions), and a 30 ms
/// round timer that is armed and cancelled about once per 5 events, as
/// each consensus instance's timer is at its decision. Times are out of
/// order and cancelled timers linger, unlike BM_SimulatorScheduleAndRun's
/// monotone schedule. Reports the time and the allocations per event.
void BM_SimulatorProtocolShape(benchmark::State& state) {
  struct World {
    Simulator sim;
    std::vector<SimTime> delays;
    std::size_t next_delay = 0;
    std::uint64_t hops = 0;
    EventId timer{};
  };
  struct Hop {
    World* w;
    void operator()() const {
      if (++w->hops % 5 == 0) {
        w->sim.cancel(w->timer);
        w->timer = w->sim.schedule_after(30 * kMillisecond, [] {});
      }
      const SimTime delay = w->delays[w->next_delay++ % w->delays.size()];
      w->sim.schedule_after(delay, Hop{w});
    }
  };
  World w;
  Rng rng(11);
  w.delays.resize(4096);
  for (SimTime& d : w.delays) d = rng.uniform_int(50 * kMicrosecond, 3 * kMillisecond);
  for (int i = 0; i < 45; ++i) w.sim.schedule_after(w.delays[static_cast<std::size_t>(i)], Hop{&w});
  w.sim.run(64 * 1024);  // warm-up: slot store and queue reach their working size
  const std::uint64_t allocs_before = heap_alloc_count.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    constexpr std::uint64_t kChunk = 4096;
    events += w.sim.run(kChunk);
  }
  const std::uint64_t allocs = heap_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_event"] =
      events ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
  // Seconds per event, printed with an SI prefix (25n is 25 ns).
  state.counters["time_per_event"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorProtocolShape);

void BM_StoreWriteCommit(benchmark::State& state) {
  VersionedStore store(128);
  TOIndex index = 1;
  for (auto _ : state) {
    const TxnId txn = 0;  // dense ids recycle; same slot reused every commit
    store.write(txn, index % 128, Value{static_cast<std::int64_t>(index)});
    store.commit(txn, index);
    ++index;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreWriteCommit);

void BM_StoreSnapshotRead(benchmark::State& state) {
  VersionedStore store(16);
  for (TOIndex i = 1; i <= 1024; ++i) {
    store.write(0, i % 16, Value{static_cast<std::int64_t>(i)});
    store.commit(0, i);
  }
  TOIndex snap = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.read_snapshot_ptr(snap % 16, snap % 1024));
    ++snap;
  }
}
BENCHMARK(BM_StoreSnapshotRead);

void BM_StoreReadForTxn(benchmark::State& state) {
  // Transaction-scoped read with a populated write-set: the inner loop of
  // every stored procedure (read-your-writes check + committed fallback).
  VersionedStore store(64);
  for (ObjectId obj = 0; obj < 64; ++obj) store.load(obj, Value{std::int64_t{1}});
  const TxnId txn = 0;
  for (ObjectId obj = 0; obj < 4; ++obj) store.write(txn, obj, Value{std::int64_t{2}});
  ObjectId obj = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.read_for_txn_ptr(txn, obj % 64));
    ++obj;
  }
}
BENCHMARK(BM_StoreReadForTxn);

void BM_TxnInternerRoundTrip(benchmark::State& state) {
  // intern -> lookup -> release, the per-transaction identity cost of the
  // dense-id scheme (one hash at Opt-deliver, one at TO-deliver).
  TxnIdInterner interner;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const MsgId id{0, seq++};
    const TxnId tid = interner.intern(id);
    benchmark::DoNotOptimize(interner.find(id));
    interner.release(tid);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TxnInternerRoundTrip);

void BM_ClassQueueReorder(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<TxnRecord>> txns;
  for (std::size_t i = 0; i < depth; ++i) {
    txns.push_back(std::make_unique<TxnRecord>());
    txns.back()->id = MsgId{0, i};
    txns.back()->deliv = DeliveryState::pending;
  }
  FreeBlocks blocks;
  for (auto _ : state) {
    ClassQueue q(0, &blocks);
    for (auto& t : txns) {
      t->deliv = DeliveryState::pending;
      q.append(t.get());
    }
    // Reverse TO order: every transaction reorders to the committable prefix.
    for (auto it = txns.rbegin(); it != txns.rend(); ++it) {
      (*it)->deliv = DeliveryState::committable;
      q.reorder_before_first_pending(it->get());
    }
    benchmark::DoNotOptimize(q.head());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_ClassQueueReorder)->Arg(8)->Arg(64);

void BM_NetworkMulticastPath(benchmark::State& state) {
  Simulator sim;
  NetConfig cfg;
  cfg.hiccup_prob = 0;
  Network net(sim, 4, cfg, Rng(1));
  struct Blank final : Payload {};
  std::uint64_t delivered = 0;
  for (SiteId s = 0; s < 4; ++s) {
    net.subscribe(s, 0, [&delivered](const Message&) { ++delivered; });
  }
  auto payload = std::make_shared<Blank>();
  for (auto _ : state) {
    net.multicast(0, 0, payload);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_NetworkMulticastPath);

void BM_ConsensusInstanceFastPath(benchmark::State& state) {
  // Cost of a full 4-site consensus instance deciding via the fast path,
  // including all simulated message deliveries.
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    NetConfig cfg;
    cfg.hiccup_prob = 0;
    Network net(sim, 4, cfg, Rng(1));
    std::vector<std::unique_ptr<ConsensusHost>> hosts;
    for (SiteId s = 0; s < 4; ++s) {
      hosts.push_back(std::make_unique<ConsensusHost>(sim, net, s, ConsensusConfig{}));
    }
    state.ResumeTiming();
    const ConsensusHost::Sequence value{{0, 1}, {1, 1}};
    for (SiteId s = 0; s < 4; ++s) hosts[s]->propose(0, value);
    sim.run_until(kSecond);
    benchmark::DoNotOptimize(hosts[0]->stats().instances_decided);
  }
}
BENCHMARK(BM_ConsensusInstanceFastPath);

void BM_EndToEndTransaction(benchmark::State& state) {
  // Wall-clock cost of simulating one complete replicated transaction
  // (broadcast, optimistic execution at 4 sites, ordering, commit).
  for (auto _ : state) {
    state.PauseTiming();
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 1;
    config.seed = 1;
    config.net.hiccup_prob = 0;
    Cluster cluster(config);
    const ProcId rmw = register_rmw_procedure(cluster.procedures(), cluster.catalog());
    state.ResumeTiming();
    TxnArgs args;
    args.ints = {1, 0};
    cluster.replica(0).submit_update(rmw, 0, args, kMillisecond);
    // quiesce() alone returns immediately: the submission is still an
    // undelivered network event, so every replica reports in_flight == 0.
    // Run the simulation far enough for Opt-delivery to register the
    // transaction, then quiesce to commit it everywhere.
    cluster.run_for(50 * kMillisecond);
    cluster.quiesce(10 * kSecond);
    benchmark::DoNotOptimize(cluster.total_committed());
    if (cluster.total_committed() != config.n_sites) {
      state.SkipWithError("end-to-end transaction did not commit at all sites");
      break;
    }
  }
}
BENCHMARK(BM_EndToEndTransaction);

void BM_SimulatedClusterSecond(benchmark::State& state) {
  // Wall-clock cost of one simulated second of a loaded 4-site OTP cluster -
  // the unit of account for every experiment above.
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 8;
    config.seed = 3;
    Cluster cluster(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 100;
    wl.duration = kSecond;
    WorkloadDriver driver(cluster, wl, 5);
    driver.start();
    cluster.run_for(wl.duration);
    cluster.quiesce(60 * kSecond);
    benchmark::DoNotOptimize(cluster.total_committed());
  }
}
BENCHMARK(BM_SimulatedClusterSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
