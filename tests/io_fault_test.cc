// Storage fault injection (db/io_shim.h) and the DurableStore health ladder.
//
// The FaultyIoEnv unit tests pin the injector's contract (determinism, torn
// writes persisting a prefix, failed fsyncs skipping the real sync, the
// max_faults bound). The DurableStore tests drive the online failure policy
// end to end: degraded-with-retries back to ok, sealing a segment at its
// valid prefix after consecutive failures, the hard `failed` state freezing
// the durable floor while memory keeps serving, and a cold restart
// recovering exactly the synced prefix afterwards.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "db/durable_store.h"
#include "db/io_shim.h"
#include "sim/simulator.h"

namespace otpdb {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("otpdb-iofault-" + std::to_string(::getpid()) + "-" + std::to_string(counter++));
    fs::create_directories(dir);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  fs::path dir;
};

// --- FaultyIoEnv -------------------------------------------------------------

TEST(FaultyIoEnv, WriteErrorReturnsEioWithoutPersisting) {
  TempDir tmp;
  StorageFaults faults;
  faults.enabled = true;
  faults.write_error_prob = 1.0;
  faults.max_faults = 1;
  FaultyIoEnv env(faults);

  const fs::path p = tmp.dir / "f";
  const int fd = env.open(p.c_str(), O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  const char buf[8] = "1234567";
  errno = 0;
  EXPECT_EQ(env.write(fd, buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(env.stats().writes_failed, 1u);
  // max_faults reached: the injector disarms and the next write goes through.
  EXPECT_EQ(env.write(fd, buf, sizeof(buf)), static_cast<ssize_t>(sizeof(buf)));
  EXPECT_EQ(env.close(fd), 0);
  EXPECT_EQ(fs::file_size(p), sizeof(buf)) << "the failed write must not persist";
}

TEST(FaultyIoEnv, TornWritePersistsHalfThenErrors) {
  TempDir tmp;
  StorageFaults faults;
  faults.enabled = true;
  faults.torn_write_prob = 1.0;
  faults.max_faults = 1;
  FaultyIoEnv env(faults);

  const fs::path p = tmp.dir / "f";
  const int fd = env.open(p.c_str(), O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  const char buf[16] = "0123456789abcde";
  errno = 0;
  EXPECT_EQ(env.write(fd, buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(env.close(fd), 0);
  EXPECT_EQ(env.stats().torn_writes, 1u);
  EXPECT_EQ(fs::file_size(p), sizeof(buf) / 2) << "a torn write persists a prefix";
}

TEST(FaultyIoEnv, FailedFsyncReportsEio) {
  TempDir tmp;
  StorageFaults faults;
  faults.enabled = true;
  faults.fsync_error_prob = 1.0;
  faults.max_faults = 2;
  FaultyIoEnv env(faults);

  const fs::path p = tmp.dir / "f";
  const int fd = env.open(p.c_str(), O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(env.fsync(fd), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(env.fsync(fd), -1);
  EXPECT_EQ(env.fsync(fd), 0) << "disarmed after max_faults";
  EXPECT_EQ(env.stats().fsyncs_failed, 2u);
  EXPECT_EQ(env.close(fd), 0);
}

TEST(FaultyIoEnv, ScheduleIsDeterministicPerSeed) {
  StorageFaults faults;
  faults.enabled = true;
  faults.seed = 42;
  faults.write_error_prob = 0.3;
  auto run = [&faults] {
    FaultyIoEnv env(faults);
    std::vector<bool> outcome;
    const int fd = ::open("/dev/null", O_WRONLY);
    char b = 'x';
    for (int i = 0; i < 64; ++i) outcome.push_back(env.write(fd, &b, 1) == 1);
    ::close(fd);
    return outcome;
  };
  const auto a = run();
  EXPECT_EQ(a, run());
  faults.seed = 43;
  EXPECT_NE(a, run()) << "different seeds must draw different schedules";
}

// --- DurableStore under injected faults --------------------------------------

StorageConfig faulty_config(double write_p, double torn_p, double fsync_p,
                            std::uint64_t max_faults) {
  StorageConfig config;
  config.backend = StorageBackendKind::durable;
  config.faults.enabled = true;
  config.faults.seed = 7;
  config.faults.write_error_prob = write_p;
  config.faults.torn_write_prob = torn_p;
  config.faults.fsync_error_prob = fsync_p;
  config.faults.max_faults = max_faults;
  return config;
}

void commit_n(Simulator& sim, DurableStore& store, int n, SimTime spacing, int first = 1) {
  for (int k = 0; k < n; ++k) {
    const int i = first + k;
    sim.schedule_at((k + 1) * spacing, [&store, i] {
      const TxnId txn = 0;
      const auto index = static_cast<TOIndex>(i);
      store.memory().write(txn, static_cast<ObjectId>(i % 16), Value{std::int64_t{i * 3}});
      store.commit(txn, index, index, 0);  // commits in order: each index is the floor
    });
  }
}

TEST(DurableStoreFaults, RetriesThroughTransientErrorsAndRecovers) {
  TempDir tmp;
  Simulator sim;
  // A burst of early faults, then a healthy device: the store must end ok
  // with every commit durable.
  DurableStore store(sim, faulty_config(0.5, 0.2, 0.5, 6), tmp.dir / "site-0", 16);
  commit_n(sim, store, 40, 5 * kMillisecond);
  sim.run_until(sim.now() + 10 * kSecond);

  const WalStats* stats = store.wal_stats();
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(store.io_fault_stats(), nullptr);
  EXPECT_GT(store.io_fault_stats()->injected(), 0u) << "the injector never fired";
  EXPECT_GT(stats->io_errors, 0u);
  EXPECT_GT(stats->io_retries, 0u);
  EXPECT_EQ(store.health(), StorageHealth::ok) << "transient faults must heal";
  EXPECT_EQ(store.durable_floor(), 40u) << "every commit durable after retries";

  // The disk image is clean: a cold restart rebuilds the full state.
  store.crash();
  EXPECT_EQ(store.restart_from_disk(), 40u);
}

TEST(DurableStoreFaults, SealsSegmentAfterConsecutiveFailures) {
  TempDir tmp;
  Simulator sim;
  // A dense error schedule eventually fails the same open segment twice in a
  // row: the first failure truncates + retries, the second seals the segment
  // at its valid prefix and rolls a fresh file (bad-block model). After
  // max_faults the healthy device catches up.
  DurableStore store(sim, faulty_config(0.6, 0.0, 0.0, 24), tmp.dir / "site-0", 16);
  commit_n(sim, store, 40, 5 * kMillisecond);
  sim.run_until(sim.now() + 30 * kSecond);

  const WalStats* stats = store.wal_stats();
  EXPECT_GE(stats->segments_sealed_on_error, 1u);
  EXPECT_EQ(store.health(), StorageHealth::ok);
  EXPECT_EQ(store.durable_floor(), 40u);

  store.crash();
  EXPECT_EQ(store.restart_from_disk(), 40u) << "sealed + rolled segments all replay";
}

TEST(DurableStoreFaults, ExhaustedRetriesFailHardButMemoryKeepsServing) {
  TempDir tmp;
  Simulator sim;
  StorageConfig config = faulty_config(1.0, 0.0, 1.0, UINT64_MAX);  // device never heals
  config.io_max_retries = 3;
  DurableStore store(sim, config, tmp.dir / "site-0", 16);
  commit_n(sim, store, 30, 5 * kMillisecond);
  sim.run_until(sim.now() + 30 * kSecond);

  EXPECT_EQ(store.health(), StorageHealth::failed);
  const TOIndex frozen = store.durable_floor();
  // Memory still serves every committed write even though logging stopped.
  for (ObjectId obj = 1; obj < 16; ++obj) {
    EXPECT_TRUE(store.memory().read_latest(obj).has_value()) << "object " << obj;
  }
  // No further durable progress: the floor is frozen, commits keep landing
  // in memory only.
  const TxnId txn = 0;
  store.memory().write(txn, 3, Value{std::int64_t{999}});
  store.commit(txn, 31, 31, 0);
  sim.run_until(sim.now() + 5 * kSecond);
  EXPECT_EQ(store.durable_floor(), frozen);
  EXPECT_EQ(store.health(), StorageHealth::failed);
}

TEST(DurableStoreFaults, ColdRestartAfterHardFailureRecoversSyncedPrefix) {
  TempDir tmp;
  const fs::path dir = tmp.dir / "site-0";
  {
    // Phase 1: a healthy store makes 10 commits durable.
    Simulator sim;
    StorageConfig config;
    config.backend = StorageBackendKind::durable;
    DurableStore healthy(sim, config, dir, 16);
    commit_n(sim, healthy, 10, 5 * kMillisecond);
    sim.run_until(sim.now() + kSecond);
    ASSERT_EQ(healthy.durable_floor(), 10u);
  }
  {
    // Phase 2: the device dies for good - the store reopens the directory,
    // goes `failed`, and makes no durable progress.
    Simulator sim;
    StorageConfig config = faulty_config(1.0, 0.0, 1.0, UINT64_MAX);
    config.io_max_retries = 2;
    DurableStore broken(sim, config, dir, 16);
    broken.reopen();
    commit_n(sim, broken, 5, 5 * kMillisecond, /*first=*/11);
    sim.run_until(sim.now() + 10 * kSecond);
    EXPECT_EQ(broken.health(), StorageHealth::failed);
  }
  // Reopen the same directory ("operator replaced the disk": faults cleared);
  // restart_from_disk must recover the synced prefix and reset health.
  Simulator sim;
  StorageConfig config;
  config.backend = StorageBackendKind::durable;
  DurableStore store(sim, config, dir, 16);
  EXPECT_EQ(store.restart_from_disk(), 10u);
  EXPECT_EQ(store.health(), StorageHealth::ok);
  // And the restarted store logs normally again, past the recovered tail.
  commit_n(sim, store, 12, 5 * kMillisecond, /*first=*/11);
  sim.run_until(sim.now() + kSecond);
  EXPECT_EQ(store.durable_floor(), 22u);
}

TEST(DurableStoreFaults, CheckpointsSkippedWhileFlushFailurePending) {
  TempDir tmp;
  Simulator sim;
  StorageConfig config = faulty_config(0.6, 0.0, 0.6, 40);
  config.checkpoint_interval = 50 * kMillisecond;  // aggressive cadence
  // The dense fault burst would exhaust the default retry cap and push the
  // store to `failed` (that ladder leg is ExhaustedRetriesFailHard's job);
  // here we want it to stay degraded and recover.
  config.io_max_retries = 1000;
  DurableStore store(sim, config, tmp.dir / "site-0", 16);
  commit_n(sim, store, 60, 5 * kMillisecond);
  sim.run_until(sim.now() + 20 * kSecond);

  const WalStats* stats = store.wal_stats();
  EXPECT_GT(stats->checkpoints_skipped + stats->checkpoints_failed, 0u)
      << "the aggressive cadence must collide with the fault burst";
  EXPECT_GT(stats->checkpoints, 0u) << "checkpoints resume once healthy";
  EXPECT_EQ(store.health(), StorageHealth::ok);
  EXPECT_EQ(store.durable_floor(), 60u);
}

}  // namespace
}  // namespace otpdb
