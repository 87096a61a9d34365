// Injectable file-I/O layer under the WAL (the storage half of the chaos
// plane - see net/fault_plan.h for the network half).
//
// All durable-tier writes (segment appends, fsyncs, checkpoint temp files,
// torn-tail truncation, the atomic rename) go through an IoEnv. The default
// is a pass-through to POSIX; FaultyIoEnv wraps it with a seeded fault
// schedule that can return EIO on writes, tear a write (persist a prefix,
// then report failure - the short-write-then-error case journaling code must
// survive), and fail fsyncs while leaving the page cache dirty (the "fsync
// lies" case: the bytes may or may not be durable). Reads are never faulted -
// recovery-scan robustness against corrupt bytes is wal_test's corruption
// fuzzing; this layer exists to test the ONLINE failure path.
//
// Determinism: each site's DurableStore owns one FaultyIoEnv with a per-site
// seed, and a site's I/O calls are issued in its own event order, so the
// fault schedule is bit-identical on every run of one seed and engine mode.
// `max_faults` bounds the injection so every test run eventually makes
// durable progress again.
#pragma once

#include <sys/types.h>

#include <cstdint>

#include "util/rng.h"

namespace otpdb {

/// Minimal POSIX file interface the WAL writes through.
class IoEnv {
 public:
  virtual ~IoEnv() = default;

  virtual int open(const char* path, int flags, int mode);
  virtual ssize_t write(int fd, const void* buf, std::size_t n);
  virtual int fsync(int fd);
  virtual int close(int fd);
  virtual int truncate(const char* path, off_t length);
  virtual int rename(const char* from, const char* to);

  /// The shared pass-through environment (plain POSIX).
  static IoEnv& real();
};

/// Seeded storage-fault schedule (StorageConfig::faults).
struct StorageFaults {
  bool enabled = false;
  std::uint64_t seed = 7;
  /// Probability a write fails outright with EIO (nothing persisted).
  double write_error_prob = 0.0;
  /// Probability a write tears: half the buffer persists, then EIO.
  double torn_write_prob = 0.0;
  /// Probability an fsync reports EIO without syncing (bytes stay dirty).
  double fsync_error_prob = 0.0;
  /// Stop injecting after this many faults, so runs converge again.
  std::uint64_t max_faults = UINT64_MAX;
};

/// Injection counters, queryable via StorageBackend::io_fault_stats().
struct IoFaultStats {
  std::uint64_t writes_failed = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t fsyncs_failed = 0;

  std::uint64_t injected() const { return writes_failed + torn_writes + fsyncs_failed; }
};

/// IoEnv that injects the configured faults, deterministic under its seed.
class FaultyIoEnv final : public IoEnv {
 public:
  explicit FaultyIoEnv(const StorageFaults& faults) : faults_(faults), rng_(faults.seed) {}

  ssize_t write(int fd, const void* buf, std::size_t n) override;
  int fsync(int fd) override;

  const IoFaultStats& stats() const { return stats_; }

 private:
  bool armed() { return stats_.injected() < faults_.max_faults; }

  StorageFaults faults_;
  Rng rng_;
  IoFaultStats stats_;
};

}  // namespace otpdb
