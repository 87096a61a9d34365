// Pluggable storage tier behind the replica engines.
//
// Every engine keeps executing reads/provisional-writes against the
// in-memory VersionedStore (the multi-version cache is the read path either
// way); what a backend changes is what happens at the commit/abort boundary:
//
//   MemoryBackend  - forwards straight to VersionedStore. Bit-for-bit the
//                    pre-refactor behavior: no extra events, no I/O.
//   DurableStore   - additionally encodes each commit into a TO-ordered
//                    write-ahead log with group-commit fsync batching,
//                    periodic checkpoints and log truncation, and can
//                    rebuild the committed state at its durable floor from
//                    disk after a cold restart (see db/durable_store.h).
//
// Backends are per-site objects owned by the Cluster; the engine sees only
// this interface plus the embedded VersionedStore.
#pragma once

#include <filesystem>
#include <limits>
#include <memory>

#include "db/io_shim.h"
#include "db/versioned_store.h"
#include "net/message.h"  // SiteId
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/types.h"

namespace otpdb {

struct WalStats;  // db/durable_store.h

enum class StorageBackendKind { memory, durable };

/// Durable-tier health, surfaced instead of silent failure:
///   ok       - logging normally.
///   degraded - an I/O error was hit; the tail was sealed at the last synced
///              byte and retries with backoff are in flight. Commits remain
///              visible (the paper's in-memory processing), durability lags.
///   failed   - retries exhausted or the tail could not be cleaned; logging
///              has stopped and the durable floor is frozen. The site
///              keeps serving from memory; a cold restart_from_disk() (after
///              the operator replaces the device) starts a fresh attempt.
enum class StorageHealth { ok, degraded, failed };

/// Per-cluster storage configuration (ClusterConfig::storage).
struct StorageConfig {
  StorageBackendKind backend = StorageBackendKind::memory;
  /// Root directory for durable state (one subdirectory per site). Empty =
  /// a fresh temp directory owned (and removed) by the Cluster.
  std::string data_dir;
  /// Group-commit window: an fsync is scheduled this long after the first
  /// unflushed commit, so every commit arriving within the window shares it.
  SimTime flush_window = 2 * kMillisecond;
  /// Modeled device latency per fsync; the next flush may not start before
  /// the previous one "completes", which is what makes batches grow under
  /// load. Deterministic sim-time, so parity digests stay bit-for-bit.
  SimTime fsync_latency = 5 * kMillisecond;
  /// Interval between checkpoint snapshots (also the truncation cadence).
  SimTime checkpoint_interval = 1 * kSecond;
  /// Segment roll threshold; smaller segments truncate at a finer grain.
  std::uint64_t segment_bytes = 1 << 20;
  /// Consecutive failed flush attempts before the site goes
  /// StorageHealth::failed and stops logging.
  int io_max_retries = 8;
  /// Storage fault injection (EIO / torn writes / failed fsyncs); off by
  /// default. make_storage_backend() derives a per-site seed from
  /// `faults.seed`, so every site draws an independent schedule.
  StorageFaults faults;
};

class StorageBackend {
 public:
  explicit StorageBackend(std::uint64_t dense_objects) : store_(dense_objects) {}
  virtual ~StorageBackend() = default;
  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  /// The embedded in-memory store. Engines read / provisionally write here
  /// directly; only the commit/abort boundary goes through the virtuals.
  VersionedStore& memory() { return store_; }
  const VersionedStore& memory() const { return store_; }

  /// Installs an initial version (index 0) on the in-memory store; the
  /// durable backend also journals it so restart reproduces the schema.
  virtual void load(ObjectId obj, Value value) { store_.load(obj, std::move(value)); }

  /// Promotes `txn`'s provisional writes to committed versions at `index`.
  /// `floor` is the engine's committed floor, at most `index`: every
  /// definitive index at or below it is committed here - the durable backend
  /// logs it with the commit. `horizon` is the engine's GC horizon (see
  /// VersionedStore::commit); the durable backend caps it so checkpoints
  /// still find what they save.
  virtual void commit(TxnId txn, TOIndex index, TOIndex floor, TOIndex horizon) {
    (void)floor;
    store_.commit(txn, index, horizon);
  }

  /// Discards `txn`'s provisional writes (undo - never hits the log).
  virtual void abort(TxnId txn) { store_.abort(txn); }

  /// Discards every provisional write (warm crash recovery).
  virtual void clear_provisional() { store_.clear_provisional(); }

  /// Site crashed: stop producing I/O until reopen()/restart_from_disk().
  virtual void crash() {}

  /// Warm recovery - RAM survived; resume logging where the crash left off.
  virtual void reopen() {}

  /// Cold restart - RAM lost. Rebuilds, in place from checkpoint + WAL,
  /// exactly the committed state at the durable floor, and returns that
  /// floor. Memory backends cannot do this.
  virtual TOIndex restart_from_disk() {
    OTPDB_CHECK_MSG(false, "cold restart requires the durable storage backend");
    return 0;
  }

  /// Every definitive index at or below this is durable: a cold restart
  /// recovers at least this far. Memory backends never restart cold, so
  /// they impose no cap.
  virtual TOIndex durable_floor() const { return std::numeric_limits<TOIndex>::max(); }

  /// WAL counters, or nullptr for backends that keep no log.
  virtual const WalStats* wal_stats() const { return nullptr; }

  /// Durable-tier health; memory backends are always ok.
  virtual StorageHealth health() const { return StorageHealth::ok; }

  /// Injection counters, or nullptr when no fault injector is armed.
  virtual const IoFaultStats* io_fault_stats() const { return nullptr; }

 protected:
  VersionedStore store_;
};

/// The pre-refactor in-memory tier: every virtual is the base default.
class MemoryBackend final : public StorageBackend {
 public:
  explicit MemoryBackend(std::uint64_t dense_objects) : StorageBackend(dense_objects) {}
};

/// Builds the configured backend for one site. Durable backends live at
/// `root`/site-<id>; `root` must be the (existing) cluster data directory.
std::unique_ptr<StorageBackend> make_storage_backend(const StorageConfig& config,
                                                     Simulator& sim, SiteId site,
                                                     std::uint64_t dense_objects,
                                                     const std::filesystem::path& root);

}  // namespace otpdb
