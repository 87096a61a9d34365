// Durable storage backend: TO-ordered group-commit WAL + checkpoints.
//
// The definitive delivery order is the log order (ROADMAP direction 2), so
// the commit path is embarrassingly simple: encode the write-set under its
// TOIndex, buffer it, and let one fsync cover every commit that arrived
// within the flush window. Commits are NOT gated on durability - the engine
// proceeds the moment the in-memory store is updated, exactly like the
// paper's in-memory processing - so durability lags visibility by at most
// flush_window + fsync_latency. What the site can lose in a crash is only
// that unflushed tail, and recovery re-fetches it from peers.
//
// Timing is simulated: the fsync itself executes for real (POSIX write +
// fsync on the segment fd) but *when* flushes happen is driven by
// deterministic sim-time events, so a durable cluster produces bit-for-bit
// identical digests on every run of one seed. `next_flush_allowed_`
// models a busy device: a flush cannot start before the previous one's
// modeled latency has elapsed, which is what makes group-commit batches
// grow under load (the acceptance criterion's ">1 commit per fsync").
//
// Lifecycle per segment directory (site-<id>/):
//   wal-<seq>.log ...   sealed + active segments
//   checkpoint.bin      latest durable snapshot (atomic rename)
// A checkpoint flushes the pending buffer, saves the per-class watermarks
// and, per object, the versions a snapshot at or above the durable floor can
// read (the live state, not the history - see do_checkpoint), rolls the
// active segment, then deletes every sealed segment whose records all fall
// at or below the floor.
//
// I/O failure policy (all I/O goes through an IoEnv - injectable, see
// db/io_shim.h): a failed write or fsync may have persisted a garbage prefix
// of the batch, so the store closes the segment, truncates it back to the
// last SYNCED byte (SegmentWriter::size() never counts a failed append), and
// retries the whole batch with doubled backoff - health() reads `degraded`
// while retries are in flight. Recovery's invariant (corruption appears only
// at the tail of the last segment) is preserved because nothing is ever
// appended after un-truncated garbage. After two consecutive failures the
// segment is sealed at its valid prefix and a fresh file is tried (bad-block
// model); if the tail cannot be cleaned or retries exhaust io_max_retries,
// the store goes `failed`: it stops logging, freezes the durable watermarks,
// and keeps serving from memory - surfaced, never silent. Checkpoints are
// skipped while a flush failure is pending (the snapshot must not outrun the
// durable watermarks) and rescheduled.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "db/storage_backend.h"
#include "db/wal.h"
#include "sim/simulator.h"

namespace otpdb {

/// Durability counters for benches and tests.
struct WalStats {
  std::uint64_t commits_logged = 0;    ///< commit records appended
  std::uint64_t fsyncs = 0;            ///< group-commit flushes executed
  std::uint64_t wal_bytes = 0;         ///< bytes written to segments
  std::uint64_t checkpoints = 0;       ///< checkpoint snapshots taken
  std::uint64_t segments_truncated = 0;  ///< sealed segments GC'd
  std::uint64_t replayed_commits = 0;  ///< WAL commits re-applied on restart
  std::uint64_t checkpoint_restores = 0;  ///< restarts that found a valid checkpoint
  // Failure-path counters (see the error-handling note in the class comment).
  std::uint64_t io_errors = 0;           ///< failed writes/fsyncs/opens observed
  std::uint64_t io_retries = 0;          ///< flush retries scheduled after a failure
  std::uint64_t segments_sealed_on_error = 0;  ///< segments abandoned at their valid prefix
  std::uint64_t checkpoints_skipped = 0;  ///< checkpoints deferred (flush failure pending)
  std::uint64_t checkpoints_failed = 0;   ///< checkpoint writes that errored
};

class DurableStore final : public StorageBackend {
 public:
  /// Opens (creating) the site directory and the first active segment.
  /// If the directory already holds state this does NOT replay it - a fresh
  /// cluster starts empty; call restart_from_disk() to recover.
  DurableStore(Simulator& sim, const StorageConfig& config, std::filesystem::path dir,
               std::size_t n_classes, std::uint64_t dense_objects);
  ~DurableStore() override;

  void load(ObjectId obj, Value value) override;
  void commit(TxnId txn, TOIndex index, std::span<const ClassId> classes,
              TOIndex horizon) override;
  void crash() override;
  void reopen() override;
  RecoveredState restart_from_disk() override;
  /// min(durable_max_index_, per-class durable watermarks): every index at
  /// or below it is fsynced, so it bounds checkpoints and WAL truncation.
  TOIndex durable_floor() const override;
  const WalStats* wal_stats() const override { return &stats_; }
  StorageHealth health() const override { return health_; }
  const IoFaultStats* io_fault_stats() const override {
    return faulty_io_ ? &faulty_io_->stats() : nullptr;
  }

  /// Durable watermark for one class (commits <= this index are fsynced).
  TOIndex durable_watermark(ClassId klass) const { return durable_watermark_[klass]; }

 private:
  struct SealedSegment {
    std::uint64_t seq = 0;
    TOIndex max_index = 0;  ///< highest commit index the segment holds
  };

  void schedule_flush();
  void flush_now();
  void flush();
  /// Bookkeeping after a failed flush attempt: degrade (retry with doubled
  /// backoff) while attempts remain and the tail is clean, else fail hard
  /// (stop logging, drop the buffer, freeze the watermarks).
  void note_flush_failure(bool tail_clean);
  void schedule_checkpoint();
  void do_checkpoint();
  void truncate_below(TOIndex floor);
  void roll_segment();
  std::filesystem::path segment_path(std::uint64_t seq) const;
  IoEnv& io() { return faulty_io_ ? *faulty_io_ : IoEnv::real(); }

  Simulator& sim_;
  StorageConfig config_;
  std::filesystem::path dir_;
  std::unique_ptr<FaultyIoEnv> faulty_io_;  ///< set when config_.faults.enabled

  wal::SegmentWriter writer_;
  std::uint64_t active_seq_ = 0;
  TOIndex active_max_index_ = 0;          ///< highest index flushed into the active segment
  std::vector<SealedSegment> sealed_;     ///< rolled segments awaiting truncation

  std::vector<std::uint8_t> pending_;     ///< encoded, unflushed records
  std::vector<std::uint8_t> checkpoint_buffer_;  ///< the last checkpoint image, reused
  std::vector<TOIndex> pending_watermark_;  ///< per-class, incl. unflushed
  std::vector<TOIndex> durable_watermark_;  ///< per-class, fsynced only
  TOIndex pending_max_index_ = 0;
  TOIndex durable_max_index_ = 0;

  bool flush_scheduled_ = false;
  EventId flush_event_;
  SimTime next_flush_allowed_ = 0;        ///< device-busy model
  // Checkpoints are scheduled lazily on the first commit after the previous
  // one, so an idle cluster's event queue still drains.
  bool checkpoint_scheduled_ = false;
  EventId checkpoint_event_;
  bool down_ = false;                     ///< crashed: events no-op until reopen

  StorageHealth health_ = StorageHealth::ok;
  int consecutive_flush_failures_ = 0;

  WalStats stats_;
};

}  // namespace otpdb
