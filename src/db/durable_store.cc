#include "db/durable_store.h"

#include <algorithm>
#include <charconv>

namespace otpdb {
namespace {

constexpr const char* kCheckpointFile = "checkpoint.bin";
/// First retry delay after a failed flush; doubles per consecutive failure.
constexpr SimTime kIoRetryBackoff = 10 * kMillisecond;

/// Parses the <seq> out of "wal-<seq>.log"; 0 when the name doesn't match.
std::uint64_t parse_segment_seq(const std::string& name) {
  if (name.size() < 9 || name.rfind("wal-", 0) != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return 0;
  }
  std::uint64_t seq = 0;
  const char* first = name.data() + 4;
  const char* last = name.data() + name.size() - 4;
  auto [ptr, ec] = std::from_chars(first, last, seq);
  return (ec == std::errc() && ptr == last) ? seq : 0;
}

}  // namespace

DurableStore::DurableStore(Simulator& sim, const StorageConfig& config,
                           std::filesystem::path dir, std::uint64_t dense_objects)
    : StorageBackend(dense_objects), sim_(sim), config_(config), dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  OTPDB_CHECK_MSG(!ec, "cannot create the durable data directory");
  if (config_.faults.enabled) faulty_io_ = std::make_unique<FaultyIoEnv>(config_.faults);
  active_seq_ = 1;
  if (!writer_.open(segment_path(active_seq_), io())) {
    // Injector (or a real EIO) hit the very first open: start degraded; the
    // first flush retries the open.
    ++stats_.io_errors;
    health_ = StorageHealth::degraded;
  }
}

DurableStore::~DurableStore() = default;

std::filesystem::path DurableStore::segment_path(std::uint64_t seq) const {
  return dir_ / wal::segment_name(seq);
}

void DurableStore::load(ObjectId obj, Value value) {
  if (health_ != StorageHealth::failed) wal::append_load(pending_, obj, value);
  store_.load(obj, std::move(value));
  schedule_flush();
}

void DurableStore::commit(TxnId txn, TOIndex index, TOIndex floor, TOIndex horizon) {
  if (health_ != StorageHealth::failed) {
    // Encode from the provisional write-set BEFORE the in-memory commit
    // consumes it. The span is already sorted by object, so the record bytes
    // are identical at every site.
    wal::append_commit(pending_, index, floor, store_.provisional_writes(txn));
    ++stats_.commits_logged;
    pending_floor_ = std::max(pending_floor_, floor);
    pending_max_index_ = std::max(pending_max_index_, index);
  }
  // The next checkpoint saves each object's newest version at or below the
  // durable floor (which only rises), so GC must keep that version.
  store_.commit(txn, index, std::min(horizon, durable_floor_ + 1));
  schedule_flush();
  schedule_checkpoint();
}

void DurableStore::schedule_flush() {
  if (flush_scheduled_ || down_ || health_ == StorageHealth::failed) return;
  flush_scheduled_ = true;
  const SimTime at = std::max(sim_.now() + config_.flush_window, next_flush_allowed_);
  flush_event_ = sim_.schedule_at(at, [this] {
    flush_scheduled_ = false;
    flush();
  });
}

void DurableStore::flush_now() {
  if (flush_scheduled_) {
    sim_.cancel(flush_event_);
    flush_scheduled_ = false;
  }
  flush();
}

void DurableStore::flush() {
  if (down_) return;  // crashed: the unflushed tail waits (or dies)
  if (health_ == StorageHealth::failed) return;
  if (!writer_.is_open()) {
    if (!writer_.open(segment_path(active_seq_), io())) {
      // A previous failure (or a failed roll) left the segment closed and its
      // tail already clean; nothing new was written, so just retry later.
      ++stats_.io_errors;
      note_flush_failure(/*tail_clean=*/true);
      return;
    }
    if (pending_.empty()) {
      // Retry after a failed roll with nothing buffered: the successful
      // magic write + sync is the health probe, so the store returns to ok
      // instead of sitting degraded until the next commit.
      consecutive_flush_failures_ = 0;
      health_ = StorageHealth::ok;
      return;
    }
  }
  if (pending_.empty()) return;
  if (writer_.append_and_sync(pending_.data(), pending_.size())) {
    consecutive_flush_failures_ = 0;
    health_ = StorageHealth::ok;
    ++stats_.fsyncs;
    stats_.wal_bytes += pending_.size();
    durable_floor_ = pending_floor_;
    active_max_index_ = std::max(active_max_index_, pending_max_index_);
    pending_.clear();
    pending_max_index_ = 0;
    next_flush_allowed_ = sim_.now() + config_.fsync_latency;
    if (writer_.size() >= config_.segment_bytes) roll_segment();
    return;
  }
  // The write or fsync failed: a garbage prefix of the batch may sit past
  // the last synced byte (torn write), or the whole batch may be dirty in
  // the page cache (failed fsync). Either way the batch is NOT durable.
  // Close, cut the file back to the last synced length, and retry the whole
  // batch - never append after un-truncated garbage (recovery's tail-only
  // corruption invariant depends on it).
  ++stats_.io_errors;
  const std::uint64_t last_synced = writer_.size();
  writer_.close();
  const bool tail_clean = wal::truncate_file(segment_path(active_seq_), last_synced, io());
  if (tail_clean && consecutive_flush_failures_ >= 1) {
    // Second consecutive failure on this segment: assume the file (block)
    // is bad, seal it at its valid prefix and move on to a fresh one.
    sealed_.push_back(SealedSegment{active_seq_, active_max_index_});
    ++active_seq_;
    active_max_index_ = 0;
    ++stats_.segments_sealed_on_error;
  }
  note_flush_failure(tail_clean);
}

void DurableStore::note_flush_failure(bool tail_clean) {
  ++consecutive_flush_failures_;
  if (!tail_clean || consecutive_flush_failures_ > config_.io_max_retries) {
    // Un-cleanable garbage tail, or the device would not come back: stop
    // logging (anything appended now would be discarded by recovery anyway)
    // and surface it. The in-memory store keeps serving; the floor freezes.
    health_ = StorageHealth::failed;
    pending_.clear();
    pending_max_index_ = 0;
    pending_floor_ = durable_floor_;
    return;
  }
  health_ = StorageHealth::degraded;
  ++stats_.io_retries;
  const int shift = std::min(consecutive_flush_failures_ - 1, 6);
  const SimTime backoff = kIoRetryBackoff << shift;
  if (flush_scheduled_) sim_.cancel(flush_event_);
  flush_scheduled_ = true;
  flush_event_ = sim_.schedule_at(sim_.now() + backoff, [this] {
    flush_scheduled_ = false;
    flush();
  });
}

void DurableStore::roll_segment() {
  sealed_.push_back(SealedSegment{active_seq_, active_max_index_});
  writer_.close();
  ++active_seq_;
  active_max_index_ = 0;
  if (!writer_.open(segment_path(active_seq_), io())) {
    // Leave the writer closed and schedule a retry through the flush ladder
    // (degraded -> ok on a later successful open, failed if the device stays
    // bad). Without the retry an idle store would sit degraded forever.
    ++stats_.io_errors;
    note_flush_failure(/*tail_clean=*/true);
  }
}

void DurableStore::schedule_checkpoint() {
  if (checkpoint_scheduled_ || down_) return;
  checkpoint_scheduled_ = true;
  checkpoint_event_ = sim_.schedule_after(config_.checkpoint_interval, [this] {
    checkpoint_scheduled_ = false;
    if (down_) return;  // the next commit after reopen() reschedules
    do_checkpoint();
  });
}

void DurableStore::do_checkpoint() {
  // The snapshot must cover exactly the durable floor, so everything
  // buffered goes to disk first.
  flush_now();
  if (!pending_.empty() || health_ != StorageHealth::ok) {
    // The flush failed (or the store is failed): the in-memory chains run
    // ahead of the durable floor, so a snapshot now would advance the
    // checkpoint past what the log can justify. Defer to a later cycle.
    ++stats_.checkpoints_skipped;
    if (health_ != StorageHealth::failed) schedule_checkpoint();
    return;
  }

  // A cold restart rebuilds the state at a floor at least this high and
  // reads no snapshot below it, so each object is saved at its newest
  // version at or below the floor: the file holds the live state, not the
  // history.
  const TOIndex floor = durable_floor_;
  wal::CheckpointWriter writer(checkpoint_buffer_, floor);
  store_.for_each_at(floor, [&writer](ObjectId obj, const VersionedStore::Version& v) {
    writer.add(obj, v.index, v.value);
  });
  if (!writer.write(dir_ / kCheckpointFile, io())) {
    // Temp-file + rename means the previous checkpoint survives untouched;
    // just count it and try again next cycle.
    ++stats_.io_errors;
    ++stats_.checkpoints_failed;
    schedule_checkpoint();
    return;
  }
  ++stats_.checkpoints;

  // Seal the active segment so truncation below the new floor can consider
  // everything written so far.
  roll_segment();
  truncate_below(floor);
}

void DurableStore::truncate_below(TOIndex floor) {
  auto it = sealed_.begin();
  while (it != sealed_.end()) {
    if (it->max_index <= floor) {
      std::error_code ec;
      std::filesystem::remove(segment_path(it->seq), ec);
      ++stats_.segments_truncated;
      it = sealed_.erase(it);
    } else {
      ++it;
    }
  }
}

void DurableStore::crash() {
  // Flag only - no cross-shard event surgery. A flush or checkpoint event
  // that fires during the outage sees down_ and keeps its hands off; the
  // pending buffer stays in (simulated) RAM for a warm reopen() and is
  // dropped by a cold restart_from_disk().
  down_ = true;
}

void DurableStore::reopen() {
  down_ = false;
  if (!pending_.empty()) schedule_flush();
}

TOIndex DurableStore::restart_from_disk() {
  down_ = false;
  // RAM is gone: the unflushed tail and the in-memory chains are lost.
  pending_.clear();
  pending_max_index_ = 0;
  if (flush_scheduled_) {
    sim_.cancel(flush_event_);
    flush_scheduled_ = false;
  }
  if (checkpoint_scheduled_) {
    sim_.cancel(checkpoint_event_);
    checkpoint_scheduled_ = false;
  }
  writer_.close();
  store_.reset_in_place();
  sealed_.clear();
  active_max_index_ = 0;

  wal::CheckpointData ckpt;  // floor 0 and no versions when there is none
  if (wal::read_checkpoint(dir_ / kCheckpointFile, ckpt)) ++stats_.checkpoint_restores;

  // The valid log: segments in sequence order up to the first torn or
  // corrupt frame. NOTHING after that frame may be applied (later segments
  // would leave a hole in the definitive order), so the bad tail is cut off
  // and all later segments are deleted. The floor D is the highest one the
  // checkpoint or a valid record carries.
  std::vector<std::uint64_t> seqs;
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const std::uint64_t seq = parse_segment_seq(entry.path().filename().string());
      if (seq > 0) seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  TOIndex floor = ckpt.floor;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const wal::ScanResult scan = wal::scan_segment(segment_path(seqs[i]), {});
    floor = std::max(floor, scan.max_floor);
    sealed_.push_back(SealedSegment{seqs[i], scan.max_index});
    if (!scan.clean) {
      wal::truncate_file(segment_path(seqs[i]), scan.valid_bytes);
      for (std::size_t j = i + 1; j < seqs.size(); ++j) {
        std::error_code ec;
        std::filesystem::remove(segment_path(seqs[j]), ec);
      }
      seqs.resize(i + 1);
      break;
    }
  }

  // The committed state at D: the checkpoint, then the records in
  // (checkpoint floor, D] in log order (per object that is index order).
  for (const wal::CheckpointVersion& v : ckpt.versions) {
    store_.install_version(v.object, v.index, v.value);
  }
  wal::ScanCallbacks replay;
  replay.on_load = [this](const wal::LoadRecord& rec) {
    store_.install_version(rec.object, 0, rec.value);
  };
  replay.on_commit = [this, &ckpt, floor](const wal::CommitRecord& rec) {
    if (rec.index <= ckpt.floor || rec.index > floor) return;
    for (const auto& [obj, value] : rec.writes) store_.install_version(obj, rec.index, value);
    ++stats_.replayed_commits;
  };
  for (const std::uint64_t seq : seqs) wal::scan_segment(segment_path(seq), replay);

  active_seq_ = seqs.empty() ? 1 : seqs.back() + 1;
  // A cold restart is the operator's "fresh disk" moment: reset the health
  // ladder and try again (the injector, if armed, keeps drawing - the first
  // open can fail right here and the first flush will retry it).
  health_ = StorageHealth::ok;
  consecutive_flush_failures_ = 0;
  if (!writer_.open(segment_path(active_seq_), io())) {
    ++stats_.io_errors;
    health_ = StorageHealth::degraded;
  }

  pending_floor_ = floor;
  durable_floor_ = floor;
  return floor;
}

}  // namespace otpdb
