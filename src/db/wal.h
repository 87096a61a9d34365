// Write-ahead log file format keyed on the definitive order (TOIndex).
//
// The TO-delivered order is identical at every site, so the log needs no
// LSNs of its own: a commit record's definitive index IS its log position in
// the total order. Each commit record also carries a floor, at most its
// index: every definitive index at or below it was committed (or dropped)
// at the site, so its record is this one or precedes it in the log. The
// highest floor on disk says how far the durable state reaches. This
// module is pure format + file I/O - the group-commit scheduling,
// checkpointing and truncation policy live in DurableStore.
//
// On-disk layout (all integers little-endian):
//
//   segment file  wal-<seq>.log:
//     8-byte magic "OTPWAL2\n", then framed records back to back.
//   record frame:
//     u32 payload_len | u32 crc32(payload) | payload
//   record payload:
//     u8 type (1=commit, 2=load)
//     commit: u64 index, u64 floor, u32 n_writes, n*(u64 object, value)
//     load:   u64 object, value
//   value:
//     u8 tag (0=int64, 1=double), then u64 payload (double = bit pattern).
//     Tag 2 is reserved (earlier versions wrote text under it): a record or
//     checkpoint that carries it is malformed and the reader rejects it.
//
//   checkpoint file  checkpoint.bin (written to a temp name, then renamed):
//     8-byte magic "OTPCKP2\n", one frame whose payload is
//     u64 floor, u64 n_objects, n*(u64 object, u64 index, value):
//     each object's newest version at or below the floor.
//
// The magics of the earlier layout, which logged each commit's classes and
// checkpointed per-class watermarks (OTPWAL1, OTPCKP1), are refused: such a
// segment scans as a bad magic and such a checkpoint does not read.
//
// Readers stop cleanly at the first torn, truncated or checksum-corrupt
// frame: everything before it is valid, everything after is discarded. That
// is exactly the group-commit contract - a crash mid-fsync loses at most the
// batch being written, never previously synced records.
//
// Writers frame in place: a record or checkpoint is encoded straight into
// the caller's buffer behind a reserved 8-byte header, whose length and CRC
// are patched in once the payload is complete. The buffers keep their
// capacity, so a steady log appends without allocating. The CRC is computed
// slice-by-8 (eight 256-entry tables, eight bytes per step) over the same
// polynomial as the bytewise form.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "db/io_shim.h"
#include "db/value.h"
#include "util/types.h"

namespace otpdb::wal {

/// CRC-32 (IEEE 802.3 polynomial, the zlib one) over `n` bytes.
std::uint32_t crc32(const void* data, std::size_t n);

/// One decoded commit record.
struct CommitRecord {
  TOIndex index = 0;
  TOIndex floor = 0;  // every index at or below it is logged by now
  std::vector<std::pair<ObjectId, Value>> writes;  // sorted by object
};

/// One decoded initial-load record (an index-0 version).
struct LoadRecord {
  ObjectId object = 0;
  Value value;
};

/// Appends a framed commit record to `out`. `floor` is at most `index`: every
/// definitive index at or below it is committed, and logged by this record
/// or an earlier one. `writes` is the transaction's write-set sorted by
/// object.
void append_commit(std::vector<std::uint8_t>& out, TOIndex index, TOIndex floor,
                   std::span<const std::pair<ObjectId, Value>> writes);

/// Appends a framed load record to `out`.
void append_load(std::vector<std::uint8_t>& out, ObjectId object, const Value& value);

/// Record callbacks for a segment scan. Either may be null.
struct ScanCallbacks {
  std::function<void(const CommitRecord&)> on_commit;
  std::function<void(const LoadRecord&)> on_load;
};

/// Result of scanning one segment file.
struct ScanResult {
  std::uint64_t valid_bytes = 0;  ///< length of the valid prefix (incl. magic)
  std::uint64_t records = 0;      ///< records decoded from the valid prefix
  bool clean = true;              ///< false when a torn/corrupt tail was cut off
  TOIndex max_index = 0;          ///< highest commit index in the valid prefix
  TOIndex max_floor = 0;          ///< highest floor a valid commit record carries
};

/// Scans a segment, invoking `callbacks` per valid record in file order, and
/// stops at the first torn or corrupt frame. A missing file scans as empty
/// and clean; a bad magic scans as zero records, not clean.
ScanResult scan_segment(const std::filesystem::path& path, const ScanCallbacks& callbacks);

/// Name of segment `seq` ("wal-0000000001.log").
std::string segment_name(std::uint64_t seq);

/// Appends raw bytes to a log segment with write + fsync through an IoEnv
/// (injectable for storage-fault testing - see db/io_shim.h).
/// One writer owns one segment at a time.
class SegmentWriter {
 public:
  SegmentWriter() = default;
  ~SegmentWriter() { close(); }
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Opens (creating if needed) `path` for append; writes the magic into a
  /// fresh file. Returns false on I/O error. `io` must outlive the writer.
  bool open(const std::filesystem::path& path, IoEnv& io = IoEnv::real());
  void close();
  bool is_open() const { return fd_ >= 0; }

  /// write() + fsync() of one group-commit batch. Returns false on I/O
  /// error; size() then still reports the last-known-good synced length (a
  /// failed write may have persisted a garbage prefix beyond it - truncate
  /// to size() before appending again).
  bool append_and_sync(const std::uint8_t* data, std::size_t n);

  /// Synced bytes in the segment (magic included).
  std::uint64_t size() const { return size_; }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
  IoEnv* io_ = nullptr;
};

/// Truncates `path` to `valid_bytes` (cutting a torn tail before re-append).
bool truncate_file(const std::filesystem::path& path, std::uint64_t valid_bytes,
                   IoEnv& io = IoEnv::real());

/// Builds a checkpoint image - its floor, then each object's newest version
/// at or below it, ascending by object - in a caller-owned buffer, and writes
/// it out. The buffer keeps its capacity from one checkpoint to the next.
class CheckpointWriter {
 public:
  /// Starts an image at `floor` in `buffer`, replacing what it held.
  CheckpointWriter(std::vector<std::uint8_t>& buffer, TOIndex floor);

  /// Adds `object`'s version at `index` (at or below the floor).
  void add(ObjectId object, TOIndex index, const Value& value);

  /// Seals the image and atomically replaces `path` with it: writes a temp
  /// file in the same directory, fsyncs it, then renames over `path`.
  /// Returns false on I/O error (the previous checkpoint, if any, survives).
  bool write(const std::filesystem::path& path, IoEnv& io = IoEnv::real());

 private:
  std::vector<std::uint8_t>& buffer_;
  std::size_t n_objects_at_ = 0;  // where write() patches in the object count
  std::uint64_t objects_ = 0;
};

/// One object's version in a checkpoint.
struct CheckpointVersion {
  ObjectId object = 0;
  TOIndex index = 0;
  Value value;
  bool operator==(const CheckpointVersion&) const = default;
};

/// A decoded checkpoint.
struct CheckpointData {
  TOIndex floor = 0;
  std::vector<CheckpointVersion> versions;  // ascending by object
};

/// Reads and validates a checkpoint. Returns false (and leaves `out` empty)
/// when the file is missing, torn, checksum-corrupt or holds a version above
/// its floor - the caller then replays the WAL from scratch.
bool read_checkpoint(const std::filesystem::path& path, CheckpointData& out);

}  // namespace otpdb::wal
