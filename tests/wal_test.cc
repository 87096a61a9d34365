// WAL format + DurableStore tests: encode/decode round-trips, corruption
// hardening (torn writes, truncated tails, bit flips, bad checksums, the
// reserved value tag - the scan must stop cleanly at the first bad frame,
// never crash or overread), the earlier layout's refused magics, group-commit
// batching, and checkpoint/restart round-trips at the durable floor.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "db/durable_store.h"
#include "db/wal.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb {
namespace {

namespace fs = std::filesystem;

/// Fresh temp directory per test, removed on destruction.
struct TempDir {
  TempDir() {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("otpdb-waltest-" + std::to_string(::getpid()) + "-" + std::to_string(counter++));
    fs::create_directories(dir);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  fs::path dir;
};

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Encodes a small segment: a load plus `n` commit records, record i at
/// floor i - 1.
std::vector<std::uint8_t> sample_records(int n) {
  std::vector<std::uint8_t> bytes;
  wal::append_load(bytes, 7, Value{std::int64_t{100}});
  for (int i = 1; i <= n; ++i) {
    const std::pair<ObjectId, Value> writes[] = {
        {static_cast<ObjectId>(i), Value{std::int64_t{i * 10}}},
        {static_cast<ObjectId>(i + 1000), Value{3.25 * i}},
        {static_cast<ObjectId>(i + 2000), Value{std::int64_t{-i}}},
    };
    wal::append_commit(bytes, static_cast<TOIndex>(i), static_cast<TOIndex>(i - 1),
                       std::span<const std::pair<ObjectId, Value>>(writes, 3));
  }
  return bytes;
}

/// Writes `data` through the checkpoint writer.
bool write_checkpoint(const fs::path& path, const wal::CheckpointData& data) {
  std::vector<std::uint8_t> buffer;
  wal::CheckpointWriter writer(buffer, data.floor);
  for (const wal::CheckpointVersion& v : data.versions) writer.add(v.object, v.index, v.value);
  return writer.write(path);
}

/// Writes magic + `records` into a fresh segment file.
fs::path make_segment(const TempDir& tmp, const std::vector<std::uint8_t>& records) {
  const fs::path path = tmp.dir / wal::segment_name(1);
  wal::SegmentWriter writer;
  EXPECT_TRUE(writer.open(path));
  EXPECT_TRUE(writer.append_and_sync(records.data(), records.size()));
  writer.close();
  return path;
}

// --- hand-encoded frames: the format, byte by byte --------------------------

/// Appends the low `n` bytes of `v`, little-endian.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// An int64 value: tag 0, then the u64.
std::vector<std::uint8_t> int_value(std::int64_t v) {
  std::vector<std::uint8_t> out{0};
  put_le(out, static_cast<std::uint64_t>(v), 8);
  return out;
}

/// A value under the reserved tag 2, laid out as earlier versions wrote text:
/// u32 length, then the bytes.
std::vector<std::uint8_t> text_value(const std::string& text) {
  std::vector<std::uint8_t> out{2};
  put_le(out, text.size(), 4);
  out.insert(out.end(), text.begin(), text.end());
  return out;
}

/// Appends `payload` framed: u32 length | u32 crc32(payload) | payload.
void append_frame(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& payload) {
  put_le(out, payload.size(), 4);
  put_le(out, wal::crc32(payload.data(), payload.size()), 4);
  out.insert(out.end(), payload.begin(), payload.end());
}

/// A commit record at `index` and floor `index - 1` that writes `value` to
/// `object`.
std::vector<std::uint8_t> commit_payload(TOIndex index, ObjectId object,
                                         const std::vector<std::uint8_t>& value) {
  std::vector<std::uint8_t> out{1};
  put_le(out, index, 8);
  put_le(out, index - 1, 8);  // its floor
  put_le(out, 1, 4);          // one write
  put_le(out, object, 8);
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

/// A checkpoint image at floor 3 holding one version, `value` at index 3.
std::vector<std::uint8_t> checkpoint_image(const std::vector<std::uint8_t>& value) {
  std::vector<std::uint8_t> payload;
  put_le(payload, 3, 8);   // the floor
  put_le(payload, 1, 8);   // one object
  put_le(payload, 11, 8);  // its id
  put_le(payload, 3, 8);   // its version's index
  payload.insert(payload.end(), value.begin(), value.end());
  std::vector<std::uint8_t> out{'O', 'T', 'P', 'C', 'K', 'P', '2', '\n'};
  append_frame(out, payload);
  return out;
}

TEST(Wal, Crc32KnownAnswer) {
  // The CRC-32 check value of the IEEE 802.3 (zlib) polynomial.
  EXPECT_EQ(wal::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(wal::crc32("", 0), 0u);
}

TEST(Wal, Crc32SliceBy8MatchesBytewise) {
  // The eight-byte loop and the byte tail must agree with the bytewise
  // definition at every length and alignment.
  const auto bytewise = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
  };
  Rng rng(5);
  std::vector<std::uint8_t> bytes(100);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; offset + n <= bytes.size(); ++n) {
      ASSERT_EQ(wal::crc32(bytes.data() + offset, n), bytewise(bytes.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Wal, CommitAndLoadRoundTrip) {
  TempDir tmp;
  const fs::path path = make_segment(tmp, sample_records(20));

  std::vector<wal::CommitRecord> commits;
  std::vector<wal::LoadRecord> loads;
  wal::ScanCallbacks cb;
  cb.on_commit = [&](const wal::CommitRecord& r) { commits.push_back(r); };
  cb.on_load = [&](const wal::LoadRecord& r) { loads.push_back(r); };
  const wal::ScanResult scan = wal::scan_segment(path, cb);

  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.records, 21u);
  EXPECT_EQ(scan.max_index, 20u);
  EXPECT_EQ(scan.max_floor, 19u);
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].object, 7u);
  EXPECT_EQ(as_int(loads[0].value), 100);
  ASSERT_EQ(commits.size(), 20u);
  EXPECT_EQ(commits[4].index, 5u);
  EXPECT_EQ(commits[4].floor, 4u);
  EXPECT_EQ(commits[5].floor, 5u);
  ASSERT_EQ(commits[4].writes.size(), 3u);
  EXPECT_EQ(as_int(commits[4].writes[0].second), 50);
  EXPECT_DOUBLE_EQ(std::get<double>(commits[4].writes[1].second), 3.25 * 5);
  EXPECT_EQ(std::get<std::int64_t>(commits[4].writes[2].second), -5);
}

TEST(Wal, MissingFileScansEmptyAndClean) {
  TempDir tmp;
  const wal::ScanResult scan = wal::scan_segment(tmp.dir / "absent.log", {});
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.records, 0u);
}

TEST(Wal, BadMagicScansZeroRecordsNotClean) {
  TempDir tmp;
  const fs::path path = tmp.dir / wal::segment_name(1);
  write_file(path, {'B', 'O', 'G', 'U', 'S', '!', '!', '\n', 1, 2, 3});
  const wal::ScanResult scan = wal::scan_segment(path, {});
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.records, 0u);
}

TEST(Wal, TruncatedTailStopsAtLastGoodFrame) {
  // Cut the file at EVERY possible byte offset: the scan must decode exactly
  // the frames fully contained in the prefix and report the torn tail.
  TempDir tmp;
  const fs::path path = make_segment(tmp, sample_records(8));
  const std::vector<std::uint8_t> full = read_file(path);
  std::uint64_t full_records = 0;
  {
    wal::ScanCallbacks count;
    const wal::ScanResult scan = wal::scan_segment(path, count);
    full_records = scan.records;
    ASSERT_TRUE(scan.clean);
  }
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    write_file(path, std::vector<std::uint8_t>(full.begin(), full.begin() + cut));
    const wal::ScanResult scan = wal::scan_segment(path, {});
    // A cut exactly on a frame boundary is indistinguishable from a shorter
    // log and scans clean; any mid-frame cut must be flagged torn (a cut
    // inside the 8-byte magic is always torn). The valid prefix never
    // exceeds the cut.
    if (cut < 8) {
      EXPECT_FALSE(scan.clean) << "cut at " << cut;
      EXPECT_EQ(scan.records, 0u) << "cut at " << cut;
    } else {
      EXPECT_EQ(scan.clean, scan.valid_bytes == cut) << "cut at " << cut;
    }
    EXPECT_LE(scan.valid_bytes, cut) << "cut at " << cut;
    EXPECT_LT(scan.records, full_records) << "cut at " << cut;
  }
}

TEST(Wal, BitFlipsNeverCrashAndStopTheScan) {
  // Deterministic fuzz: flip one byte at a time across the file. Either the
  // flip lands in a frame (CRC catches it, scan stops there) or in the
  // already-validated prefix's payload lengths - in every case the scan must
  // terminate without UB and report <= the full record count.
  TempDir tmp;
  const fs::path path = make_segment(tmp, sample_records(6));
  const std::vector<std::uint8_t> full = read_file(path);
  Rng rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> corrupted = full;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()) - 1));
    const auto flip = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    corrupted[at] ^= flip;
    write_file(path, corrupted);
    const wal::ScanResult scan = wal::scan_segment(path, {});
    EXPECT_LE(scan.records, 7u);
    EXPECT_LE(scan.valid_bytes, corrupted.size());
  }
}

TEST(Wal, CrcMismatchCutsTheTail) {
  TempDir tmp;
  const fs::path path = make_segment(tmp, sample_records(5));
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.back() ^= 0xff;  // corrupt the last frame's payload
  write_file(path, bytes);
  std::uint64_t records = 0;
  wal::ScanCallbacks cb;
  cb.on_commit = [&](const wal::CommitRecord&) { ++records; };
  cb.on_load = [&](const wal::LoadRecord&) { ++records; };
  const wal::ScanResult scan = wal::scan_segment(path, cb);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(records, 5u) << "load + 4 commits survive; the corrupted frame is cut";
  EXPECT_EQ(scan.records, records);
  // Re-truncating to the valid prefix yields a clean segment again.
  ASSERT_TRUE(wal::truncate_file(path, scan.valid_bytes));
  const wal::ScanResult rescan = wal::scan_segment(path, {});
  EXPECT_TRUE(rescan.clean);
  EXPECT_EQ(rescan.records, 5u);
}

TEST(Wal, CheckpointRoundTrip) {
  TempDir tmp;
  const fs::path path = tmp.dir / "checkpoint.bin";
  wal::CheckpointData data;
  data.floor = 9;
  data.versions.push_back({11, 9, Value{-0.5}});
  data.versions.push_back({12, 4, Value{2.5}});
  data.versions.push_back({13, 0, Value{std::int64_t{5}}});
  ASSERT_TRUE(write_checkpoint(path, data));

  wal::CheckpointData out;
  ASSERT_TRUE(wal::read_checkpoint(path, out));
  EXPECT_EQ(out.floor, 9u);
  EXPECT_EQ(out.versions, data.versions);
  EXPECT_DOUBLE_EQ(std::get<double>(out.versions[0].value), -0.5);
}

TEST(Wal, CheckpointVersionAboveItsFloorIsRefused) {
  TempDir tmp;
  const fs::path path = tmp.dir / "checkpoint.bin";
  wal::CheckpointData data;
  data.floor = 9;
  data.versions.push_back({11, 10, Value{std::int64_t{1}}});
  ASSERT_TRUE(write_checkpoint(path, data));
  wal::CheckpointData out;
  EXPECT_FALSE(wal::read_checkpoint(path, out));
  EXPECT_TRUE(out.versions.empty());
}

TEST(Wal, CorruptCheckpointIsRejected) {
  TempDir tmp;
  const fs::path path = tmp.dir / "checkpoint.bin";
  wal::CheckpointData data;
  data.floor = 1;
  data.versions.push_back({3, 1, Value{std::int64_t{30}}});
  ASSERT_TRUE(write_checkpoint(path, data));
  std::vector<std::uint8_t> bytes = read_file(path);
  // Flip every byte position in turn: read_checkpoint must reject or parse,
  // never crash; flips that break structure or CRC leave `out` empty.
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::vector<std::uint8_t> corrupted = bytes;
    corrupted[at] ^= 0x5a;
    write_file(path, corrupted);
    wal::CheckpointData out;
    (void)wal::read_checkpoint(path, out);
  }
  // A truncated checkpoint (torn rename cannot happen, but a torn disk can).
  write_file(path, std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + bytes.size() / 2));
  wal::CheckpointData out;
  EXPECT_FALSE(wal::read_checkpoint(path, out));
  EXPECT_TRUE(out.versions.empty());
}

TEST(Wal, ReservedTextTagEndsTheScan) {
  // Two records from the writer, then a third whose value carries tag 2
  // under a good CRC. It is malformed: the scan keeps the two records before
  // it and stops. Its int64 twin is byte-identical to the writer's record and
  // scans clean, so the tag alone decides.
  std::vector<std::uint8_t> head;
  wal::append_load(head, 7, Value{std::int64_t{100}});
  const std::pair<ObjectId, Value> first{8, Value{std::int64_t{1}}};
  wal::append_commit(head, 1, 0, {&first, 1});

  std::vector<std::uint8_t> written = head;
  const std::pair<ObjectId, Value> third{9, Value{std::int64_t{5}}};
  wal::append_commit(written, 2, 1, {&third, 1});
  std::vector<std::uint8_t> with_int = head;
  append_frame(with_int, commit_payload(2, 9, int_value(5)));
  ASSERT_EQ(with_int, written);
  std::vector<std::uint8_t> with_text = head;
  append_frame(with_text, commit_payload(2, 9, text_value("abcd")));

  const auto scan = [](const std::vector<std::uint8_t>& records) {
    TempDir tmp;
    return wal::scan_segment(make_segment(tmp, records), {});
  };
  const wal::ScanResult good = scan(with_int);
  EXPECT_TRUE(good.clean);
  EXPECT_EQ(good.records, 3u);
  const wal::ScanResult bad = scan(with_text);
  EXPECT_FALSE(bad.clean);
  EXPECT_EQ(bad.records, 2u);
  EXPECT_EQ(bad.valid_bytes, 8 + head.size());
  EXPECT_EQ(bad.max_index, 1u);
}

TEST(Wal, CheckpointWithReservedTextTagIsRefused) {
  // The int64 image is byte-identical to the writer's; the same image with a
  // tag-2 value is malformed and read_checkpoint leaves `out` empty.
  TempDir tmp;
  const fs::path path = tmp.dir / "checkpoint.bin";
  wal::CheckpointData data;
  data.floor = 3;
  data.versions.push_back({11, 3, Value{std::int64_t{5}}});
  ASSERT_TRUE(write_checkpoint(path, data));
  ASSERT_EQ(read_file(path), checkpoint_image(int_value(5)));

  write_file(path, checkpoint_image(text_value("abcd")));
  wal::CheckpointData out;
  EXPECT_FALSE(wal::read_checkpoint(path, out));
  EXPECT_TRUE(out.versions.empty());
  EXPECT_EQ(out.floor, 0u);
}

TEST(Wal, EarlierLayoutMagicsAreRefused) {
  // The layout before one durable floor logged each commit's classes and
  // checkpointed per-class watermarks under the magics OTPWAL1 / OTPCKP1.
  // Files in it are refused, never decoded under the current layout.
  TempDir tmp;
  std::vector<std::uint8_t> commit{1};  // index 1, class 0, one write to 8
  put_le(commit, 1, 8);
  put_le(commit, 1, 2);
  put_le(commit, 0, 4);
  put_le(commit, 1, 4);
  put_le(commit, 8, 8);
  const std::vector<std::uint8_t> value = int_value(1);
  commit.insert(commit.end(), value.begin(), value.end());
  std::vector<std::uint8_t> segment{'O', 'T', 'P', 'W', 'A', 'L', '1', '\n'};
  append_frame(segment, commit);
  const fs::path log = tmp.dir / wal::segment_name(1);
  write_file(log, segment);
  std::uint64_t decoded = 0;
  wal::ScanCallbacks count;
  count.on_commit = [&decoded](const wal::CommitRecord&) { ++decoded; };
  const wal::ScanResult scan = wal::scan_segment(log, count);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.records, 0u);
  EXPECT_EQ(decoded, 0u);

  std::vector<std::uint8_t> payload;
  put_le(payload, 1, 4);  // one class
  put_le(payload, 3, 8);  // its watermark
  put_le(payload, 3, 8);  // max index
  put_le(payload, 1, 8);  // one chain
  put_le(payload, 11, 8);
  put_le(payload, 1, 4);  // of one version
  put_le(payload, 3, 8);
  payload.insert(payload.end(), value.begin(), value.end());
  std::vector<std::uint8_t> image{'O', 'T', 'P', 'C', 'K', 'P', '1', '\n'};
  append_frame(image, payload);
  const fs::path checkpoint = tmp.dir / "checkpoint.bin";
  write_file(checkpoint, image);
  wal::CheckpointData out;
  EXPECT_FALSE(wal::read_checkpoint(checkpoint, out));
  EXPECT_TRUE(out.versions.empty());
}

// --- DurableStore ------------------------------------------------------------

StorageConfig durable_config() {
  StorageConfig config;
  config.backend = StorageBackendKind::durable;
  return config;
}

/// Commits one transaction writing `value` to `obj` at `index`, logged with
/// `floor` (every index at or below it committed).
void commit_one(DurableStore& store, ObjectId obj, std::int64_t value, TOIndex index,
                TOIndex floor, TOIndex horizon = 0) {
  const TxnId txn = 0;
  store.memory().write(txn, obj, Value{value});
  store.commit(txn, index, floor, horizon);
}

/// The newest version index any object holds.
TOIndex newest_version(const DurableStore& store) {
  TOIndex newest = 0;
  store.memory().for_each_at(std::numeric_limits<TOIndex>::max(),
                             [&newest](ObjectId, const VersionedStore::Version& v) {
                               newest = std::max(newest, v.index);
                             });
  return newest;
}

TEST(DurableStore, GroupCommitBatchesMultipleCommitsPerFsync) {
  TempDir tmp;
  Simulator sim;
  DurableStore store(sim, durable_config(), tmp.dir / "site-0", 16);
  // 10 commits within one flush window -> one fsync covers them all.
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i * 50 * kMicrosecond, [&store, i] {
      const auto index = static_cast<TOIndex>(i);
      commit_one(store, static_cast<ObjectId>(i % 16), i, index, index);
    });
  }
  sim.run_until(sim.now() + kSecond);
  const WalStats* stats = store.wal_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->commits_logged, 10u);
  EXPECT_EQ(stats->fsyncs, 1u) << "one group-commit flush covers the burst";
  EXPECT_EQ(store.durable_floor(), 10u);
}

TEST(DurableStore, RestartRebuildsExactCommittedState) {
  TempDir tmp;
  Simulator sim;
  DurableStore store(sim, durable_config(), tmp.dir / "site-0", 16);
  store.load(0, Value{std::int64_t{1000}});
  for (int i = 1; i <= 30; ++i) {
    sim.schedule_at(i * kMillisecond, [&store, i] {
      const auto index = static_cast<TOIndex>(i);
      commit_one(store, static_cast<ObjectId>(i % 16), i * 7, index, index);
    });
  }
  sim.run_until(sim.now() + kSecond);

  // Capture the committed image, then cold-restart and compare.
  std::vector<std::pair<ObjectId, Value>> before;
  for (ObjectId obj = 0; obj < 16; ++obj) {
    const auto v = store.memory().read_latest(obj);
    if (v) before.emplace_back(obj, *v);
  }
  store.crash();
  EXPECT_EQ(store.restart_from_disk(), 30u);
  for (const auto& [obj, value] : before) {
    const auto v = store.memory().read_latest(obj);
    ASSERT_TRUE(v.has_value()) << "object " << obj;
    EXPECT_EQ(*v, value) << "object " << obj;
  }
}

TEST(DurableStore, RestartRebuildsTheCommittedStateAtItsFloor) {
  // Commits arrive in swapped pairs (2, 1, 4, 3, ...), as under object keys
  // or across classes, each logged with the committed floor it found: the
  // pair 2k, 2k-1 carries floor 2k-2. The last pair on disk (40, 39) thus
  // carries floor 38, and a restart rebuilds exactly the state at 38: the
  // two records above it are skipped, no version above 38 survives, and a
  // snapshot at 38 reads what the committed history holds there.
  TempDir tmp;
  Simulator sim;
  DurableStore store(sim, durable_config(), tmp.dir / "site-0", 8);
  std::map<ObjectId, std::vector<std::pair<TOIndex, Value>>> truth;
  for (ObjectId obj = 0; obj < 8; ++obj) {
    store.load(obj, Value{std::int64_t{0}});
    truth[obj].emplace_back(0, Value{std::int64_t{0}});
  }
  for (TOIndex index = 1; index <= 40; ++index) {
    truth[index % 8].emplace_back(index, Value{static_cast<std::int64_t>(index * 3)});
  }
  TOIndex floor = 0;
  for (int i = 1; i <= 40; ++i) {
    const auto index = static_cast<TOIndex>(i % 2 == 1 ? i + 1 : i - 1);
    sim.schedule_at(i * kMillisecond, [&store, &floor, index] {
      commit_one(store, index % 8, static_cast<std::int64_t>(index * 3), index, floor);
      if (index % 2 == 1) floor = index + 1;  // both of the pair are committed
    });
  }
  sim.run_until(sim.now() + 100 * kMillisecond);  // every record flushed
  ASSERT_EQ(store.durable_floor(), 38u);
  ASSERT_EQ(newest_version(store), 40u);

  store.crash();
  const TOIndex recovered = store.restart_from_disk();
  EXPECT_EQ(recovered, 38u);
  EXPECT_EQ(store.durable_floor(), recovered);
  EXPECT_EQ(store.wal_stats()->replayed_commits, 38u) << "records 39 and 40 are skipped";
  EXPECT_EQ(newest_version(store), recovered) << "no version above the floor";
  for (const auto& [obj, chain] : truth) {
    auto at = std::upper_bound(chain.begin(), chain.end(), recovered,
                               [](TOIndex s, const auto& v) { return s < v.first; });
    EXPECT_EQ(store.memory().read_snapshot(obj, recovered), std::prev(at)->second)
        << "object " << obj;
  }
}

TEST(DurableStore, RestartSurvivesTornTailAndDropsLaterSegments) {
  TempDir tmp;
  const fs::path dir = tmp.dir / "site-0";
  TOIndex durable_before = 0;
  {
    Simulator sim;
    StorageConfig config = durable_config();
    config.segment_bytes = 256;  // force several segment rolls
    DurableStore store(sim, config, dir, 8);
    for (int i = 1; i <= 40; ++i) {
      sim.schedule_at(i * kMillisecond, [&store, i] {
        const auto index = static_cast<TOIndex>(i);
        commit_one(store, static_cast<ObjectId>(i % 8), i, index, index);
      });
    }
    sim.run_until(sim.now() + kSecond);
    durable_before = store.durable_floor();
    ASSERT_EQ(durable_before, 40u);
  }
  // Tear the tail of the FIRST multi-record segment on disk: recovery must
  // stop there and ignore every later segment (no holes in the total order).
  std::vector<std::uint64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) seqs.push_back(std::stoull(name.substr(4, 10)));
  }
  std::sort(seqs.begin(), seqs.end());
  ASSERT_GE(seqs.size(), 3u) << "test needs several sealed segments";
  const fs::path victim = dir / wal::segment_name(seqs[0]);
  const std::vector<std::uint8_t> bytes = read_file(victim);
  write_file(victim, std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + bytes.size() - 3));

  Simulator sim;
  DurableStore store(sim, durable_config(), dir, 8);
  const TOIndex recovered = store.restart_from_disk();
  EXPECT_LT(recovered, durable_before);
  // Later segments are gone from disk (the freshly opened, magic-only active
  // segment reuses the next sequence number - exclude it by content).
  std::size_t later = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && std::stoull(name.substr(4, 10)) > seqs[0] &&
        fs::file_size(entry.path()) > 8) {
      ++later;
    }
  }
  EXPECT_EQ(later, 0u) << "segments after the torn one must be deleted";
  // The rebuilt state is exactly the valid prefix: the highest surviving
  // version is the recovered floor's write.
  EXPECT_EQ(newest_version(store), recovered);
}

TEST(DurableStore, CheckpointTruncatesSealedSegments) {
  TempDir tmp;
  Simulator sim;
  StorageConfig config = durable_config();
  config.segment_bytes = 256;
  config.checkpoint_interval = 100 * kMillisecond;
  DurableStore store(sim, config, tmp.dir / "site-0", 8);
  for (int i = 1; i <= 60; ++i) {
    sim.schedule_at(i * 10 * kMillisecond, [&store, i] {
      const auto index = static_cast<TOIndex>(i);
      commit_one(store, static_cast<ObjectId>(i % 8), i, index, index);
    });
  }
  sim.run_until(sim.now() + 5 * kSecond);
  const WalStats* stats = store.wal_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->checkpoints, 0u);
  EXPECT_GT(stats->segments_truncated, 0u) << "sealed segments below the floor must be GC'd";
  // Restart prefers the checkpoint: nearly all committed state comes from the
  // snapshot rather than WAL replay.
  store.crash();
  EXPECT_EQ(store.restart_from_disk(), 60u);
  EXPECT_EQ(stats->checkpoint_restores, 1u);
}

/// Every committed version per object, ascending by index (index 0 = load).
using History = std::map<ObjectId, std::vector<std::pair<TOIndex, Value>>>;

/// Loads 8 objects, then commits `rounds` single-write transactions, one per
/// millisecond, over checkpoints every 50 ms. Objects 0-3 take four indices
/// in five, objects 4-7 every fifth. Each commit is logged with the floor
/// three indices below it, as from an engine whose commits run ahead of its
/// committed floor, so the newest versions sit above the durable floor. With
/// `gc`, every commit passes the most aggressive engine GC horizon (keep
/// only the newest version). Returns the ground truth of what was committed.
History commit_rounds(Simulator& sim, DurableStore& store, int rounds, bool gc = false) {
  History truth;
  for (ObjectId obj = 0; obj < 8; ++obj) {
    store.load(obj, Value{std::int64_t{0}});
    truth[obj].emplace_back(0, Value{std::int64_t{0}});
  }
  for (int i = 1; i <= rounds; ++i) {
    const ObjectId obj = i % 5 == 0 ? 4 + (i / 5) % 4 : i % 4;
    truth[obj].emplace_back(i, Value{std::int64_t{i}});
    sim.schedule_at(i * kMillisecond, [&store, i, obj, gc] {
      const auto index = static_cast<TOIndex>(i);
      commit_one(store, obj, i, index, index < 3 ? 0 : index - 3, gc ? index + 1 : 0);
    });
  }
  sim.run_until(sim.now() + (rounds + 200) * kMillisecond);  // incl. a final checkpoint
  return truth;
}

StorageConfig frequent_checkpoints() {
  StorageConfig config = durable_config();
  config.checkpoint_interval = 50 * kMillisecond;
  return config;
}

/// The newest version of `chain` with index <= `snapshot`.
const std::pair<TOIndex, Value>& truth_at(const std::vector<std::pair<TOIndex, Value>>& chain,
                                          TOIndex snapshot) {
  auto it = std::upper_bound(chain.begin(), chain.end(), snapshot,
                             [](TOIndex s, const auto& v) { return s < v.first; });
  return *std::prev(it);
}

TEST(DurableStore, CheckpointHoldsOnlyVersionsReadableAtItsFloor) {
  TempDir tmp;
  const fs::path dir = tmp.dir / "site-0";
  Simulator sim;
  DurableStore store(sim, frequent_checkpoints(), dir, 8);
  const History truth = commit_rounds(sim, store, 403);
  EXPECT_GE(store.wal_stats()->checkpoints, 5u);

  wal::CheckpointData ckpt;
  ASSERT_TRUE(wal::read_checkpoint(dir / "checkpoint.bin", ckpt));
  const TOIndex floor = 400;  // record 403's floor
  ASSERT_EQ(ckpt.floor, floor);
  // Each object's newest version at or below the floor, and nothing else:
  // indices 401-403 sit above it.
  std::vector<wal::CheckpointVersion> expected;
  for (const auto& [obj, chain] : truth) {
    const auto& [index, value] = truth_at(chain, floor);
    expected.push_back({obj, index, value});
  }
  EXPECT_EQ(ckpt.versions, expected);

  // Restarting from the checkpoint rebuilds the state at the floor: versions
  // 401-403 are not restored, and a snapshot at the floor reads exactly what
  // the full history holds there.
  store.crash();
  EXPECT_EQ(store.restart_from_disk(), floor);
  EXPECT_EQ(newest_version(store), floor) << "index 400 is the floor's own write";
  for (const auto& [obj, chain] : truth) {
    EXPECT_EQ(store.memory().read_snapshot(obj, floor), truth_at(chain, floor).second)
        << "object " << obj;
  }
}

TEST(DurableStore, GcHorizonLeavesCheckpointBytesUnchanged) {
  // The store caps the engine's GC horizon at its durable floor, so however
  // hard the engine prunes, each checkpoint still finds the version at its
  // floor and writes the same bytes.
  struct Outcome {
    std::vector<std::uint8_t> checkpoint;
    std::size_t versions = 0;
  };
  const auto run = [](bool gc) {
    TempDir tmp;
    Simulator sim;
    DurableStore store(sim, frequent_checkpoints(), tmp.dir / "site-0", 8);
    commit_rounds(sim, store, 403, gc);
    return Outcome{read_file(tmp.dir / "site-0" / "checkpoint.bin"),
                   store.memory().total_versions()};
  };
  const Outcome kept = run(false);
  const Outcome pruned = run(true);
  EXPECT_EQ(pruned.checkpoint, kept.checkpoint);
  EXPECT_LT(pruned.versions, kept.versions / 10) << "RAM chains were pruned";
}

TEST(DurableStore, CheckpointSizeDoesNotGrowWithHistory) {
  // Same objects, same final phase (the run lengths are multiples of 20), 10x
  // the history: a checkpoint of the live state is no larger.
  const auto checkpoint_bytes = [](int rounds) {
    TempDir tmp;
    Simulator sim;
    DurableStore store(sim, frequent_checkpoints(), tmp.dir / "site-0", 8);
    commit_rounds(sim, store, rounds);
    return fs::file_size(tmp.dir / "site-0" / "checkpoint.bin");
  };
  const std::uintmax_t short_run = checkpoint_bytes(400);
  const std::uintmax_t long_run = checkpoint_bytes(4000);
  EXPECT_LE(long_run, short_run);
}

}  // namespace
}  // namespace otpdb
