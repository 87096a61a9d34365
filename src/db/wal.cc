#include "db/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <fstream>
#include <span>

#include "util/assert.h"

namespace otpdb::wal {
namespace {

constexpr char kSegmentMagic[8] = {'O', 'T', 'P', 'W', 'A', 'L', '2', '\n'};
constexpr char kCheckpointMagic[8] = {'O', 'T', 'P', 'C', 'K', 'P', '2', '\n'};
constexpr std::uint8_t kRecordCommit = 1;
constexpr std::uint8_t kRecordLoad = 2;
constexpr std::uint8_t kTagInt64 = 0;
constexpr std::uint8_t kTagDouble = 1;  // tag 2 is reserved: see the format in wal.h

/// Slice-by-8 CRC tables: [0] is the bytewise table; [k][i] is the CRC of
/// byte i followed by k zero bytes, so eight table lookups advance the CRC
/// by eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t read_u32le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

// --- little-endian encode helpers -----------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

/// Appends the little-endian bytes of `v` in one step. The buffer grows as a
/// push_back per byte would grow it (doubling once full), so its capacity,
/// and the allocations behind it, do not depend on how fields are appended.
template <typename U>
void put_le(std::vector<std::uint8_t>& out, U v) {
  std::uint8_t bytes[sizeof(U)];
  for (std::size_t i = 0; i < sizeof(U); ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  if (out.capacity() - out.size() < sizeof(U)) {
    std::size_t capacity = out.capacity();
    while (capacity - out.size() < sizeof(U)) capacity = capacity == 0 ? 1 : 2 * capacity;
    out.reserve(capacity);
  }
  out.insert(out.end(), bytes, bytes + sizeof(U));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) { put_le(out, v); }

void put_value(std::vector<std::uint8_t>& out, const Value& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    put_u8(out, kTagInt64);
    put_u64(out, static_cast<std::uint64_t>(*i));
  } else {
    put_u8(out, kTagDouble);
    std::uint64_t bits;
    std::memcpy(&bits, &std::get<double>(value), sizeof(bits));
    put_u64(out, bits);
  }
}

// --- bounds-checked decode cursor -----------------------------------------

// Every get_* returns false instead of reading past `end`, so a truncated
// or garbage payload can never walk off the buffer (the corruption tests
// run this under ASan).
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;

  bool get_u8(std::uint8_t& v) {
    if (end - p < 1) return false;
    v = *p++;
    return true;
  }
  bool get_u32(std::uint32_t& v) {
    if (end - p < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    return true;
  }
  bool get_u64(std::uint64_t& v) {
    if (end - p < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    return true;
  }
  bool get_value(Value& v) {
    std::uint8_t tag;
    std::uint64_t bits;
    if (!get_u8(tag) || !get_u64(bits)) return false;
    if (tag == kTagInt64) {
      v = static_cast<std::int64_t>(bits);
      return true;
    }
    if (tag != kTagDouble) return false;  // the reserved tag 2 or garbage
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    v = d;
    return true;
  }
};

bool decode_commit(Cursor& cur, CommitRecord& rec) {
  std::uint64_t index, floor;
  std::uint32_t n_writes;
  if (!cur.get_u64(index) || !cur.get_u64(floor) || !cur.get_u32(n_writes)) return false;
  rec.index = index;
  rec.floor = floor;
  rec.writes.clear();
  rec.writes.reserve(n_writes);
  for (std::uint32_t i = 0; i < n_writes; ++i) {
    std::uint64_t object;
    Value value;
    if (!cur.get_u64(object) || !cur.get_value(value)) return false;
    rec.writes.emplace_back(object, value);
  }
  return cur.p == cur.end;  // trailing bytes = corrupt payload
}

bool decode_load(Cursor& cur, LoadRecord& rec) {
  std::uint64_t object;
  if (!cur.get_u64(object) || !cur.get_value(rec.value)) return false;
  rec.object = object;
  return cur.p == cur.end;
}

constexpr std::size_t kFrameHeader = 8;  // u32 payload_len | u32 crc32(payload)

/// Reserves a frame header at the end of `out`; returns where it starts.
std::size_t begin_frame(std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + kFrameHeader);
  return at;
}

void patch_u32(std::vector<std::uint8_t>& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Fills in the header at `at` for the payload encoded after it.
void end_frame(std::vector<std::uint8_t>& out, std::size_t at) {
  const std::size_t len = out.size() - at - kFrameHeader;
  patch_u32(out, at, static_cast<std::uint32_t>(len));
  patch_u32(out, at + 4, crc32(out.data() + at + kFrameHeader, len));
}

bool read_all(const std::filesystem::path& path, std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

// Walks frames after the magic, dispatching each intact record. Returns the
// valid prefix; stops (clean=false) at the first torn or corrupt frame.
ScanResult scan_frames(std::span<const std::uint8_t> bytes, const ScanCallbacks& callbacks) {
  ScanResult result;
  std::size_t off = sizeof(kSegmentMagic);
  result.valid_bytes = off;
  CommitRecord commit;
  LoadRecord load;
  while (off < bytes.size()) {
    if (bytes.size() - off < 8) {
      result.clean = false;
      break;
    }
    const std::uint32_t len = read_u32le(bytes.data() + off);
    const std::uint32_t crc = read_u32le(bytes.data() + off + 4);
    if (bytes.size() - off - 8 < len) {
      result.clean = false;  // torn tail: frame header promises more bytes
      break;
    }
    const std::uint8_t* payload = bytes.data() + off + 8;
    if (crc32(payload, len) != crc) {
      result.clean = false;
      break;
    }
    Cursor cur{payload, payload + len};
    std::uint8_t type;
    bool ok = cur.get_u8(type);
    if (ok && type == kRecordCommit) {
      ok = decode_commit(cur, commit);
      if (ok) {
        result.max_index = std::max(result.max_index, commit.index);
        result.max_floor = std::max(result.max_floor, commit.floor);
        if (callbacks.on_commit) callbacks.on_commit(commit);
      }
    } else if (ok && type == kRecordLoad) {
      ok = decode_load(cur, load);
      if (ok && callbacks.on_load) callbacks.on_load(load);
    } else {
      ok = false;
    }
    if (!ok) {
      result.clean = false;  // crc passed but payload malformed: still stop
      break;
    }
    off += 8 + len;
    result.valid_bytes = off;
    ++result.records;
  }
  return result;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xffffffffu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ read_u32le(p);
    const std::uint32_t hi = read_u32le(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
        t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void append_commit(std::vector<std::uint8_t>& out, TOIndex index, TOIndex floor,
                   std::span<const std::pair<ObjectId, Value>> writes) {
  OTPDB_CHECK_MSG(floor <= index, "a commit record's floor lies at or below its index");
  const std::size_t frame = begin_frame(out);
  put_u8(out, kRecordCommit);
  put_u64(out, index);
  put_u64(out, floor);
  put_u32(out, static_cast<std::uint32_t>(writes.size()));
  for (const auto& [object, value] : writes) {
    put_u64(out, object);
    put_value(out, value);
  }
  end_frame(out, frame);
}

void append_load(std::vector<std::uint8_t>& out, ObjectId object, const Value& value) {
  const std::size_t frame = begin_frame(out);
  put_u8(out, kRecordLoad);
  put_u64(out, object);
  put_value(out, value);
  end_frame(out, frame);
}

ScanResult scan_segment(const std::filesystem::path& path, const ScanCallbacks& callbacks) {
  std::vector<std::uint8_t> bytes;
  if (!read_all(path, bytes)) return {};  // missing file: empty, clean
  if (bytes.size() < sizeof(kSegmentMagic) ||
      std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    ScanResult bad;
    bad.clean = false;
    return bad;
  }
  return scan_frames(bytes, callbacks);
}

std::string segment_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%010llu.log", static_cast<unsigned long long>(seq));
  return buf;
}

bool SegmentWriter::open(const std::filesystem::path& path, IoEnv& io) {
  close();
  io_ = &io;
  fd_ = io_->open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return false;
  const off_t existing = ::lseek(fd_, 0, SEEK_END);
  if (existing > 0) {
    size_ = static_cast<std::uint64_t>(existing);
    return true;
  }
  size_ = 0;
  if (!append_and_sync(reinterpret_cast<const std::uint8_t*>(kSegmentMagic),
                       sizeof(kSegmentMagic))) {
    // A torn magic write would leave a file that scans as "bad magic, not
    // clean" - worse than no file. The caller retries open() later.
    close();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return false;
  }
  return true;
}

void SegmentWriter::close() {
  if (fd_ >= 0) {
    io_->close(fd_);
    fd_ = -1;
  }
  size_ = 0;
}

bool SegmentWriter::append_and_sync(const std::uint8_t* data, std::size_t n) {
  OTPDB_CHECK_MSG(fd_ >= 0, "append on a closed WAL segment");
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = io_->write(fd_, data + done, n - done);
    if (w < 0) return false;
    done += static_cast<std::size_t>(w);
  }
  if (io_->fsync(fd_) != 0) return false;
  size_ += n;
  return true;
}

bool truncate_file(const std::filesystem::path& path, std::uint64_t valid_bytes, IoEnv& io) {
  return io.truncate(path.c_str(), static_cast<off_t>(valid_bytes)) == 0;
}

CheckpointWriter::CheckpointWriter(std::vector<std::uint8_t>& buffer, TOIndex floor)
    : buffer_(buffer) {
  buffer_.assign(kCheckpointMagic, kCheckpointMagic + sizeof(kCheckpointMagic));
  begin_frame(buffer_);
  put_u64(buffer_, floor);
  n_objects_at_ = buffer_.size();
  put_u64(buffer_, 0);  // n_objects, patched by write()
}

void CheckpointWriter::add(ObjectId object, TOIndex index, const Value& value) {
  ++objects_;
  put_u64(buffer_, object);
  put_u64(buffer_, index);
  put_value(buffer_, value);
}

bool CheckpointWriter::write(const std::filesystem::path& path, IoEnv& io) {
  patch_u32(buffer_, n_objects_at_, static_cast<std::uint32_t>(objects_));
  patch_u32(buffer_, n_objects_at_ + 4, static_cast<std::uint32_t>(objects_ >> 32));
  end_frame(buffer_, sizeof(kCheckpointMagic));

  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    const int fd = io.open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;
    std::size_t done = 0;
    while (done < buffer_.size()) {
      const ssize_t w = io.write(fd, buffer_.data() + done, buffer_.size() - done);
      if (w < 0) {
        io.close(fd);
        return false;
      }
      done += static_cast<std::size_t>(w);
    }
    const bool synced = io.fsync(fd) == 0;
    io.close(fd);
    if (!synced) return false;
  }
  // The failed-rename (or failed-fsync) path leaves the temp file behind and
  // the previous checkpoint intact - recovery ignores "*.tmp".
  return io.rename(tmp.c_str(), path.c_str()) == 0;
}

bool read_checkpoint(const std::filesystem::path& path, CheckpointData& out) {
  out = {};
  std::vector<std::uint8_t> bytes;
  if (!read_all(path, bytes)) return false;
  if (bytes.size() < sizeof(kCheckpointMagic) + 8 ||
      std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return false;
  }
  const std::uint8_t* frame_start = bytes.data() + sizeof(kCheckpointMagic);
  const std::uint32_t len = read_u32le(frame_start);
  const std::uint32_t crc = read_u32le(frame_start + 4);
  if (bytes.size() - sizeof(kCheckpointMagic) - 8 < len) return false;
  const std::uint8_t* payload = frame_start + 8;
  if (crc32(payload, len) != crc) return false;

  Cursor cur{payload, payload + len};
  std::uint64_t floor, n_objects;
  if (!cur.get_u64(floor) || !cur.get_u64(n_objects)) return false;
  out.floor = floor;
  for (std::uint64_t i = 0; i < n_objects; ++i) {
    CheckpointVersion version;
    if (!cur.get_u64(version.object) || !cur.get_u64(version.index) ||
        !cur.get_value(version.value) || version.index > floor) {
      out = {};
      return false;
    }
    out.versions.push_back(version);
  }
  if (cur.p != cur.end) { out = {}; return false; }
  return true;
}

}  // namespace otpdb::wal
