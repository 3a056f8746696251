#include "sketch/substrate/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <new>

#include "util/fault_injection.hpp"

namespace covstream {
namespace {

constexpr std::size_t kHeaderBytes = SnapshotWriter::kHeaderBytes;
constexpr std::size_t kChecksumBytes = SnapshotWriter::kChecksumBytes;
constexpr std::size_t kSectionHeaderBytes = 12;  // u32 tag + u64 length

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// XXH64's primes (docs/FORMATS.md §1).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

// One lane step. The rotate sits between the two multiplies so a flipped top
// bit cannot cancel against a second flip in the same lane: without it,
// (x ^ 2^63) * P == x * P ^ 2^63 carries the flip through unchanged.
std::uint64_t checksum_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

std::uint64_t checksum_merge(std::uint64_t hash, std::uint64_t lane) {
  return (hash ^ checksum_round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t snapshot_checksum(std::span<const std::uint8_t> bytes) {
  // Words are read with memcpy, i.e. little-endian on the only hosts the
  // frame accepts (the endianness marker is checked before the checksum).
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  std::uint64_t hash;
  if (bytes.size() >= 32) {
    std::uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
    for (; end - p >= 32; p += 32) {
      lane[0] = checksum_round(lane[0], read_u64(p));
      lane[1] = checksum_round(lane[1], read_u64(p + 8));
      lane[2] = checksum_round(lane[2], read_u64(p + 16));
      lane[3] = checksum_round(lane[3], read_u64(p + 24));
    }
    hash = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
           std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
    for (const std::uint64_t v : lane) hash = checksum_merge(hash, v);
  } else {
    hash = kPrime5;
  }
  hash += bytes.size();
  for (; end - p >= 8; p += 8) {
    hash ^= checksum_round(0, read_u64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    hash ^= std::uint64_t{read_u32(p)} * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= std::uint64_t{*p} * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

// ------------------------------------------------------------------ writer ----

SnapshotWriter::SnapshotWriter(SnapshotType type) : type_(type) { grow(0); }

void SnapshotWriter::grow(std::size_t len) {
  const std::size_t want =
      std::max({std::size_t{4096}, 2 * capacity_, size_ + len + kChecksumBytes});
  auto* grown = static_cast<std::uint8_t*>(std::realloc(buffer_.get(), want));
  if (grown == nullptr) throw std::bad_alloc();
  (void)buffer_.release();  // realloc freed or reused the old block
  buffer_.reset(grown);
  capacity_ = want;
}

void SnapshotWriter::begin_section(std::uint32_t tag) {
  u32(tag);
  open_sections_.push_back(size_);
  u64(0);  // length, patched by end_section()
}

void SnapshotWriter::end_section() {
  COVSTREAM_CHECK(!open_sections_.empty());
  const std::size_t at = open_sections_.back();
  open_sections_.pop_back();
  const std::uint64_t length = size_ - (at + sizeof(std::uint64_t));
  std::memcpy(buffer_.get() + at, &length, sizeof length);
}

std::span<const std::uint8_t> SnapshotWriter::frame() {
  COVSTREAM_CHECK(open_sections_.empty());
  std::uint8_t* const image = buffer_.get();
  const auto put_u32 = [image](std::size_t at, std::uint32_t v) {
    std::memcpy(image + at, &v, sizeof v);
  };
  const std::uint64_t payload_len = size_ - kHeaderBytes;
  std::memcpy(image, kSnapshotMagic, sizeof kSnapshotMagic);
  put_u32(8, kSnapshotVersion);
  put_u32(12, kSnapshotEndianMarker);
  put_u32(16, static_cast<std::uint32_t>(type_));
  put_u32(20, 0);  // reserved
  std::memcpy(image + 24, &payload_len, sizeof payload_len);
  const std::uint64_t checksum =
      snapshot_checksum(std::span<const std::uint8_t>(image, size_));
  // raw() always leaves room for the trailer.
  std::memcpy(image + size_, &checksum, sizeof checksum);
  return {image, size_ + kChecksumBytes};
}

std::vector<std::uint8_t> SnapshotWriter::finish() {
  const std::span<const std::uint8_t> image = frame();
  return {image.begin(), image.end()};
}

bool SnapshotWriter::write_file(const std::string& path, std::string* error) {
  const std::span<const std::uint8_t> image = frame();
  // Unique temp name per write: concurrent writers to one destination (the
  // serve REPL's `save` racing a periodic checkpoint) must not truncate
  // each other's half-written temp and publish a torn image — whichever
  // rename lands last must still be a complete snapshot.
  static std::atomic<unsigned> temp_counter{0};
  const std::string temp =
      path + ".tmp." + std::to_string(temp_counter.fetch_add(1)) + "." +
      std::to_string(static_cast<unsigned long>(::getpid()));
  FaultInjector& faults = FaultInjector::instance();
  const auto set_error = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };

  if (faults.evaluate("snapshot.open").action != FaultAction::kNone) {
    return set_error("cannot open " + temp + " for writing");
  }
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    return set_error("cannot open " + temp + " for writing");
  }
  // Unbuffered, chunked writes: every chunk is one write(2), so an
  // `abort`-at-Nth-write failpoint leaves exactly the first N-1 chunks on
  // disk — a genuinely torn temp file, which the reboot sweep must handle.
  std::setvbuf(file, nullptr, _IONBF, 0);
  constexpr std::size_t kChunkBytes = 4096;
  bool wrote = true;
  int write_errno = 0;
  for (std::size_t at = 0; at < image.size(); at += kChunkBytes) {
    const std::size_t len = std::min(kChunkBytes, image.size() - at);
    const FaultHit hit = faults.evaluate("snapshot.write");
    if (hit.action != FaultAction::kNone) {
      // A short write lands part of the chunk before failing, like a disk
      // that filled mid-write; `fail`/`enospc` land nothing.
      if (hit.action == FaultAction::kShort && len > 1) {
        (void)std::fwrite(image.data() + at, 1, len / 2, file);
      }
      wrote = false;
      write_errno = hit.fault_errno;
      break;
    }
    if (std::fwrite(image.data() + at, 1, len, file) != len) {
      wrote = false;
      write_errno = errno;
      break;
    }
  }
  // The data must be durable BEFORE the rename publishes it, or a power
  // loss can commit the rename metadata ahead of the data blocks and leave
  // a torn file at `path` — the exact crash checkpoints exist to survive.
  if (wrote) {
    if (faults.evaluate("snapshot.fsync").action != FaultAction::kNone) {
      wrote = false;
      write_errno = EIO;
    } else {
      wrote = std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
      if (!wrote) write_errno = errno;
    }
  }
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    // Never leak the temp: a failed write must leave the spill dir exactly
    // as it was (tests pin this; the boot scan sweeps crash leftovers).
    std::remove(temp.c_str());
    std::string detail =
        write_errno != 0 ? std::string(std::strerror(write_errno)) : "";
    return set_error("short write to " + temp +
                     (detail.empty() ? "" : " (" + detail + ")"));
  }
  if (faults.evaluate("snapshot.rename").action != FaultAction::kNone ||
      std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return set_error("cannot rename " + temp + " to " + path);
  }
  // Persist the rename itself (directory entry). A failure here leaves a
  // valid file at `path` that may revert to the previous snapshot after a
  // power loss, so it is reported as a failure — callers that must be
  // durable (fleet flush) retry; callers that can tolerate a rollback see
  // exactly what happened in the error string.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  bool dir_synced = false;
  if (faults.evaluate("snapshot.dirsync").action == FaultAction::kNone) {
    const int dir_fd = ::open(dir.c_str(), O_RDONLY);
    if (dir_fd >= 0) {
      dir_synced = ::fsync(dir_fd) == 0;
      ::close(dir_fd);
    }
  }
  if (!dir_synced) {
    return set_error("directory fsync failed for " + dir + " (" + path +
                     " was renamed into place but the rename may not survive "
                     "a power loss)");
  }
  return true;
}

// ------------------------------------------------------------------ reader ----

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> image)
    : image_(std::move(image)) {
  if (image_.size() < kHeaderBytes + kChecksumBytes) {
    fail("snapshot truncated: shorter than header + checksum");
    return;
  }
  if (std::memcmp(image_.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    fail("bad magic: not a covstream snapshot");
    return;
  }
  const std::uint32_t version = read_u32(image_.data() + 8);
  if (version != kSnapshotVersion) {
    fail("unsupported snapshot version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kSnapshotVersion) + ")");
    return;
  }
  if (read_u32(image_.data() + 12) != kSnapshotEndianMarker) {
    fail("endianness mismatch: snapshot written on an incompatible host");
    return;
  }
  type_ = static_cast<SnapshotType>(read_u32(image_.data() + 16));
  const std::uint64_t payload_len = read_u64(image_.data() + 24);
  if (payload_len != image_.size() - kHeaderBytes - kChecksumBytes) {
    fail("snapshot truncated: payload length does not match file size");
    return;
  }
  const std::uint64_t stored =
      read_u64(image_.data() + image_.size() - kChecksumBytes);
  const std::uint64_t computed = snapshot_checksum(
      std::span<const std::uint8_t>(image_.data(), image_.size() - kChecksumBytes));
  if (stored != computed) {
    fail("checksum mismatch: snapshot corrupted");
    return;
  }
  cursor_ = kHeaderBytes;
  limit_ = image_.size() - kChecksumBytes;
  scope_end_ = limit_;
}

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  std::vector<std::uint8_t> image;
  const auto refuse = [&image](std::string message) {
    SnapshotReader reader(std::move(image));
    reader.error_ = std::move(message);
    return reader;
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return refuse("cannot open snapshot " + path);
  // Sized once from fstat; the spare byte lets the read that fills the
  // image be followed by the one that returns end of file. A file that grew
  // since the fstat just keeps the loop going.
  struct stat st {};
  const std::size_t expected =
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size)
          : 0;
  image.resize(expected + 1);
  std::size_t got = 0;
  int read_errno = 0;
  for (;;) {
    if (got == image.size()) image.resize(2 * image.size());
    const ::ssize_t n = ::read(fd, image.data() + got, image.size() - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      read_errno = errno;
      break;
    }
  }
  ::close(fd);
  if (read_errno != 0) {
    image.clear();
    return refuse("cannot read snapshot " + path + " (" +
                  std::strerror(read_errno) + ")");
  }
  image.resize(got);
  return SnapshotReader(std::move(image));
}

bool SnapshotReader::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
  cursor_ = limit_;  // poison: no further reads
  return false;
}

bool SnapshotReader::overrun() {
  if (!ok()) return false;
  return fail("snapshot truncated: read past " +
              std::string(section_limits_.empty() ? "payload" : "section") +
              " end");
}

bool SnapshotReader::bytes(void* out, std::size_t len) {
  if (!need(len)) return false;
  // len == 0 short-circuits: `out` may be a null data() pointer from an
  // empty vector, and memcpy's arguments are declared nonnull even for a
  // zero count (an empty tenant sketch snapshots empty arrays).
  if (len > 0) std::memcpy(out, image_.data() + cursor_, len);
  cursor_ += len;
  return true;
}

template <typename T>
static bool read_array(SnapshotReader& reader, std::vector<T>& out,
                       std::uint64_t max_count) {
  const std::uint64_t count = reader.u64();
  if (!reader.ok()) return false;
  // Check the implied byte length against the remaining scope BEFORE
  // resizing (division, so a forged count can neither overflow the
  // multiplication nor provoke a terabyte allocation), then the caller's
  // semantic bound.
  if (count > reader.remaining() / sizeof(T)) {
    return reader.fail("array count " + std::to_string(count) +
                       " overruns the section payload");
  }
  if (count > max_count) {
    return reader.fail("array count " + std::to_string(count) +
                       " exceeds bound " + std::to_string(max_count));
  }
  out.resize(static_cast<std::size_t>(count));
  return reader.bytes(out.data(), out.size() * sizeof(T));
}

bool SnapshotReader::u32_array(std::vector<std::uint32_t>& out,
                               std::uint64_t max_count) {
  return read_array(*this, out, max_count);
}

bool SnapshotReader::u64_array(std::vector<std::uint64_t>& out,
                               std::uint64_t max_count) {
  return read_array(*this, out, max_count);
}

bool SnapshotReader::f64_array(std::vector<double>& out,
                               std::uint64_t max_count) {
  return read_array(*this, out, max_count);
}

bool SnapshotReader::begin_section(std::uint32_t expected_tag) {
  if (!need(kSectionHeaderBytes)) return false;
  const std::uint32_t tag = u32();
  const std::uint64_t length = u64();
  if (tag != expected_tag) {
    const char want[5] = {static_cast<char>(expected_tag & 0xFF),
                          static_cast<char>((expected_tag >> 8) & 0xFF),
                          static_cast<char>((expected_tag >> 16) & 0xFF),
                          static_cast<char>((expected_tag >> 24) & 0xFF), '\0'};
    return fail(std::string("section tag mismatch: expected '") + want + "'");
  }
  if (length > scope_end_ - cursor_) {
    return fail("section length overruns its enclosing scope");
  }
  scope_end_ = cursor_ + static_cast<std::size_t>(length);
  section_limits_.push_back(scope_end_);
  return true;
}

bool SnapshotReader::end_section() {
  if (!ok()) return false;
  COVSTREAM_CHECK(!section_limits_.empty());
  const std::size_t expected_end = section_limits_.back();
  section_limits_.pop_back();
  scope_end_ = section_limits_.empty() ? limit_ : section_limits_.back();
  if (cursor_ != expected_end) {
    return fail("section not fully consumed: trailing bytes");
  }
  return true;
}

}  // namespace covstream
