#include "recovery/wal.h"

#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/byte_io.h"
#include "recovery/journal.h"

namespace wvm {
namespace {

namespace fs = std::filesystem;

/// "WALR" in the file; a cheap first line of defense when scanning for the
/// next record boundary after a torn write.
constexpr uint32_t kRecordMagic = 0x524C4157;
constexpr size_t kHeaderBytes = 24;  // magic u32, length u32, lsn u64, sum u64
/// Upper bound on one record's payload; anything larger in a header is
/// treated as corruption, not an allocation request.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

std::string SegmentFileName(const std::string& name, uint64_t first_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(first_lsn));
  return name + "-" + buf + ".wal";
}

/// Parses the first-LSN component out of a segment file name; returns false
/// if the name does not match `<name>-<20 digits>.wal`.
bool ParseSegmentFileName(const std::string& file, const std::string& name,
                          uint64_t* first_lsn) {
  const std::string prefix = name + "-";
  const std::string suffix = ".wal";
  if (file.size() != prefix.size() + 20 + suffix.size()) return false;
  if (file.compare(0, prefix.size(), prefix) != 0) return false;
  if (file.compare(file.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < file.size() - suffix.size(); ++i) {
    if (file[i] < '0' || file[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(file[i] - '0');
  }
  *first_lsn = v;
  return true;
}

}  // namespace

Status WalOptions::Validate() const {
  if (dir.empty()) {
    return Status::InvalidArgument("wal: options.dir must be set");
  }
  if (name.empty()) {
    return Status::InvalidArgument("wal: options.name must be non-empty");
  }
  if (segment_bytes <= 0) {
    return Status::InvalidArgument("wal: segment_bytes must be positive");
  }
  if (flush_bytes <= 0) {
    return Status::InvalidArgument("wal: flush_bytes must be positive");
  }
  if (flush_appends < 1) {
    return Status::InvalidArgument("wal: flush_appends must be >= 1");
  }
  return Status::OK();
}

WalDirectory::~WalDirectory() {
  if (owned_) {
    std::error_code ec;
    fs::remove_all(path_, ec);  // best-effort cleanup
  }
}

Status WalDirectory::Open(const std::string& dir) {
  if (!dir.empty()) {
    path_ = dir;
    return Status::OK();
  }
  std::error_code ec;
  const fs::path base = fs::temp_directory_path(ec);
  if (ec) {
    return Status::Internal("no temp directory for WAL segments: " +
                            ec.message());
  }
  std::string tmpl = (base / "wvm-wal-XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    return Status::Internal("cannot create a temp WAL directory under " +
                            base.string() + ": " + std::strerror(errno));
  }
  path_ = std::move(tmpl);
  owned_ = true;
  return Status::OK();
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const WalOptions& options, std::vector<WalRecoveredRecord>* recovered) {
  WVM_RETURN_IF_ERROR(options.Validate());
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("wal: cannot create directory " + options.dir +
                            ": " + ec.message());
  }

  std::unique_ptr<WalWriter> wal(new WalWriter(options));

  // Discover existing segments, oldest first (the zero-padded first-LSN in
  // the file name makes lexicographic order LSN order).
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(options.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    uint64_t first_lsn = 0;
    const std::string file = entry.path().filename().string();
    if (ParseSegmentFileName(file, options.name, &first_lsn)) {
      found.emplace_back(first_lsn, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());

  uint64_t prev_lsn = 0;
  bool have_prev = false;
  for (size_t si = 0; si < found.size(); ++si) {
    const bool last_segment = si + 1 == found.size();
    const std::string& path = found[si].second;

    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::Internal("wal: cannot read segment " + path);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();

    if (data.empty()) {
      // A segment created but never flushed (crash between create and first
      // group commit). Only legal at the tail; drop the empty file.
      if (!last_segment) {
        return Status::Internal("wal: empty segment mid-log: " + path);
      }
      fs::remove(path, ec);
      continue;
    }

    Segment seg;
    seg.path = path;
    seg.first_lsn = found[si].first;
    size_t offset = 0;
    bool first_record = true;
    std::string bad;  // why the scan stopped, empty while clean
    while (offset < data.size()) {
      if (data.size() - offset < kHeaderBytes) {
        bad = "truncated header";
        break;
      }
      ByteReader header(std::string_view(data).substr(offset, kHeaderBytes));
      const uint32_t magic = header.ReadU32();
      const uint32_t length = header.ReadU32();
      const uint64_t lsn = header.ReadU64();
      const uint64_t checksum = header.ReadU64();
      if (magic != kRecordMagic) {
        bad = "bad record magic";
        break;
      }
      if (length > kMaxPayloadBytes || length > data.size() - offset - kHeaderBytes) {
        bad = "truncated payload";
        break;
      }
      std::string payload = data.substr(offset + kHeaderBytes, length);
      if (JournalChecksum(lsn, payload) != checksum) {
        bad = "checksum mismatch";
        break;
      }
      if (have_prev && lsn <= prev_lsn) {
        bad = "non-monotonic lsn";
        break;
      }
      if (first_record && lsn != seg.first_lsn) {
        bad = "first record lsn disagrees with segment name";
        break;
      }
      prev_lsn = lsn;
      have_prev = true;
      first_record = false;
      seg.last_lsn = lsn;
      offset += kHeaderBytes + length;
      ++wal->stats_.recovered_records;
      if (recovered != nullptr) {
        recovered->push_back(WalRecoveredRecord{lsn, std::move(payload)});
      }
    }

    if (!bad.empty()) {
      if (!last_segment) {
        // Torn writes can only damage the tail of the log; a bad record with
        // a later segment after it is corruption of acknowledged history.
        return Status::Internal("wal: mid-log corruption (" + bad + ") in " +
                                path);
      }
      // Torn tail: truncate the last segment back to its last good record.
      int fd = ::open(path.c_str(), O_WRONLY);
      if (fd < 0 || ::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
        if (fd >= 0) ::close(fd);
        return Status::Internal("wal: cannot truncate torn tail of " + path);
      }
      ::fsync(fd);
      ::close(fd);
      wal->stats_.torn_records_dropped += 1;
      wal->stats_.torn_bytes_dropped +=
          static_cast<int64_t>(data.size() - offset);
      if (offset == 0) {
        // Nothing valid in the segment at all; drop the file entirely.
        fs::remove(path, ec);
        continue;
      }
    }

    seg.bytes = static_cast<int64_t>(offset);
    wal->segments_.push_back(std::move(seg));
  }

  if (!wal->segments_.empty()) {
    wal->end_lsn_ = wal->segments_.back().last_lsn + 1;
    wal->synced_end_lsn_ = wal->end_lsn_;
    wal->has_active_ = true;
  }
  return wal;
}

WalWriter::~WalWriter() {
  Status flush = Flush();  // best-effort durability on destruction
  (void)flush;
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(uint64_t lsn, const std::string& payload) {
  if (lsn < end_lsn_) {
    return Status::InvalidArgument("wal: append below the log's end LSN");
  }
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("wal: payload exceeds the record cap");
  }
  // Rotate once the active segment (disk + pending) has reached its quota;
  // records never straddle segments.
  if (has_active_ && !segments_.empty() &&
      segments_.back().bytes + static_cast<int64_t>(pending_.size()) >=
          options_.segment_bytes) {
    WVM_RETURN_IF_ERROR(Flush());
    WVM_RETURN_IF_ERROR(CloseActiveSegment());
  }
  if (!has_active_) {
    WVM_RETURN_IF_ERROR(OpenSegment(lsn));
  }

  const size_t before = pending_.size();
  PutU32(&pending_, kRecordMagic);
  PutU32(&pending_, static_cast<uint32_t>(payload.size()));
  PutU64(&pending_, lsn);
  PutU64(&pending_, JournalChecksum(lsn, payload));
  pending_.append(payload);
  ++pending_appends_;
  pending_last_lsn_ = lsn;
  end_lsn_ = lsn + 1;
  ++stats_.appends;
  stats_.appended_bytes += static_cast<int64_t>(pending_.size() - before);

  // Group commit: fsync only when a threshold trips (or on explicit Sync).
  if (static_cast<int64_t>(pending_.size()) >= options_.flush_bytes ||
      pending_appends_ >= options_.flush_appends) {
    WVM_RETURN_IF_ERROR(Flush());
  }
  return Status::OK();
}

Status WalWriter::Sync() { return Flush(); }

Status WalWriter::Flush() {
  if (pending_.empty()) return Status::OK();
  if (fd_ < 0) {
    fd_ = ::open(segments_.back().path.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) {
      return Status::Internal("wal: cannot reopen segment " +
                              segments_.back().path);
    }
  }
  WVM_RETURN_IF_ERROR(WriteRaw(pending_));
  if (options_.fsync) {
    if (::fsync(fd_) != 0) {
      return Status::Internal("wal: fsync failed on " + segments_.back().path);
    }
    ++stats_.fsyncs;
  }
  segments_.back().bytes += static_cast<int64_t>(pending_.size());
  segments_.back().last_lsn = pending_last_lsn_;
  synced_end_lsn_ = pending_last_lsn_ + 1;
  pending_.clear();
  pending_appends_ = 0;
  ++stats_.flushes;
  return Status::OK();
}

Status WalWriter::WriteRaw(const std::string& data) {
  const char* p = data.data();
  size_t n = data.size();
  if (crash_budget_ >= 0 && static_cast<int64_t>(n) > crash_budget_) {
    // Fuzz hook: emit a genuinely torn record — part of the batch reaches
    // the file — then die without unwinding, exactly like a power cut.
    size_t partial = static_cast<size_t>(crash_budget_);
    while (partial > 0) {
      ssize_t w = ::write(fd_, p, partial);
      if (w <= 0) break;
      p += w;
      partial -= static_cast<size_t>(w);
    }
    ::_exit(137);
  }
  while (n > 0) {
    ssize_t w = ::write(fd_, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("wal: write failed: " +
                              std::string(std::strerror(errno)));
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  if (crash_budget_ >= 0) crash_budget_ -= static_cast<int64_t>(data.size());
  return Status::OK();
}

Status WalWriter::OpenSegment(uint64_t first_lsn) {
  Segment seg;
  seg.path = (fs::path(options_.dir) / SegmentFileName(options_.name, first_lsn))
                 .string();
  seg.first_lsn = first_lsn;
  seg.last_lsn = first_lsn;
  fd_ = ::open(seg.path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) {
    return Status::Internal("wal: cannot create segment " + seg.path);
  }
  segments_.push_back(std::move(seg));
  has_active_ = true;
  ++stats_.segments_created;
  return SyncDirectory();
}

Status WalWriter::SyncDirectory() {
  if (!options_.fsync) return Status::OK();
  int fd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("wal: cannot open directory for fsync: " +
                            options_.dir);
  }
  // Some filesystems refuse fsync on directories; treat that as best-effort.
  ::fsync(fd);
  ::close(fd);
  ++stats_.dir_fsyncs;
  return Status::OK();
}

Status WalWriter::CloseActiveSegment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  has_active_ = false;
  return Status::OK();
}

Status WalWriter::TruncateBelow(uint64_t floor) {
  // Flush first so every segment's recorded bounds are exact.
  WVM_RETURN_IF_ERROR(Flush());
  bool dropped = false;
  while (!segments_.empty() && segments_.front().bytes > 0 &&
         segments_.front().last_lsn < floor) {
    const bool is_active = segments_.size() == 1 && has_active_;
    if (is_active) WVM_RETURN_IF_ERROR(CloseActiveSegment());
    std::error_code ec;
    fs::remove(segments_.front().path, ec);
    if (ec) {
      return Status::Internal("wal: cannot drop segment " +
                              segments_.front().path + ": " + ec.message());
    }
    segments_.erase(segments_.begin());
    ++stats_.segments_dropped;
    dropped = true;
  }
  if (dropped) WVM_RETURN_IF_ERROR(SyncDirectory());
  return Status::OK();
}

std::vector<std::string> WalWriter::SegmentPathsForTest() const {
  std::vector<std::string> paths;
  paths.reserve(segments_.size());
  for (const Segment& s : segments_) paths.push_back(s.path);
  return paths;
}

}  // namespace wvm
