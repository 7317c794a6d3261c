#ifndef WVM_RECOVERY_WAL_H_
#define WVM_RECOVERY_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace wvm {

/// On-disk backing for a Journal: a segmented, append-only write-ahead log
/// (DESIGN.md Section 2j). Each segment is a file of back-to-back records
///
///     [magic u32][length u32][lsn u64][checksum u64][payload bytes]
///
/// (little-endian, 24-byte header). The checksum is JournalChecksum(lsn,
/// payload) — the same FNV-1a 64 the in-memory journal stamps on records —
/// so the disk image and the memory image validate identically.
///
/// Segments are named `<name>-<first lsn, 20-digit decimal>.wal` so a
/// directory listing sorts them in LSN order. A segment is closed once it
/// reaches `segment_bytes`; truncation drops every whole segment whose
/// highest LSN falls below the checkpoint floor — the active one too, once
/// the floor passes its last record, so the next append opens a fresh
/// segment (segment drop, never in-place rewrite).
///
/// Appends are group-committed: records accumulate in a buffer that is
/// written and fsynced only when `flush_appends` records or `flush_bytes`
/// bytes are pending (or on an explicit Sync). `synced_end_lsn()` is the
/// durability contract: every record below it survives a process kill, which
/// is exactly what the crash-fuzz harness (wal_fuzz.h) checks. With `fsync`
/// off no flush is fsynced, and neither is the directory after a segment
/// create or drop.
///
/// Torn-tail rule on Open: segments are scanned in order, validating every
/// header and checksum. A bad record at the tail of the LAST segment is a
/// torn write — the scan stops there and the file is truncated to the last
/// good record. A bad record anywhere else (mid-log) is corruption that
/// truncation cannot have caused, and Open refuses with Internal rather
/// than silently dropping acknowledged history.
struct WalOptions {
  /// Directory holding the segments (created if missing).
  std::string dir;
  /// Segment file name prefix; distinct journals sharing a directory must
  /// use distinct names.
  std::string name = "wal";
  /// Close the active segment and start a new one once it holds at least
  /// this many bytes.
  int64_t segment_bytes = 1 << 20;
  /// Group commit: flush once this many record bytes are pending...
  int64_t flush_bytes = 1 << 16;
  /// ...or this many appends, whichever comes first. 1 = write-through.
  int flush_appends = 8;
  /// fsync(2) on every flush, and on the directory after every segment
  /// create and drop. Off only for benchmarks that want to isolate the
  /// buffering cost from the durability cost.
  bool fsync = true;

  Status Validate() const;
};

/// Counters for the WAL's own I/O, metered beside the paper's M (messages)
/// and B (bytes): group commit trades `fsyncs` against commit latency, and
/// the bench_wal sweep plots exactly that.
struct WalStats {
  int64_t appends = 0;
  int64_t appended_bytes = 0;
  int64_t flushes = 0;
  /// fsyncs of segment files: one per flush while `fsync` is on.
  int64_t fsyncs = 0;
  /// fsyncs of the segment directory while `fsync` is on: one per segment
  /// created and one per TruncateBelow that dropped a segment.
  int64_t dir_fsyncs = 0;
  int64_t segments_created = 0;
  int64_t segments_dropped = 0;
  /// Records recovered from existing segments by Open.
  int64_t recovered_records = 0;
  /// Torn records dropped from the last segment's tail by Open.
  int64_t torn_records_dropped = 0;
  int64_t torn_bytes_dropped = 0;

  WalStats& operator+=(const WalStats& o) {
    appends += o.appends;
    appended_bytes += o.appended_bytes;
    flushes += o.flushes;
    fsyncs += o.fsyncs;
    dir_fsyncs += o.dir_fsyncs;
    segments_created += o.segments_created;
    segments_dropped += o.segments_dropped;
    recovered_records += o.recovered_records;
    torn_records_dropped += o.torn_records_dropped;
    torn_bytes_dropped += o.torn_bytes_dropped;
    return *this;
  }
};

/// The directory a simulation's WAL segments share (one per simulation;
/// each journal in it has its own segment-name prefix). A caller-supplied
/// directory is used as is and outlives the simulation; with none, Open
/// makes a fresh temp directory, and the destructor removes it — and only
/// a directory it made. Declare the owner before the journals writing into
/// it: members are destroyed in reverse order, so the journals' writers
/// flush and close their segments before the directory goes.
class WalDirectory {
 public:
  WalDirectory() = default;
  ~WalDirectory();
  WalDirectory(const WalDirectory&) = delete;
  WalDirectory& operator=(const WalDirectory&) = delete;

  /// Uses `dir`, or a fresh `wvm-wal-XXXXXX` under the temp directory when
  /// `dir` is empty. Call at most once.
  Status Open(const std::string& dir);

  /// The directory in use; "" until Open succeeds.
  const std::string& path() const { return path_; }

  /// `tuning` pointed at this directory under segment-name prefix `name`.
  WalOptions Options(WalOptions tuning, std::string name) const {
    tuning.dir = path_;
    tuning.name = std::move(name);
    return tuning;
  }

 private:
  std::string path_;
  bool owned_ = false;
};

/// One record handed back by Open's recovery scan.
struct WalRecoveredRecord {
  uint64_t lsn = 0;
  std::string payload;
};

class WalWriter {
 public:
  /// Opens (or creates) the log in `options.dir`, running the torn-tail
  /// recovery scan over any existing segments. When `recovered` is non-null
  /// it receives every valid record, in LSN order. Refuses on mid-log
  /// corruption (see the torn-tail rule above).
  static Result<std::unique_ptr<WalWriter>> Open(
      const WalOptions& options,
      std::vector<WalRecoveredRecord>* recovered = nullptr);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one record; flushes (write + fsync) when a group-commit
  /// threshold trips. LSNs must be strictly increasing; the payload is the
  /// journal record's serialized image.
  Status Append(uint64_t lsn, const std::string& payload);

  /// Forces the pending buffer to disk. After an OK Sync every appended
  /// record is durable.
  Status Sync();

  /// Deletes every segment whose records all have LSN < floor, the active
  /// one included. Pending records are flushed first so the active
  /// segment's bounds are exact.
  /// Conservative by design: a segment straddling the floor is kept whole,
  /// so recovery may resurface records below the floor (replay is
  /// idempotent and checkpoints re-floor them).
  Status TruncateBelow(uint64_t floor);

  /// One past the highest LSN known durable (flushed + fsynced).
  uint64_t synced_end_lsn() const { return synced_end_lsn_; }
  /// One past the highest LSN appended (buffered or durable).
  uint64_t end_lsn() const { return end_lsn_; }

  const WalStats& stats() const { return stats_; }
  const WalOptions& options() const { return options_; }

  /// Paths of the live segment files, oldest first (tests + fuzz harness).
  std::vector<std::string> SegmentPathsForTest() const;

  /// Crash-injection hook for the fuzz harness: after `budget` more payload
  /// bytes reach write(2), the NEXT write is truncated mid-record and the
  /// process _exit()s — a real torn write followed by a real process death.
  void CrashAfterBytesForTest(int64_t budget) { crash_budget_ = budget; }

 private:
  struct Segment {
    std::string path;
    uint64_t first_lsn = 0;  // lsn of the first record
    uint64_t last_lsn = 0;   // lsn of the last record
    int64_t bytes = 0;       // bytes on disk
  };

  explicit WalWriter(WalOptions options) : options_(std::move(options)) {}

  /// Writes `data` to the active segment's fd, honoring the crash budget.
  Status WriteRaw(const std::string& data);
  Status Flush();
  /// Opens a fresh segment whose first record will be `first_lsn`.
  Status OpenSegment(uint64_t first_lsn);
  Status CloseActiveSegment();
  /// Makes a segment create or drop durable by fsyncing the directory;
  /// a no-op with `fsync` off.
  Status SyncDirectory();

  WalOptions options_;
  std::vector<Segment> segments_;  // oldest first; back() is active if open
  bool has_active_ = false;        // back() accepts appends (fd may be lazy)
  int fd_ = -1;                    // active segment fd (-1 = none)
  std::string pending_;            // encoded records awaiting flush
  int pending_appends_ = 0;
  uint64_t pending_last_lsn_ = 0;  // last lsn in pending_ (valid if appends>0)
  uint64_t end_lsn_ = 0;
  uint64_t synced_end_lsn_ = 0;
  int64_t crash_budget_ = -1;  // < 0: hook disabled
  WalStats stats_;
};

}  // namespace wvm

#endif  // WVM_RECOVERY_WAL_H_
