// The on-disk WAL under the journal (src/recovery/wal.h), unit level:
//
//   1. durability mechanics — group commit trips on the append-count and
//      byte thresholds (and on explicit Sync), synced_end_lsn() tracks
//      exactly what an fsync has covered, and reopening recovers every
//      synced record byte-for-byte;
//   2. the segment lifecycle — rotation at segment_bytes, LSN-ordered
//      file names, truncation by whole-segment drop (conservative: a
//      straddling segment survives), directory fsyncs only with fsync on,
//      and name-prefix isolation when several journals share one
//      directory;
//   3. the torn-tail rule — a damaged record at the tail of the LAST
//      segment is truncated away on Open; the same damage mid-log refuses
//      with Internal (corruption truncation cannot have caused);
//   4. the Journal<Payload> integration — AttachWal write-ahead order,
//      OpenFromWal round-trips payloads through the serializer pair, and
//      journal truncation drives WAL truncation.
#include "recovery/wal.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "recovery/journal.h"

namespace wvm {
namespace {

namespace fs = std::filesystem;

// A fresh scratch directory per test, removed on teardown.
class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("wvm-wal-test-" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "-" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  WalOptions Options() {
    WalOptions o;
    o.dir = dir_;
    return o;
  }

  std::string dir_;
};

TEST_F(WalTest, OptionsValidateRejectsBadThresholds) {
  WalOptions o = Options();
  EXPECT_TRUE(o.Validate().ok());
  o.flush_appends = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = Options();
  o.flush_bytes = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = Options();
  o.segment_bytes = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = Options();
  o.dir = "";
  EXPECT_FALSE(o.Validate().ok());
}

TEST_F(WalTest, GroupCommitFlushesOnAppendCount) {
  WalOptions o = Options();
  o.flush_appends = 3;
  o.flush_bytes = 1 << 20;  // byte threshold out of the way
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->Append(0, "a").ok());
  ASSERT_TRUE((*wal)->Append(1, "b").ok());
  // Two of three pending: nothing durable yet.
  EXPECT_EQ((*wal)->synced_end_lsn(), 0u);
  EXPECT_EQ((*wal)->end_lsn(), 2u);
  EXPECT_EQ((*wal)->stats().flushes, 0);
  ASSERT_TRUE((*wal)->Append(2, "c").ok());  // third append trips the flush
  EXPECT_EQ((*wal)->synced_end_lsn(), 3u);
  EXPECT_EQ((*wal)->stats().flushes, 1);
  EXPECT_EQ((*wal)->stats().fsyncs, 1);
}

TEST_F(WalTest, GroupCommitFlushesOnByteThreshold) {
  WalOptions o = Options();
  o.flush_appends = 1000;
  o.flush_bytes = 64;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
  ASSERT_TRUE(wal.ok()) << wal.status();
  // 24-byte header + 16-byte payload = 40 bytes per record: the second
  // append crosses 64 pending bytes.
  ASSERT_TRUE((*wal)->Append(0, std::string(16, 'x')).ok());
  EXPECT_EQ((*wal)->synced_end_lsn(), 0u);
  ASSERT_TRUE((*wal)->Append(1, std::string(16, 'y')).ok());
  EXPECT_EQ((*wal)->synced_end_lsn(), 2u);
  EXPECT_EQ((*wal)->stats().flushes, 1);
}

TEST_F(WalTest, SyncForcesPendingRecordsToDisk) {
  WalOptions o = Options();
  o.flush_appends = 1000;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->Append(0, "only").ok());
  EXPECT_EQ((*wal)->synced_end_lsn(), 0u);
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->synced_end_lsn(), 1u);
  // An empty Sync is a no-op, not an extra fsync.
  const int64_t fsyncs = (*wal)->stats().fsyncs;
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->stats().fsyncs, fsyncs);
}

TEST_F(WalTest, RejectsNonMonotonicLsns) {
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(Options());
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->Append(5, "a").ok());
  EXPECT_FALSE((*wal)->Append(5, "b").ok());
  EXPECT_FALSE((*wal)->Append(4, "c").ok());
  EXPECT_TRUE((*wal)->Append(9, "d").ok());  // gaps are fine
}

TEST_F(WalTest, ReopenRecoversEveryRecordInOrder) {
  WalOptions o = Options();
  o.flush_appends = 4;
  std::vector<std::string> payloads;
  {
    Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (uint64_t i = 0; i < 25; ++i) {
      payloads.push_back("payload-" + std::to_string(i * i));
      ASSERT_TRUE((*wal)->Append(i, payloads.back()).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::vector<WalRecoveredRecord> recovered;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_EQ(recovered.size(), 25u);
  for (uint64_t i = 0; i < 25; ++i) {
    EXPECT_EQ(recovered[i].lsn, i);
    EXPECT_EQ(recovered[i].payload, payloads[i]);
  }
  EXPECT_EQ((*wal)->end_lsn(), 25u);
  EXPECT_EQ((*wal)->stats().recovered_records, 25);
  // The reopened log accepts appends at its recovered end.
  EXPECT_TRUE((*wal)->Append(25, "next").ok());
}

TEST_F(WalTest, SegmentsRotateAndSortByFirstLsn) {
  WalOptions o = Options();
  o.segment_bytes = 128;  // a few records per segment
  o.flush_appends = 1;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE((*wal)->Append(i, std::string(32, 'p')).ok());
  }
  std::vector<std::string> paths = (*wal)->SegmentPathsForTest();
  ASSERT_GT(paths.size(), 2u);
  EXPECT_GT((*wal)->stats().segments_created, 2);
  // Oldest-first paths sort lexicographically because the first LSN is
  // zero-padded to 20 digits.
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LT(paths[i - 1], paths[i]);
  }
  // And a reopen over many segments still yields the contiguous stream.
  wal->reset();
  std::vector<WalRecoveredRecord> recovered;
  Result<std::unique_ptr<WalWriter>> reopened = WalWriter::Open(o, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ(recovered.size(), 40u);
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(recovered[i].lsn, i);
  }
}

TEST_F(WalTest, TruncateBelowDropsOnlyWholeSegments) {
  WalOptions o = Options();
  o.segment_bytes = 128;
  o.flush_appends = 1;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE((*wal)->Append(i, std::string(32, 'q')).ok());
  }
  const size_t before = (*wal)->SegmentPathsForTest().size();
  ASSERT_GT(before, 2u);
  ASSERT_TRUE((*wal)->TruncateBelow(20).ok());
  const size_t after = (*wal)->SegmentPathsForTest().size();
  EXPECT_LT(after, before);
  EXPECT_GT((*wal)->stats().segments_dropped, 0);
  // Conservative drop: reopening may resurface records below the floor
  // (the straddling segment is kept whole) but never loses any above it.
  wal->reset();
  std::vector<WalRecoveredRecord> recovered;
  Result<std::unique_ptr<WalWriter>> reopened = WalWriter::Open(o, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_FALSE(recovered.empty());
  EXPECT_LE(recovered.front().lsn, 20u);
  EXPECT_EQ(recovered.back().lsn, 39u);
  uint64_t expect = recovered.front().lsn;
  for (const WalRecoveredRecord& r : recovered) {
    EXPECT_EQ(r.lsn, expect++);  // still a contiguous run
  }
}

TEST_F(WalTest, TruncateBelowEverythingThenAppendContinues) {
  WalOptions o = Options();
  o.flush_appends = 1;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*wal)->Append(i, "r").ok());
  }
  ASSERT_TRUE((*wal)->TruncateBelow(5).ok());
  ASSERT_TRUE((*wal)->Append(5, "s").ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ((*wal)->end_lsn(), 6u);
}

// A directory fsync makes a segment create or drop durable, so it follows
// the fsync option as the flushes do: none with it off; with it on, one per
// segment created and one per TruncateBelow that drops segments.
TEST_F(WalTest, DirectorySyncsFollowTheFsyncOption) {
  for (const bool fsync : {false, true}) {
    SCOPED_TRACE(fsync ? "fsync on" : "fsync off");
    std::error_code ec;
    fs::remove_all(dir_, ec);
    WalOptions o = Options();
    o.fsync = fsync;
    o.segment_bytes = 128;  // three 56-byte records per segment
    o.flush_appends = 1;
    {
      Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
      ASSERT_TRUE(wal.ok()) << wal.status();
      for (uint64_t i = 0; i < 12; ++i) {
        ASSERT_TRUE((*wal)->Append(i, std::string(32, 'd')).ok());
      }
      const WalStats& s = (*wal)->stats();
      ASSERT_EQ(s.segments_created, 4);
      EXPECT_EQ(s.fsyncs, fsync ? 12 : 0);
      EXPECT_EQ(s.dir_fsyncs, fsync ? 4 : 0);
      ASSERT_TRUE((*wal)->TruncateBelow(3).ok());  // drops [0, 3)
      EXPECT_EQ(s.segments_dropped, 1);
      EXPECT_EQ(s.dir_fsyncs, fsync ? 5 : 0);
      ASSERT_TRUE((*wal)->TruncateBelow(4).ok());  // [3, 6) straddles: kept
      EXPECT_EQ(s.segments_dropped, 1);
      EXPECT_EQ(s.dir_fsyncs, fsync ? 5 : 0);
      ASSERT_TRUE((*wal)->TruncateBelow(9).ok());  // drops [3, 6), [6, 9)
      EXPECT_EQ(s.segments_dropped, 3);
      EXPECT_EQ(s.dir_fsyncs, fsync ? 6 : 0);
      EXPECT_EQ(s.fsyncs, fsync ? 12 : 0);
    }
    std::vector<WalRecoveredRecord> recovered;
    Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_EQ(recovered.size(), 3u);
    for (uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(recovered[i].lsn, 9 + i);
    }
    // A floor past the active segment drops it too; the next append opens
    // a fresh one.
    ASSERT_TRUE((*wal)->TruncateBelow(12).ok());
    EXPECT_EQ((*wal)->stats().segments_dropped, 1);
    ASSERT_TRUE((*wal)->Append(12, "after").ok());
    EXPECT_EQ((*wal)->stats().segments_created, 1);
    EXPECT_EQ((*wal)->stats().dir_fsyncs, fsync ? 2 : 0);
    EXPECT_EQ((*wal)->stats().fsyncs, fsync ? 1 : 0);
  }
}

TEST_F(WalTest, SharedDirectoryIsolatesJournalsByName) {
  WalOptions a = Options();
  a.name = "alpha";
  a.flush_appends = 1;
  WalOptions b = Options();
  b.name = "beta";
  b.flush_appends = 1;
  {
    Result<std::unique_ptr<WalWriter>> wa = WalWriter::Open(a);
    Result<std::unique_ptr<WalWriter>> wb = WalWriter::Open(b);
    ASSERT_TRUE(wa.ok() && wb.ok());
    ASSERT_TRUE((*wa)->Append(0, "from-alpha").ok());
    ASSERT_TRUE((*wb)->Append(0, "from-beta-0").ok());
    ASSERT_TRUE((*wb)->Append(1, "from-beta-1").ok());
  }
  std::vector<WalRecoveredRecord> ra, rb;
  ASSERT_TRUE(WalWriter::Open(a, &ra).ok());
  ASSERT_TRUE(WalWriter::Open(b, &rb).ok());
  ASSERT_EQ(ra.size(), 1u);
  EXPECT_EQ(ra[0].payload, "from-alpha");
  ASSERT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb[1].payload, "from-beta-1");
}

// ---------------------------------------------------------------------------
// The torn-tail rule.

// Byte length of one encoded record: 24-byte header + payload.
int64_t RecordBytes(const std::string& payload) {
  return 24 + static_cast<int64_t>(payload.size());
}

void TruncateFile(const std::string& path, int64_t keep_bytes) {
  std::error_code ec;
  fs::resize_file(path, static_cast<uintmax_t>(keep_bytes), ec);
  ASSERT_FALSE(ec) << ec.message();
}

TEST_F(WalTest, TornTailIsTruncatedOnOpen) {
  WalOptions o = Options();
  o.flush_appends = 1;
  std::string last_path;
  {
    Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(0, "keep-me-around").ok());
    ASSERT_TRUE((*wal)->Append(1, "torn-casualty").ok());
    last_path = (*wal)->SegmentPathsForTest().back();
  }
  // Tear the last record: keep the first record plus half the second.
  TruncateFile(last_path, RecordBytes("keep-me-around") + 10);
  std::vector<WalRecoveredRecord> recovered;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o, &recovered);
  ASSERT_TRUE(wal.ok()) << "a torn tail must recover, got " << wal.status();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].payload, "keep-me-around");
  EXPECT_EQ((*wal)->stats().torn_records_dropped, 1);
  EXPECT_GT((*wal)->stats().torn_bytes_dropped, 0);
  // The file itself was truncated back to the good prefix, and the log
  // continues from the surviving end.
  EXPECT_EQ(static_cast<int64_t>(fs::file_size(last_path)),
            RecordBytes("keep-me-around"));
  ASSERT_TRUE((*wal)->Append(1, "replacement").ok());
  ASSERT_TRUE((*wal)->Sync().ok());
}

TEST_F(WalTest, CorruptedPayloadAtTailIsAlsoTorn) {
  WalOptions o = Options();
  o.flush_appends = 1;
  std::string path;
  {
    Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(0, "good-one").ok());
    ASSERT_TRUE((*wal)->Append(1, "bad-sum").ok());
    path = (*wal)->SegmentPathsForTest().back();
  }
  // Flip a byte inside the LAST record's payload: the checksum fails, and
  // since every later byte is part of the same suspect tail, Open treats
  // it as torn.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(RecordBytes("good-one") + 24 + 2, std::ios::beg);
    f.put('#');
  }
  std::vector<WalRecoveredRecord> recovered;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].payload, "good-one");
  EXPECT_EQ((*wal)->stats().torn_records_dropped, 1);
}

TEST_F(WalTest, MidLogCorruptionRefusesToOpen) {
  WalOptions o = Options();
  o.segment_bytes = 64;  // one record per segment
  o.flush_appends = 1;
  std::string first_segment;
  {
    Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(0, std::string(48, 'a')).ok());
    ASSERT_TRUE((*wal)->Append(1, std::string(48, 'b')).ok());
    ASSERT_TRUE((*wal)->Append(2, std::string(48, 'c')).ok());
    first_segment = (*wal)->SegmentPathsForTest().front();
    ASSERT_GT((*wal)->SegmentPathsForTest().size(), 1u);
  }
  // Damage a record in the FIRST segment: valid segments follow it, so
  // this cannot be a torn write — Open must refuse rather than drop
  // acknowledged history.
  {
    std::fstream f(first_segment,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(24 + 3, std::ios::beg);
    f.put('!');
  }
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInternal) << wal.status();
}

TEST_F(WalTest, MidLogCorruptionAcrossSegmentsRefusesToOpen) {
  WalOptions o = Options();
  o.segment_bytes = 64;  // force one record per segment
  o.flush_appends = 1;
  std::string first_segment;
  {
    Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(0, std::string(48, 'a')).ok());
    ASSERT_TRUE((*wal)->Append(1, std::string(48, 'b')).ok());
    first_segment = (*wal)->SegmentPathsForTest().front();
    ASSERT_GT((*wal)->SegmentPathsForTest().size(), 1u);
  }
  // A torn tail on a NON-last segment is mid-log corruption by definition.
  TruncateFile(first_segment, 24 + 10);
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInternal) << wal.status();
}

// ---------------------------------------------------------------------------
// Journal<Payload> over the WAL.

Journal<std::string> StringJournal() {
  return Journal<std::string>([](const std::string& s) { return s; });
}

TEST_F(WalTest, AttachWalRequiresEmptyJournalAndEmptyDirectory) {
  WalOptions o = Options();
  o.flush_appends = 1;
  {
    Journal<std::string> j = StringJournal();
    ASSERT_TRUE(j.AttachWal(o).ok());
    EXPECT_TRUE(j.has_wal());
    EXPECT_FALSE(j.AttachWal(o).ok());  // already attached
    ASSERT_TRUE(j.Append(0, "persisted").ok());
  }
  // The directory now holds records: a fresh attach must refuse and point
  // at OpenFromWal instead.
  Journal<std::string> j2 = StringJournal();
  EXPECT_EQ(j2.AttachWal(o).code(), StatusCode::kFailedPrecondition);
  // A journal with in-memory records can't retroactively attach either.
  WalOptions other = Options();
  other.name = "other";
  Journal<std::string> j3 = StringJournal();
  ASSERT_TRUE(j3.Append(0, "too-late").ok());
  EXPECT_EQ(j3.AttachWal(other).code(), StatusCode::kFailedPrecondition);
}

TEST_F(WalTest, OpenFromWalRoundTripsTheJournal) {
  WalOptions o = Options();
  o.flush_appends = 2;
  {
    Journal<std::string> j = StringJournal();
    ASSERT_TRUE(j.AttachWal(o).ok());
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(j.Append(i, "record-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(j.SyncWal().ok());
  }
  Result<Journal<std::string>> reopened = Journal<std::string>::OpenFromWal(
      [](const std::string& s) { return s; },
      [](const std::string& s) -> Result<std::string> { return s; }, o);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->size(), 10u);
  EXPECT_EQ(reopened->end_lsn(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    Result<const std::string*> r = reopened->Read(i);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(**r, "record-" + std::to_string(i));
  }
  // The reopened journal keeps appending through the same WAL.
  ASSERT_TRUE(reopened->Append(10, "post-recovery").ok());
  ASSERT_TRUE(reopened->SyncWal().ok());
}

TEST_F(WalTest, JournalTruncationDrivesSegmentDrop) {
  WalOptions o = Options();
  o.segment_bytes = 96;
  o.flush_appends = 1;
  Journal<std::string> j = StringJournal();
  ASSERT_TRUE(j.AttachWal(o).ok());
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(j.Append(i, std::string(24, 'z')).ok());
  }
  ASSERT_TRUE(j.TruncateBelow(25).ok());
  ASSERT_NE(j.wal_stats(), nullptr);
  EXPECT_GT(j.wal_stats()->segments_dropped, 0);
  // The floor guard still holds with a WAL underneath.
  EXPECT_EQ(j.TruncateBelow(31).code(), StatusCode::kInvalidArgument);
}

TEST_F(WalTest, WriteAheadOrderSurvivesAKilledBuffer) {
  // Append with group commit pending, then drop the writer WITHOUT a sync:
  // the unflushed suffix may die, but everything below the synced floor
  // must reopen intact — the floor is the durability contract.
  WalOptions o = Options();
  o.flush_appends = 4;
  uint64_t floor = 0;
  {
    Journal<std::string> j = StringJournal();
    ASSERT_TRUE(j.AttachWal(o).ok());
    for (uint64_t i = 0; i < 11; ++i) {  // 11 % 4 != 0: a pending tail dies
      ASSERT_TRUE(j.Append(i, "wa-" + std::to_string(i)).ok());
    }
    ASSERT_NE(j.wal_stats(), nullptr);
    floor = j.wal_for_test()->synced_end_lsn();
    EXPECT_LT(floor, 11u);  // some records really are only buffered
  }
  std::vector<WalRecoveredRecord> recovered;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(o, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_GE(recovered.size(), floor);
  for (uint64_t i = 0; i < floor; ++i) {
    EXPECT_EQ(recovered[i].lsn, i);
    EXPECT_EQ(recovered[i].payload, "wa-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace wvm
