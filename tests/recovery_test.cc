// The crash-restart recovery subsystem (src/recovery), unit level:
//
//   1. the write-ahead Journal — explicit caller-supplied LSNs (the reliable
//      protocol's sequence numbers), strict monotonicity, per-record
//      checksums that reject corrupted records, truncation after
//      checkpoints, and repeatable (hence idempotent) replay scans;
//   2. maintainer state snapshots — each ECA-family algorithm deep-copies
//      and restores its full bookkeeping (UQS, COLLECT, buffers), and a
//      snapshot from one algorithm is rejected by another;
//   3. the ReliableEndpoint crash/restart surface — a crashed receiver
//      discards arriving frames without acking them, and journal-recovered
//      restarts re-sync both halves (retransmission repairs in-flight loss,
//      dedup absorbs replayed duplicates).
//
// System-level crash schedules live in crash_matrix_test.cc.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/eca.h"
#include "core/eca_key.h"
#include "recovery/checkpointed_site_log.h"
#include "recovery/journal.h"
#include "test_util.h"
#include "transport/reliable_endpoint.h"
#include "workload/generator.h"

namespace wvm {
namespace {

Journal<std::string> MakeStringJournal() {
  return Journal<std::string>([](const std::string& s) { return s; });
}

// ---------------------------------------------------------------------------
// Journal: LSN discipline.

TEST(JournalTest, AppendsWithExplicitLsnsAndGaps) {
  Journal<std::string> j = MakeStringJournal();
  EXPECT_TRUE(j.empty());
  EXPECT_EQ(j.begin_lsn(), 0u);
  EXPECT_EQ(j.end_lsn(), 0u);
  ASSERT_TRUE(j.Append(3, "a").ok());  // LSNs need not start at 0
  ASSERT_TRUE(j.Append(4, "b").ok());
  ASSERT_TRUE(j.Append(9, "c").ok());  // gaps are fine (per-direction seqs)
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.begin_lsn(), 3u);
  EXPECT_EQ(j.end_lsn(), 10u);
  Result<const std::string*> r = j.Read(4);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(**r, "b");
  EXPECT_TRUE(j.Read(5).status().code() == StatusCode::kNotFound);
}

TEST(JournalTest, RejectsNonMonotonicAppends) {
  Journal<std::string> j = MakeStringJournal();
  ASSERT_TRUE(j.Append(5, "a").ok());
  EXPECT_TRUE(j.Append(5, "dup").code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(j.Append(4, "old").code() == StatusCode::kInvalidArgument);
  ASSERT_TRUE(j.Append(6, "b").ok());
}

TEST(JournalTest, RejectsAppendBelowTruncatedHighWaterMark) {
  Journal<std::string> j = MakeStringJournal();
  ASSERT_TRUE(j.Append(1, "a").ok());
  ASSERT_TRUE(j.Append(2, "b").ok());
  j.TruncateBelow(3);
  EXPECT_TRUE(j.empty());
  EXPECT_EQ(j.end_lsn(), 3u) << "end_lsn must survive truncation";
  EXPECT_TRUE(j.Append(2, "zombie").code() == StatusCode::kInvalidArgument);
  ASSERT_TRUE(j.Append(3, "c").ok());
}

// ---------------------------------------------------------------------------
// Journal: checksums.

TEST(JournalTest, ChecksumCoversLsnAndPayload) {
  EXPECT_NE(JournalChecksum(1, "x"), JournalChecksum(2, "x"));
  EXPECT_NE(JournalChecksum(1, "x"), JournalChecksum(1, "y"));
  EXPECT_EQ(JournalChecksum(7, "abc"), JournalChecksum(7, "abc"));
}

TEST(JournalTest, CorruptedRecordFailsReadAndScan) {
  Journal<std::string> j = MakeStringJournal();
  ASSERT_TRUE(j.Append(0, "a").ok());
  ASSERT_TRUE(j.Append(1, "b").ok());
  ASSERT_TRUE(j.Append(2, "c").ok());
  j.CorruptRecordForTest(1);
  EXPECT_TRUE(j.Read(0).ok());
  EXPECT_TRUE(j.Read(1).status().code() == StatusCode::kInternal);
  // A scan that crosses the damaged record refuses to replay past it.
  std::vector<std::string> replayed;
  Status scan = j.Scan(0, 3, [&](uint64_t, const std::string& s) {
    replayed.push_back(s);
    return Status::OK();
  });
  EXPECT_EQ(scan.code(), StatusCode::kInternal);
  EXPECT_EQ(replayed, std::vector<std::string>{"a"});
  // A scan of the undamaged prefix still works.
  replayed.clear();
  EXPECT_TRUE(j.Scan(0, 1, [&](uint64_t, const std::string& s) {
                 replayed.push_back(s);
                 return Status::OK();
               }).ok());
  EXPECT_EQ(replayed, std::vector<std::string>{"a"});
}

// ---------------------------------------------------------------------------
// Journal: truncation and idempotent replay.

TEST(JournalTest, TruncateBelowKeepsSuffix) {
  Journal<std::string> j = MakeStringJournal();
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(j.Append(i, std::string(1, 'a' + static_cast<char>(i))).ok());
  }
  j.TruncateBelow(4);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.begin_lsn(), 4u);
  EXPECT_EQ(j.end_lsn(), 6u);
  EXPECT_TRUE(j.Read(3).status().code() == StatusCode::kNotFound);
  EXPECT_TRUE(j.Read(4).ok());
  j.TruncateBelow(0);  // no-op
  EXPECT_EQ(j.size(), 2u);
}

TEST(JournalTest, ScanIsRepeatableHenceReplayIsIdempotent) {
  Journal<std::string> j = MakeStringJournal();
  ASSERT_TRUE(j.Append(10, "u1").ok());
  ASSERT_TRUE(j.Append(11, "u2").ok());
  ASSERT_TRUE(j.Append(12, "u3").ok());
  auto collect = [&j](uint64_t from, uint64_t to) {
    std::vector<std::string> out;
    EXPECT_TRUE(j.Scan(from, to, [&](uint64_t, const std::string& s) {
                   out.push_back(s);
                   return Status::OK();
                 }).ok());
    return out;
  };
  std::vector<std::string> first = collect(10, 13);
  std::vector<std::string> second = collect(10, 13);
  EXPECT_EQ(first, second) << "scanning must not consume the journal";
  EXPECT_EQ(collect(11, 12), std::vector<std::string>{"u2"});
  EXPECT_TRUE(collect(13, 20).empty());
}

// Regression: TruncateBelow used to accept a floor past end_lsn(), silently
// erasing the whole retained log while leaving end_lsn() behind the
// caller's idea of the checkpoint floor. Nothing past the end can have
// been checkpointed, so that floor is a caller bug and must be rejected.
TEST(JournalTest, TruncateBelowRejectsFloorAboveEndLsn) {
  Journal<std::string> j = MakeStringJournal();
  ASSERT_TRUE(j.Append(0, "a").ok());
  ASSERT_TRUE(j.Append(1, "b").ok());
  EXPECT_EQ(j.TruncateBelow(3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(j.size(), 2u) << "a rejected truncation must not erase records";
  EXPECT_TRUE(j.TruncateBelow(2).ok());  // exactly end_lsn() is legal
  EXPECT_TRUE(j.empty());
  // And on an empty journal the same guard holds against any floor > 0.
  Journal<std::string> empty = MakeStringJournal();
  EXPECT_EQ(empty.TruncateBelow(1).code(), StatusCode::kInvalidArgument);
}

// Regression: Read/Scan used to re-serialize the payload to recompute the
// checksum, so a serializer that is not bit-stable across calls made every
// read fail (or worse, mask real corruption). The checksum must cover the
// image captured at append time, full stop.
TEST(JournalTest, ChecksumCoversTheAppendTimeImageNotAReserialization) {
  // A deliberately nondeterministic serializer: every call returns a
  // different rendering of the same payload.
  int calls = 0;
  Journal<std::string> j([&calls](const std::string& s) {
    return s + "#" + std::to_string(calls++);
  });
  ASSERT_TRUE(j.Append(0, "stable-payload").ok());
  ASSERT_TRUE(j.Append(1, "another").ok());
  // Reads and scans validate against the stored image: all pass, and the
  // serializer is never consulted again.
  const int calls_after_append = calls;
  Result<const std::string*> r = j.Read(0);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(**r, "stable-payload");
  ASSERT_TRUE(j.Read(1).ok());
  int scanned = 0;
  EXPECT_TRUE(j.Scan(0, 2, [&](uint64_t, const std::string&) {
                 ++scanned;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(scanned, 2);
  EXPECT_EQ(calls, calls_after_append)
      << "validation re-serialized the payload";
}

// ---------------------------------------------------------------------------
// Maintainer snapshots: deep copy and restore of the ECA family's state.

TEST(MaintainerSnapshotTest, EcaSnapshotRestoresUqsAndCollect) {
  Random rng(7);
  Result<Workload> w = MakeExample6Workload({10, 2}, &rng);
  ASSERT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 4, 0.3, &rng);
  ASSERT_TRUE(updates.ok()) << updates.status();
  std::unique_ptr<Simulation> sim =
      MustMakeSim(w->initial, w->view, Algorithm::kEca);
  sim->SetUpdateScript(*updates);
  // Push all updates through the source but answer nothing: UQS fills up.
  while (sim->CanSourceUpdate()) {
    ASSERT_TRUE(sim->StepSourceUpdate().ok());
  }
  while (sim->CanWarehouseStep()) {
    ASSERT_TRUE(sim->StepWarehouse().ok());
  }
  auto* eca = dynamic_cast<Eca*>(&sim->mutable_maintainer());
  ASSERT_NE(eca, nullptr);
  ASSERT_FALSE(eca->uqs().empty()) << "test needs in-flight queries";
  std::map<uint64_t, Query> uqs_before = eca->uqs();
  Relation mv_before = eca->view_contents();
  Relation collect_before = eca->collect();

  std::shared_ptr<const MaintainerSnapshot> snap = eca->SnapshotState();
  eca->LoseVolatileState();
  EXPECT_TRUE(eca->uqs().empty());
  EXPECT_TRUE(eca->IsQuiescent()) << "crash without recovery forgets UQS";

  ASSERT_TRUE(eca->RestoreState(*snap).ok());
  EXPECT_EQ(eca->uqs().size(), uqs_before.size());
  for (const auto& [id, q] : uqs_before) {
    EXPECT_EQ(eca->uqs().count(id), 1u);
  }
  EXPECT_TRUE(eca->view_contents() == mv_before);
  EXPECT_TRUE(eca->collect() == collect_before);
  EXPECT_FALSE(eca->IsQuiescent());
}

TEST(MaintainerSnapshotTest, MismatchedSnapshotTypeIsRejected) {
  Random rng(9);
  Result<Workload> w = MakeKeyedWorkload({8, 2}, &rng);
  ASSERT_TRUE(w.ok()) << w.status();
  std::unique_ptr<Simulation> eca_sim =
      MustMakeSim(w->initial, w->view, Algorithm::kEca);
  std::unique_ptr<Simulation> key_sim =
      MustMakeSim(w->initial, w->view, Algorithm::kEcaKey);
  std::shared_ptr<const MaintainerSnapshot> eca_snap =
      eca_sim->maintainer().SnapshotState();
  Status restore = key_sim->mutable_maintainer().RestoreState(*eca_snap);
  EXPECT_EQ(restore.code(), StatusCode::kInvalidArgument) << restore;
}

// ---------------------------------------------------------------------------
// ReliableEndpoint crash/restart: the re-sync building blocks recovery
// composes. (Full site recovery is exercised in crash_matrix_test.cc.)

FaultConfig CleanReliable(int delay = 0) {
  FaultConfig f;
  f.enabled = true;
  f.reliable = true;
  f.max_delay_ticks = delay;
  f.retransmit_timeout_ticks = 4;
  return f;
}

// Drains everything currently deliverable, ticking while timed work
// remains, and appends received payloads to `got`.
template <typename T>
void DrainEndpoint(ReliableEndpoint<T>* ep, std::vector<T>* got,
                   int max_ticks = 1000) {
  for (int i = 0; i < max_ticks; ++i) {
    while (ep->HasMessage()) {
      got->push_back(ep->Receive());
    }
    if (!ep->HasTimedWork()) {
      return;
    }
    ep->Tick();
  }
  FAIL() << "endpoint failed to quiesce";
}

TEST(EndpointCrashTest, CrashedReceiverDiscardsWithoutAcking) {
  ReliableEndpoint<int> ep(CleanReliable(), 1, {});
  ep.CrashReceiver();
  ep.Send(0);
  ep.Send(1);
  EXPECT_FALSE(ep.HasMessage());
  EXPECT_EQ(ep.stats().frames_lost_to_crash, 2);
  EXPECT_EQ(ep.stats().acks_sent, 0) << "a dead site must not ack";
  EXPECT_EQ(ep.next_expected(), 0u);
  // The sender's retransmission repairs everything after the restart.
  ep.RestartReceiver();
  std::vector<int> got;
  DrainEndpoint(&ep, &got);
  EXPECT_EQ(got, (std::vector<int>{0, 1}));
}

TEST(EndpointCrashTest, JournalRecoveredReceiverRestartResyncs) {
  ReliableEndpoint<int> ep(CleanReliable(), 2, {});
  ep.Send(10);
  ep.Send(11);
  ep.Send(12);
  std::vector<int> got;
  DrainEndpoint(&ep, &got);
  ASSERT_EQ(got, (std::vector<int>{10, 11, 12}));
  // Crash: frame 12 had been delivered but (say) not consumed. The inbound
  // journal replays it into the restart as the delivered tail, and the
  // watermark comes back as the journal's high-water mark.
  ep.CrashReceiver();
  ep.RestartReceiver(/*next_expected=*/3, std::deque<int>{12});
  ASSERT_TRUE(ep.HasMessage());
  EXPECT_EQ(ep.Receive(), 12);
  // The channel keeps working with the same numbering.
  ep.Send(13);
  got.clear();
  DrainEndpoint(&ep, &got);
  EXPECT_EQ(got, (std::vector<int>{13}));
}

TEST(EndpointCrashTest, RestoredSenderWindowIsRetransmittedAndDeduped) {
  ReliableEndpoint<int> ep(CleanReliable(), 3, {});
  ep.Send(20);
  ep.Send(21);
  std::vector<int> got;
  DrainEndpoint(&ep, &got);
  ASSERT_EQ(got, (std::vector<int>{20, 21}));
  ep.CrashSender();
  // The outbound journal retained both frames (no checkpoint ran), so the
  // restart conservatively re-installs and re-sends them; the receiver has
  // already released both and must discard the duplicates.
  ep.RestartSender(/*next_seq=*/2, std::map<uint64_t, int>{{0, 20}, {1, 21}});
  got.clear();
  DrainEndpoint(&ep, &got);
  EXPECT_TRUE(got.empty()) << "replayed duplicates must not re-deliver";
  EXPECT_GE(ep.stats().duplicates_discarded, 2);
  ep.Send(22);
  DrainEndpoint(&ep, &got);
  EXPECT_EQ(got, (std::vector<int>{22}));
}

TEST(EndpointCrashTest, BareSenderRestartLosesUnackedFrames) {
  // Delay keeps the data frame in flight long enough to crash the sender
  // before any delivery; drop ensures the copy on the wire then vanishes.
  FaultConfig f = CleanReliable(/*delay=*/3);
  f.drop_rate = 0.95;
  f.seed = 5;
  ReliableEndpoint<int> ep(f, 4, {});
  ep.Send(30);
  ep.CrashSender();
  ep.RestartSender();  // bare: the unacked window is gone
  // With the window empty there is nothing to retransmit: if the wire
  // dropped the only copy, the frame is lost forever (and the endpoint
  // correctly reports no pending work rather than hanging).
  std::vector<int> got;
  DrainEndpoint(&ep, &got);
  if (got.empty()) {
    EXPECT_EQ(ep.next_expected(), 0u);
  } else {
    EXPECT_EQ(got, (std::vector<int>{30}));  // wire happened to deliver it
  }
}

// ---------------------------------------------------------------------------
// Site logs: the serializer wiring compiles against the real message types
// and keys records by protocol seq.

TEST(SiteLogTest, WarehouseLogJournalsSourceMessagesBySeq) {
  WarehouseSiteLog log;
  Update u;
  u.id = 1;
  u.relation = "r";
  ASSERT_TRUE(log.inbound.Append(0, UpdateNotification{u}).ok());
  ASSERT_TRUE(log.inbound.Append(1, AnswerMessage{}).ok());
  EXPECT_EQ(log.inbound.end_lsn(), 2u);
  Result<const SourceMessage*> r = log.inbound.Read(0);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(std::get_if<UpdateNotification>(*r), nullptr);
  EXPECT_FALSE(log.checkpoint.has_value());
}

}  // namespace
}  // namespace wvm
