// Unit tests for the Section 3.1 correctness-level checker on synthetic
// state sequences.
#include "consistency/checker.h"

#include <gtest/gtest.h>

#include "consistency_reference.h"

namespace wvm {
namespace {

Relation Rel(std::initializer_list<int64_t> values) {
  Relation r(Schema::Ints({"a"}));
  for (int64_t v : values) {
    r.Insert(Tuple::Ints({v}));
  }
  return r;
}

// A log built through the full-state entry point; the i-th state of each
// side is stamped with clock i (the checker does not read clocks).
StateLog Log(const std::vector<Relation>& source,
             const std::vector<Relation>& warehouse) {
  StateLog log;
  for (size_t i = 0; i < source.size(); ++i) {
    log.RecordSourceState(source[i], i);
  }
  for (size_t i = 0; i < warehouse.size(); ++i) {
    log.RecordWarehouseState(warehouse[i], i);
  }
  return log;
}

TEST(CheckerTest, PerfectTrackingIsComplete) {
  StateLog log = Log({Rel({}), Rel({1}), Rel({1, 2})},
                     {Rel({}), Rel({1}), Rel({1, 2})});
  ConsistencyReport r = CheckConsistency(log);
  EXPECT_TRUE(r.convergent);
  EXPECT_TRUE(r.weakly_consistent);
  EXPECT_TRUE(r.consistent);
  EXPECT_TRUE(r.strongly_consistent);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.violation.empty());
}

TEST(CheckerTest, SkippingStatesIsStrongButNotComplete) {
  // The warehouse jumps straight to the final state: strong consistency
  // holds, completeness does not (ss_1 never observed).
  StateLog log = Log({Rel({}), Rel({1}), Rel({1, 2})},
                     {Rel({}), Rel({}), Rel({1, 2})});
  ConsistencyReport r = CheckConsistency(log);
  EXPECT_TRUE(r.strongly_consistent);
  EXPECT_FALSE(r.complete);
  EXPECT_NE(r.violation.find("not complete"), std::string::npos);
}

TEST(CheckerTest, ForeignStateBreaksWeakConsistency) {
  StateLog log = Log({Rel({}), Rel({1})}, {Rel({}), Rel({7}), Rel({1})});
  ConsistencyReport r = CheckConsistency(log);
  EXPECT_TRUE(r.convergent);
  EXPECT_FALSE(r.weakly_consistent);
  EXPECT_FALSE(r.consistent);
  EXPECT_FALSE(r.strongly_consistent);
}

TEST(CheckerTest, OutOfOrderStatesBreakConsistencyButNotWeak) {
  // Warehouse shows ss_2 then regresses to ss_1: weakly consistent (both
  // states exist) but not consistent (order violated).
  StateLog log =
      Log({Rel({}), Rel({1}), Rel({1, 2})},
          {Rel({}), Rel({1, 2}), Rel({1}), Rel({1, 2})});
  ConsistencyReport r = CheckConsistency(log);
  EXPECT_TRUE(r.weakly_consistent);
  EXPECT_FALSE(r.consistent);
  EXPECT_NE(r.violation.find("order"), std::string::npos);
}

TEST(CheckerTest, StaleFinalStateBreaksConvergence) {
  StateLog log = Log({Rel({}), Rel({1})}, {Rel({}), Rel({})});
  ConsistencyReport r = CheckConsistency(log);
  EXPECT_FALSE(r.convergent);
  EXPECT_TRUE(r.weakly_consistent);  // every state valid...
  EXPECT_TRUE(r.consistent);         // ...and in order
  EXPECT_FALSE(r.strongly_consistent);
}

TEST(CheckerTest, DuplicateSourceStatesMatchable) {
  // The source passes through the same view state twice (insert/delete
  // round trip); the warehouse may map to either occurrence.
  StateLog log = Log({Rel({}), Rel({1}), Rel({}), Rel({2})},
                     {Rel({}), Rel({1}), Rel({}), Rel({2})});
  ConsistencyReport r = CheckConsistency(log);
  EXPECT_TRUE(r.strongly_consistent);
  EXPECT_TRUE(r.complete);
}

TEST(CheckerTest, ConsecutiveWarehouseDuplicatesIgnored) {
  // Warehouse events that leave the view unchanged add no observable
  // state.
  StateLog log = Log({Rel({}), Rel({1})},
                     {Rel({}), Rel({}), Rel({}), Rel({1}), Rel({1})});
  ConsistencyReport r = CheckConsistency(log);
  EXPECT_TRUE(r.complete);
}

TEST(CheckerTest, EmptyExecutionReported) {
  ConsistencyReport r = CheckConsistency(StateLog());
  EXPECT_FALSE(r.convergent);
  EXPECT_EQ(r.violation, "empty execution");
}

TEST(CheckerTest, DedupHelper) {
  std::vector<Relation> states = {Rel({}), Rel({}), Rel({1}), Rel({1}),
                                  Rel({})};
  std::vector<Relation> deduped = reference::Dedup(states);
  ASSERT_EQ(deduped.size(), 3u);
  EXPECT_EQ(deduped[0], Rel({}));
  EXPECT_EQ(deduped[1], Rel({1}));
  EXPECT_EQ(deduped[2], Rel({}));
}

TEST(CheckerTest, ReportToStringListsAllLevels) {
  StateLog log = Log({Rel({})}, {Rel({})});
  std::string s = CheckConsistency(log).ToString();
  EXPECT_NE(s.find("convergent=yes"), std::string::npos);
  EXPECT_NE(s.find("complete=yes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Replica-group convergence (the replicated tier's strong-consistency
// probe): all in-group replicas at the head, equal applied prefix => equal
// view, and in-group-at-head => equal to the lead.

TEST(CheckerTest, ReplicaConvergenceAcceptsIdenticalGroup) {
  Relation lead = Rel({1, 2});
  Relation a = Rel({1, 2});
  Relation b = Rel({1, 2});
  ReplicaConvergenceReport r = CheckReplicaConvergence(
      5, lead,
      {{"replica-0", 5, &a, true}, {"replica-1", 5, &b, true}});
  EXPECT_TRUE(r.all_at_head);
  EXPECT_TRUE(r.views_identical_at_lsn);
  EXPECT_TRUE(r.match_lead);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.violation.empty());
}

TEST(CheckerTest, ReplicaConvergenceFlagsLaggingReplica) {
  Relation lead = Rel({1});
  Relation a = Rel({1});
  Relation b = Rel({});
  ReplicaConvergenceReport r = CheckReplicaConvergence(
      4, lead, {{"replica-0", 4, &a, true}, {"replica-1", 2, &b, true}});
  EXPECT_FALSE(r.all_at_head);
  EXPECT_FALSE(r.converged);
  // Different applied prefixes are ALLOWED to differ in content.
  EXPECT_TRUE(r.views_identical_at_lsn);
  EXPECT_NE(r.violation.find("replica-1"), std::string::npos);
}

TEST(CheckerTest, ReplicaConvergenceFlagsDivergenceAtEqualLsn) {
  Relation lead = Rel({1});
  Relation a = Rel({1});
  Relation b = Rel({2});  // same LSN, different contents: determinism broke
  ReplicaConvergenceReport r = CheckReplicaConvergence(
      3, lead, {{"replica-0", 3, &a, true}, {"replica-1", 3, &b, true}});
  EXPECT_FALSE(r.views_identical_at_lsn);
  EXPECT_FALSE(r.converged);
}

TEST(CheckerTest, ReplicaConvergenceFlagsMismatchWithLead) {
  Relation lead = Rel({1, 2});
  Relation a = Rel({1});
  ReplicaConvergenceReport r =
      CheckReplicaConvergence(3, lead, {{"replica-0", 3, &a, true}});
  EXPECT_TRUE(r.all_at_head);
  EXPECT_FALSE(r.match_lead);
  EXPECT_FALSE(r.converged);
  EXPECT_NE(r.violation.find("differs from the lead"), std::string::npos);
}

TEST(CheckerTest, ReplicaConvergenceIgnoresOutOfGroupLagButNotDivergence) {
  Relation lead = Rel({1});
  Relation a = Rel({1});
  Relation b = Rel({});   // catching up at LSN 1: lag is fine
  Relation c = Rel({7});  // also claims LSN 3 but differs: NOT fine
  ReplicaConvergenceReport lagging = CheckReplicaConvergence(
      3, lead, {{"replica-0", 3, &a, true}, {"replica-1", 1, &b, false}});
  EXPECT_TRUE(lagging.all_at_head);  // out-of-group replicas don't count
  EXPECT_TRUE(lagging.converged);
  ReplicaConvergenceReport divergent = CheckReplicaConvergence(
      3, lead, {{"replica-0", 3, &a, true}, {"replica-1", 3, &c, false}});
  // Equal applied prefix must mean equal view even for an out-of-group
  // replica — determinism doesn't care about membership.
  EXPECT_FALSE(divergent.views_identical_at_lsn);
  EXPECT_FALSE(divergent.converged);
}

TEST(CheckerTest, ReplicaConvergenceReportToString) {
  Relation lead = Rel({1});
  Relation a = Rel({1});
  ReplicaConvergenceReport r =
      CheckReplicaConvergence(2, lead, {{"replica-0", 2, &a, true}});
  std::string s = r.ToString();
  EXPECT_NE(s.find("at_head=yes"), std::string::npos);
  EXPECT_NE(s.find("converged=yes"), std::string::npos);
}

}  // namespace
}  // namespace wvm
