#include "storage/stored_relation.h"

#include <gtest/gtest.h>

namespace wvm {
namespace {

BaseRelationDef R2Def() { return {"r2", Schema::Ints({"X", "Y"})}; }

StoredRelation MakeLoaded(int rows, int k, bool clustered_x) {
  StoredRelation sr(R2Def(), k);
  if (clustered_x) {
    EXPECT_TRUE(sr.AddIndex("X", /*clustered=*/true).ok());
  }
  for (int t = 0; t < rows; ++t) {
    // X has 4 occurrences per value; Y distinct.
    EXPECT_TRUE(sr.Insert(Tuple::Ints({t % (rows / 4), t})).ok());
  }
  return sr;
}

TEST(StoredRelationTest, BlockCountIsCeilRowsOverK) {
  StoredRelation sr(R2Def(), 20);
  EXPECT_EQ(sr.NumBlocks(), 0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sr.Insert(Tuple::Ints({i, i})).ok());
  }
  EXPECT_EQ(sr.NumBlocks(), 5);
  ASSERT_TRUE(sr.Insert(Tuple::Ints({1, 101})).ok());
  EXPECT_EQ(sr.NumBlocks(), 6);  // 101 rows -> ceil(101/20)
}

TEST(StoredRelationTest, FullScanChargesAllBlocks) {
  StoredRelation sr = MakeLoaded(100, 20, /*clustered_x=*/false);
  IOStats io;
  const std::vector<Tuple>& rows = sr.FullScan(&io);
  EXPECT_EQ(rows.size(), 100u);
  EXPECT_EQ(io.page_reads, 5);
  EXPECT_EQ(io.full_scans, 1);
}

TEST(StoredRelationTest, ClusteredIndexKeepsRowsSorted) {
  StoredRelation sr(R2Def(), 20);
  ASSERT_TRUE(sr.AddIndex("X", /*clustered=*/true).ok());
  ASSERT_TRUE(sr.Insert(Tuple::Ints({5, 0})).ok());
  ASSERT_TRUE(sr.Insert(Tuple::Ints({1, 1})).ok());
  ASSERT_TRUE(sr.Insert(Tuple::Ints({3, 2})).ok());
  EXPECT_EQ(sr.rows()[0].value(0).AsInt(), 1);
  EXPECT_EQ(sr.rows()[1].value(0).AsInt(), 3);
  EXPECT_EQ(sr.rows()[2].value(0).AsInt(), 5);
}

TEST(StoredRelationTest, ClusteredProbeChargesDistinctBlocks) {
  // 100 rows, K=20, X = t%25 sorted: the 4 matches for one X value are
  // contiguous and 4 divides 20, so exactly one block is touched.
  StoredRelation sr = MakeLoaded(100, 20, /*clustered_x=*/true);
  IOStats io;
  Result<std::vector<Tuple>> matches =
      sr.IndexProbe("X", Value(int64_t{3}), &io);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 4u);
  EXPECT_EQ(io.page_reads, 1);
  EXPECT_EQ(io.index_probes, 1);
}

TEST(StoredRelationTest, UnsuccessfulClusteredProbeStillChargesOneRead) {
  StoredRelation sr = MakeLoaded(100, 20, /*clustered_x=*/true);
  IOStats io;
  Result<std::vector<Tuple>> matches =
      sr.IndexProbe("X", Value(int64_t{999}), &io);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
  EXPECT_EQ(io.page_reads, 1);
}

TEST(StoredRelationTest, NonClusteredProbeChargesPerMatch) {
  // Non-clustered index on Y of a file clustered by X: matches scatter, and
  // Appendix D charges one read per matching tuple.
  StoredRelation sr(R2Def(), 20);
  ASSERT_TRUE(sr.AddIndex("X", /*clustered=*/true).ok());
  ASSERT_TRUE(sr.AddIndex("Y", /*clustered=*/false).ok());
  for (int t = 0; t < 100; ++t) {
    ASSERT_TRUE(sr.Insert(Tuple::Ints({t % 25, t % 25})).ok());
  }
  IOStats io;
  Result<std::vector<Tuple>> matches =
      sr.IndexProbe("Y", Value(int64_t{7}), &io);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 4u);
  EXPECT_EQ(io.page_reads, 4);
}

TEST(StoredRelationTest, ProbeWithoutIndexFails) {
  StoredRelation sr = MakeLoaded(20, 20, /*clustered_x=*/false);
  IOStats io;
  EXPECT_EQ(sr.IndexProbe("X", Value(int64_t{1}), &io).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(StoredRelationTest, SecondClusteredIndexRejected) {
  StoredRelation sr(R2Def(), 20);
  ASSERT_TRUE(sr.AddIndex("X", true).ok());
  EXPECT_EQ(sr.AddIndex("Y", true).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sr.AddIndex("Y", false).ok());
}

TEST(StoredRelationTest, IndexOnUnknownAttributeRejected) {
  StoredRelation sr(R2Def(), 20);
  EXPECT_EQ(sr.AddIndex("Q", false).code(), StatusCode::kNotFound);
}

TEST(StoredRelationTest, FindIndexPrefersClustered) {
  StoredRelation sr(R2Def(), 20);
  ASSERT_TRUE(sr.AddIndex("X", true).ok());
  ASSERT_TRUE(sr.AddIndex("Y", false).ok());
  ASSERT_NE(sr.FindIndex("X"), nullptr);
  EXPECT_TRUE(sr.FindIndex("X")->clustered);
  ASSERT_NE(sr.FindIndex("Y"), nullptr);
  EXPECT_FALSE(sr.FindIndex("Y")->clustered);
  EXPECT_EQ(sr.FindIndex("Q"), nullptr);
}

TEST(StoredRelationTest, EstimatedMatchesPerKeyIsJoinFactor) {
  StoredRelation sr = MakeLoaded(100, 20, /*clustered_x=*/false);
  EXPECT_DOUBLE_EQ(sr.EstimatedMatchesPerKey("X"), 4.0);
  EXPECT_DOUBLE_EQ(sr.EstimatedMatchesPerKey("Y"), 1.0);
}

TEST(StoredRelationTest, DeleteRemovesOneCopy) {
  StoredRelation sr(R2Def(), 20);
  ASSERT_TRUE(sr.Insert(Tuple::Ints({1, 2})).ok());
  ASSERT_TRUE(sr.Insert(Tuple::Ints({1, 2})).ok());
  ASSERT_TRUE(sr.Delete(Tuple::Ints({1, 2})).ok());
  EXPECT_EQ(sr.NumRows(), 1u);
  ASSERT_TRUE(sr.Delete(Tuple::Ints({1, 2})).ok());
  EXPECT_EQ(sr.Delete(Tuple::Ints({1, 2})).code(),
            StatusCode::kFailedPrecondition);
}

TEST(StoredRelationTest, BlockSlicing) {
  StoredRelation sr = MakeLoaded(50, 20, /*clustered_x=*/false);
  EXPECT_EQ(sr.Block(0).size(), 20u);
  EXPECT_EQ(sr.Block(1).size(), 20u);
  EXPECT_EQ(sr.Block(2).size(), 10u);
}

TEST(StoredRelationTest, InsertArityMismatchRejected) {
  StoredRelation sr(R2Def(), 20);
  EXPECT_EQ(sr.Insert(Tuple::Ints({1})).code(),
            StatusCode::kInvalidArgument);
}

TEST(StoredRelationTest, DeleteArityMismatchRejected) {
  // Arity is checked before any lookup: a short tuple must not reach the
  // index search (which reads the key column), and it is not "absent".
  StoredRelation sr(R2Def(), 20);
  EXPECT_EQ(sr.Delete(Tuple::Ints({1})).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(sr.AddIndex("Y", /*clustered=*/true).ok());
  ASSERT_TRUE(sr.Insert(Tuple::Ints({1, 2})).ok());
  EXPECT_EQ(sr.Delete(Tuple::Ints({1})).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sr.Delete(Tuple::Ints({1, 2, 3})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sr.NumRows(), 1u);
}

TEST(StoredRelationTest, DistinctCountsTrackInsertsAndDeletes) {
  // The join-factor statistic is maintained incrementally; it must stay
  // exact through arbitrary insert/delete sequences, including deleting
  // the last occurrence of a value (distinct count shrinks) and deleting
  // one of several (distinct count holds).
  StoredRelation sr(R2Def(), 20);
  ASSERT_TRUE(sr.Insert(Tuple::Ints({1, 10})).ok());
  ASSERT_TRUE(sr.Insert(Tuple::Ints({1, 11})).ok());
  ASSERT_TRUE(sr.Insert(Tuple::Ints({2, 12})).ok());
  ASSERT_TRUE(sr.Insert(Tuple::Ints({2, 13})).ok());
  EXPECT_DOUBLE_EQ(sr.EstimatedMatchesPerKey("X"), 2.0);  // 4 rows / 2 X
  EXPECT_DOUBLE_EQ(sr.EstimatedMatchesPerKey("Y"), 1.0);

  ASSERT_TRUE(sr.Delete(Tuple::Ints({1, 10})).ok());
  EXPECT_DOUBLE_EQ(sr.EstimatedMatchesPerKey("X"), 1.5);  // 3 rows / 2 X

  ASSERT_TRUE(sr.Delete(Tuple::Ints({1, 11})).ok());
  EXPECT_DOUBLE_EQ(sr.EstimatedMatchesPerKey("X"), 2.0);  // 2 rows / 1 X

  ASSERT_TRUE(sr.Delete(Tuple::Ints({2, 12})).ok());
  ASSERT_TRUE(sr.Delete(Tuple::Ints({2, 13})).ok());
  EXPECT_DOUBLE_EQ(sr.EstimatedMatchesPerKey("X"), 0.0);  // empty again
}

TEST(StoredRelationTest, BulkLoadMatchesRowByRowInserts) {
  std::vector<Tuple> tuples;
  for (int t = 99; t >= 0; --t) {  // reverse order exercises the sort
    tuples.push_back(Tuple::Ints({t % 25, t}));
  }
  StoredRelation bulk(R2Def(), 20);
  ASSERT_TRUE(bulk.AddIndex("X", /*clustered=*/true).ok());
  ASSERT_TRUE(bulk.BulkLoad(tuples).ok());

  StoredRelation slow(R2Def(), 20);
  ASSERT_TRUE(slow.AddIndex("X", /*clustered=*/true).ok());
  for (const Tuple& t : tuples) {
    ASSERT_TRUE(slow.Insert(t).ok());
  }

  ASSERT_EQ(bulk.NumRows(), slow.NumRows());
  // Clustered order holds (non-decreasing X); exact row order within equal
  // keys may differ between the stable sort and shifted inserts, but the
  // statistics and the blocked access costs are identical.
  for (size_t i = 1; i < bulk.rows().size(); ++i) {
    EXPECT_LE(bulk.rows()[i - 1].value(0).AsInt(),
              bulk.rows()[i].value(0).AsInt());
  }
  EXPECT_DOUBLE_EQ(bulk.EstimatedMatchesPerKey("X"),
                   slow.EstimatedMatchesPerKey("X"));
  EXPECT_DOUBLE_EQ(bulk.EstimatedMatchesPerKey("Y"),
                   slow.EstimatedMatchesPerKey("Y"));
  IOStats bulk_io;
  IOStats slow_io;
  Result<std::vector<Tuple>> bulk_matches =
      bulk.IndexProbe("X", Value(int64_t{3}), &bulk_io);
  Result<std::vector<Tuple>> slow_matches =
      slow.IndexProbe("X", Value(int64_t{3}), &slow_io);
  ASSERT_TRUE(bulk_matches.ok());
  ASSERT_TRUE(slow_matches.ok());
  EXPECT_EQ(bulk_matches->size(), slow_matches->size());
  EXPECT_EQ(bulk_io.page_reads, slow_io.page_reads);
}

TEST(StoredRelationTest, BulkLoadRejectsArityMismatchAtomically) {
  StoredRelation sr(R2Def(), 20);
  EXPECT_EQ(sr.BulkLoad({Tuple::Ints({1, 2}), Tuple::Ints({3})}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sr.NumRows(), 0u);  // nothing partially loaded
}

TEST(StoredRelationTest, CopiesShareRowsUntilMutation) {
  // Copy-on-write: a copied StoredRelation is a stable snapshot — later
  // mutations of the original never show through, and the statistics of
  // both sides stay in lockstep with their own rows.
  StoredRelation head = MakeLoaded(100, 20, /*clustered_x=*/true);
  StoredRelation snapshot = head;
  EXPECT_EQ(&snapshot.rows(), &head.rows());  // shared until mutated

  ASSERT_TRUE(head.Insert(Tuple::Ints({3, 1000})).ok());
  ASSERT_TRUE(head.Delete(Tuple::Ints({0, 0})).ok());
  EXPECT_NE(&snapshot.rows(), &head.rows());
  EXPECT_EQ(snapshot.NumRows(), 100u);
  EXPECT_EQ(head.NumRows(), 100u);  // one insert, one delete
  EXPECT_DOUBLE_EQ(snapshot.EstimatedMatchesPerKey("X"), 4.0);

  // A failed delete must not un-share the snapshot's storage, whether the
  // tuple is absent or has the wrong arity.
  StoredRelation again = head;
  EXPECT_EQ(again.Delete(Tuple::Ints({999, 999})).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(&again.rows(), &head.rows());
  EXPECT_EQ(again.Delete(Tuple::Ints({3})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(&again.rows(), &head.rows());
}

}  // namespace
}  // namespace wvm
