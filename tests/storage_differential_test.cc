// Differential test of StoredRelation's index access paths against the
// scan-based reference (storage_reference.h): seeded random sequences of
// bulk loads, inserts, deletes and probes over four index layouts. After
// every step both sides hold the same rows in the same physical order,
// every probe returns the same matches in the same order with the same
// page reads and index probes, with and without a ReadCache, and every
// column, indexed or not, has the same rows per distinct value (the
// planner's join factor, which the indexes keep). Copy-on-write
// snapshots are taken mid-sequence and later steps mutate them too: every
// version must keep answering like the reference copied at the same moment.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "storage/stored_relation.h"
#include "storage_reference.h"

namespace wvm {
namespace {

constexpr size_t kColumns = 3;  // X, Y and a payload Z

// Small domains make duplicate keys and duplicate rows (bags) common.
Tuple RandomTuple(Random* rng) {
  return Tuple::Ints({rng->UniformRange(0, 7), rng->UniformRange(0, 5),
                      rng->UniformRange(0, 2)});
}

// One StoredRelation and the reference it must match.
struct Pair {
  StoredRelation stored;
  reference::ScanStore scan;
};

class StorageDifferential {
 public:
  StorageDifferential(std::vector<IndexDef> indexes, uint64_t seed)
      : indexes_(std::move(indexes)), rng_(seed) {}

  void Run() {
    const int k = static_cast<int>(1 + rng_.Uniform(5));
    Pair head{StoredRelation({"r", Schema::Ints({"X", "Y", "Z"})}, k),
              reference::ScanStore("r", k)};

    // Half the seeds declare the indexes after a bulk load, so AddIndex
    // must sort the file and build its permutations from existing rows.
    const bool declare_late = rng_.Bernoulli(1, 2);
    if (!declare_late) {
      Declare(&head);
    }
    std::vector<Tuple> initial(rng_.Uniform(40));
    for (Tuple& t : initial) {
      t = RandomTuple(&rng_);
    }
    ASSERT_TRUE(head.stored.BulkLoad(initial).ok());
    head.scan.BulkLoad(initial);
    if (declare_late) {
      Declare(&head);
    }
    ExpectSame(head, "after load");

    // versions[0] is the head; the rest are snapshots of some version.
    std::vector<Pair> versions = {std::move(head)};
    for (int step = 0; step < 250; ++step) {
      const std::string where = StrCat("step ", step);
      const size_t v = versions.size() > 1 && rng_.Bernoulli(1, 5)
                           ? 1 + rng_.Uniform(versions.size() - 1)
                           : 0;
      const uint64_t roll = rng_.Uniform(100);
      if (roll < 45) {
        const Tuple t = RandomTuple(&rng_);
        ASSERT_TRUE(versions[v].stored.Insert(t).ok());
        versions[v].scan.Insert(t);
      } else if (roll < 80) {
        // Mostly a row that is there (possibly one of several copies),
        // sometimes one that may not be.
        const std::vector<Tuple>& rows = versions[v].scan.rows();
        const Tuple t = !rows.empty() && rng_.Bernoulli(4, 5)
                            ? rows[rng_.Uniform(rows.size())]
                            : RandomTuple(&rng_);
        const bool present = versions[v].scan.Delete(t);
        const Status s = versions[v].stored.Delete(t);
        EXPECT_EQ(s.ok(), present) << where << ": " << s.ToString();
        if (!present) {
          EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << where;
        }
      } else if (roll < 85) {
        Pair snapshot = versions[v];
        versions.push_back(std::move(snapshot));
      }
      ExpectSame(versions[v], where);
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    for (size_t i = 0; i < versions.size(); ++i) {
      ExpectSame(versions[i], StrCat("version ", i));
    }
  }

 private:
  // Declares the layout's indexes in a random order, so a clustered index
  // declared over existing rows may have to re-sort under a permutation.
  void Declare(Pair* p) {
    std::vector<IndexDef> order = indexes_;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.Uniform(i)]);
    }
    for (const IndexDef& idx : order) {
      ASSERT_TRUE(p->stored.AddIndex(idx.attribute, idx.clustered).ok());
      p->scan.AddIndex(idx.attribute == "X" ? 0 : 1, idx.clustered);
    }
  }

  // Same rows, valid access paths and distinct counts, the same join
  // factor on every column, and the same answer to probes of every indexed
  // column — alone and through a cache shared by a few probes, as within
  // one query.
  void ExpectSame(const Pair& p, const std::string& where) {
    ASSERT_EQ(p.stored.rows(), p.scan.rows()) << where;
    const Status indexes = p.stored.CheckIndexes();
    ASSERT_TRUE(indexes.ok()) << where << ": " << indexes.ToString();

    ReadCache stored_cache;
    ReadCache scan_cache;
    for (size_t c = 0; c < kColumns; ++c) {
      const std::string attr(1, "XYZ"[c]);
      EXPECT_EQ(p.stored.EstimatedMatchesPerKey(attr), p.scan.MatchesPerKey(c))
          << where << " join factor of " << attr;
      for (int probe = 0; probe < 3; ++probe) {
        const Value value(rng_.UniformRange(-1, 8));
        const bool cached = rng_.Bernoulli(1, 2);
        IOStats got_io;
        IOStats want_io;
        Result<std::vector<Tuple>> got = p.stored.IndexProbe(
            attr, value, &got_io, cached ? &stored_cache : nullptr);
        if (p.stored.FindIndex(attr) == nullptr) {
          EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition)
              << where;
          continue;
        }
        const std::vector<Tuple> want = p.scan.IndexProbe(
            c, value, &want_io, cached ? &scan_cache : nullptr);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
        EXPECT_EQ(*got, want) << where << " probe " << attr << "=" << value;
        EXPECT_EQ(got_io.page_reads, want_io.page_reads)
            << where << " probe " << attr << "=" << value
            << (cached ? " (cached)" : "");
        EXPECT_EQ(got_io.index_probes, want_io.index_probes) << where;
      }
    }
  }

  std::vector<IndexDef> indexes_;  // over X and Y
  Random rng_;
};

void RunSeeds(const std::vector<IndexDef>& indexes) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    StorageDifferential(indexes, seed).Run();
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(StorageDifferentialTest, ClusteredOnly) {
  RunSeeds({{"X", /*clustered=*/true}});
}

TEST(StorageDifferentialTest, ClusteredPlusNonClustered) {
  // Example 6's r2: clustered on X, non-clustered on Y.
  RunSeeds({{"X", /*clustered=*/true}, {"Y", /*clustered=*/false}});
}

TEST(StorageDifferentialTest, NonClusteredOnlyInHeapOrder) {
  // Two permutations over a heap file: deletes go through the first, the
  // second is only kept in step.
  RunSeeds({{"Y", /*clustered=*/false}, {"X", /*clustered=*/false}});
}

TEST(StorageDifferentialTest, NoIndex) {
  // Deletes fall back to a full scan; every probe is refused.
  RunSeeds({});
}

}  // namespace
}  // namespace wvm
