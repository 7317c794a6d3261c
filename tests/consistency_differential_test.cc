// Differential test of the delta-based consistency oracle against the
// full-state reference (consistency_reference.h): identical
// ConsistencyReport — every flag and the violation text — and identical
// staleness lags.
//
// Here on randomized synthetic state sequences built to hit every corner of
// the definitions: repeated and regressing source states, skipped and
// foreign warehouse states, multiplicities above 1 and negative counts,
// tied and out-of-order clocks, logs built through both entry points. The
// schedules of consistency_matrix_test and crash_matrix_test run the same
// comparison on every simulated execution (CheckedConsistency).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "consistency_reference.h"

namespace wvm {
namespace {

// A small domain keeps coincidences (repeats, equal states reached along
// different paths) frequent.
Relation RandomState(Random* rng) {
  static const int64_t kCounts[] = {-2, -1, 1, 2, 3};
  Relation r(Schema::Ints({"a"}));
  const uint64_t distinct = rng->Uniform(4);
  for (uint64_t i = 0; i < distinct; ++i) {
    r.Insert(Tuple::Ints({rng->UniformRange(0, 4)}), kCounts[rng->Uniform(5)]);
  }
  return r;
}

Relation Mutated(const Relation& base, Random* rng) {
  static const int64_t kChanges[] = {-2, -1, 1, 2};
  Relation r = base;
  const uint64_t changes = 1 + rng->Uniform(2);
  for (uint64_t i = 0; i < changes; ++i) {
    r.Insert(Tuple::Ints({rng->UniformRange(0, 4)}), kChanges[rng->Uniform(4)]);
  }
  return r;
}

struct Sequences {
  std::vector<Relation> source;
  std::vector<uint64_t> source_clock;
  std::vector<Relation> warehouse;
  std::vector<uint64_t> warehouse_clock;
};

Sequences RandomSequences(Random* rng) {
  Sequences s;
  const uint64_t n = 1 + rng->Uniform(9);
  s.source.push_back(rng->Bernoulli(1, 3) ? Relation(Schema::Ints({"a"}))
                                          : RandomState(rng));
  while (s.source.size() < n) {
    const uint64_t roll = rng->Uniform(100);
    if (roll < 25) {
      s.source.push_back(s.source.back());  // an update that misses V
    } else if (roll < 40) {
      s.source.push_back(s.source[rng->Uniform(s.source.size())]);  // regress
    } else {
      s.source.push_back(Mutated(s.source.back(), rng));
    }
  }
  // The warehouse walks the source sequence with a pointer: repeating,
  // skipping ahead, regressing, or showing a state the source never had.
  const uint64_t m = 1 + rng->Uniform(12);
  size_t p = 0;
  s.warehouse.push_back(rng->Bernoulli(7, 10) ? s.source[0]
                                              : RandomState(rng));
  while (s.warehouse.size() < m) {
    const uint64_t roll = rng->Uniform(100);
    if (roll < 30) {
      s.warehouse.push_back(s.warehouse.back());
    } else if (roll < 65) {
      p = std::min(s.source.size() - 1, p + 1 + rng->Uniform(2));
      s.warehouse.push_back(s.source[p]);
    } else if (roll < 75) {
      p = rng->Uniform(p + 1);
      s.warehouse.push_back(s.source[p]);
    } else if (roll < 85) {
      s.warehouse.push_back(RandomState(rng));
    } else {
      s.warehouse.push_back(s.source[rng->Uniform(s.source.size())]);
    }
  }
  if (rng->Bernoulli(3, 5)) {
    s.warehouse.back() = s.source.back();
  }
  // Clocks: non-decreasing with ties (as simulators stamp them), and now
  // and then arbitrary.
  const bool arbitrary = rng->Bernoulli(1, 10);
  uint64_t clock = 0;
  for (size_t i = 0; i < s.source.size(); ++i) {
    clock += rng->Uniform(3);
    s.source_clock.push_back(arbitrary ? rng->Uniform(12) : clock);
  }
  clock = 0;
  for (size_t j = 0; j < s.warehouse.size(); ++j) {
    clock += rng->Uniform(3);
    s.warehouse_clock.push_back(arbitrary ? rng->Uniform(12) : clock);
  }
  return s;
}

// The log through the full-state entry point, or through the delta entry
// point with the differences computed here.
StateLog LogOf(const Sequences& s, bool deltas) {
  StateLog log;
  Relation previous;
  for (size_t i = 0; i < s.source.size(); ++i) {
    if (deltas) {
      log.RecordSourceDelta(s.source[i] - previous, s.source_clock[i]);
      previous = s.source[i];
    } else {
      log.RecordSourceState(s.source[i], s.source_clock[i]);
    }
  }
  previous = Relation();
  for (size_t j = 0; j < s.warehouse.size(); ++j) {
    if (deltas) {
      log.RecordWarehouseDelta(s.warehouse[j] - previous,
                               s.warehouse_clock[j]);
      previous = s.warehouse[j];
    } else {
      log.RecordWarehouseState(s.warehouse[j], s.warehouse_clock[j]);
    }
  }
  return log;
}

TEST(ConsistencyDifferentialTest, RandomSequencesMatchTheFullStateReference) {
  Random rng(20261017);
  std::map<std::string, int> verdicts;
  int invisible = 0;
  int late = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const Sequences s = RandomSequences(&rng);
    const StateLog log = LogOf(s, /*deltas=*/trial % 2 == 1);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << "\n"
                                      << log.ToString());
    // The log holds exactly the states it was given.
    ASSERT_EQ(log.source_view_states.MaterializeAll(), s.source);
    ASSERT_EQ(log.warehouse_view_states.MaterializeAll(), s.warehouse);
    const ConsistencyReport report = CheckedConsistency(log);
    if (::testing::Test::HasFailure()) {
      return;
    }
    const std::string kind =
        report.violation.substr(0, report.violation.find(':'));
    ++verdicts[kind];
    for (int64_t lag : MeasureStaleness(log).lags) {
      invisible += lag < 0;
      late += lag > 0;
    }
  }
  // Every verdict the checker can give came up, and so did both kinds of
  // staleness: the sample exercised the whole definition.
  EXPECT_GT(verdicts[""], 100);
  EXPECT_GT(verdicts["not convergent"], 100);
  EXPECT_GT(verdicts["not weakly consistent"], 100);
  EXPECT_GT(verdicts["not consistent"], 100);
  EXPECT_GT(verdicts["not complete"], 100);
  EXPECT_GT(invisible, 100);
  EXPECT_GT(late, 100);
}

TEST(ConsistencyDifferentialTest, FingerprintCollisionNeverDecidesEquality) {
  // Fingerprints are sums of count * lane, wrapping at 2^64: 2^62 copies of
  // a tuple whose lanes are both multiples of 4 fingerprint to zero, the
  // same as the empty view. Only the exact difference can tell them apart.
  constexpr int64_t kCopies = int64_t{1} << 62;
  Relation x(Schema::Ints({"a"}));
  for (int64_t v = 0; x.IsEmpty() || !(Fingerprint::Of(x) == Fingerprint());
       ++v) {
    x = Relation(Schema::Ints({"a"}));
    x.Insert(Tuple::Ints({v}), kCopies);
  }
  const Relation empty(Schema::Ints({"a"}));
  ASSERT_TRUE(Fingerprint::Of(x) == Fingerprint::Of(empty));
  ASSERT_NE(x, empty);

  StateLog log;
  log.RecordSourceState(empty, 0);
  log.RecordWarehouseState(x, 0);      // collides with ss_0, is not ss_0
  log.RecordWarehouseState(empty, 1);  // ss_0, one event later
  const ConsistencyReport report = CheckedConsistency(log);
  EXPECT_TRUE(report.convergent);
  EXPECT_FALSE(report.weakly_consistent) << report.ToString();
  EXPECT_NE(report.violation.find("matches no source state"),
            std::string::npos);
  EXPECT_EQ(MeasureStaleness(log).lags, std::vector<int64_t>{1});
}

TEST(ConsistencyDifferentialTest, EmptyAndOneSidedLogs) {
  const Relation one = Relation::FromTuples(Schema::Ints({"a"}),
                                            {Tuple::Ints({1})});
  StateLog source_only;
  source_only.RecordSourceState(one, 0);
  EXPECT_EQ(CheckedConsistency(source_only).violation, "empty execution");
  EXPECT_EQ(MeasureStaleness(source_only).lags, std::vector<int64_t>{-1});
  StateLog warehouse_only;
  warehouse_only.RecordWarehouseState(one, 0);
  EXPECT_EQ(CheckedConsistency(warehouse_only).violation, "empty execution");
  EXPECT_TRUE(MeasureStaleness(warehouse_only).lags.empty());
}

}  // namespace
}  // namespace wvm
