// KeyedUpdateHistory (the self-maintainer's last-write index) against the
// scan-based reference it replaced: seeded streams of inserts, deletes and
// re-inserts over a few keys, updates to an untracked relation, ids that
// break the strictly-increasing rule, clears, and snapshot copies restored
// later. After every step, every key of every tracked relation must get the
// same answer from both — unknown, proven absent, or present with the same
// row — through the key's declared column order and through a foreign
// key's different order.
#include "core/update_history.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "update_history_reference.h"

namespace wvm {
namespace {

// Relation 0: arity 2, key (0). Relation 1: arity 3, composite key declared
// as (2, 0). Relation 2: arity 2, untracked (no pruned complement).
const std::vector<std::vector<size_t>>& KeyCols() {
  static const auto* cols =
      new std::vector<std::vector<size_t>>{{0}, {2, 0}, {}};
  return *cols;
}
constexpr size_t kArity[] = {2, 3, 2};
constexpr int64_t kDomain = 3;  // key and non-key values in [0, kDomain)

// How each tracked relation is looked up: its key in declared order, and
// for the composite key also the order a foreign key lists it in.
const std::vector<std::pair<size_t, std::vector<size_t>>>& Lookups() {
  static const auto* lookups =
      new std::vector<std::pair<size_t, std::vector<size_t>>>{
          {0, {0}}, {1, {2, 0}}, {1, {0, 2}}};
  return *lookups;
}

enum class Outcome { kUnknown, kAbsent, kPresent };

struct Answer {
  Outcome outcome = Outcome::kUnknown;
  Tuple row;  // kPresent only

  bool operator==(const Answer& other) const {
    return outcome == other.outcome && row == other.row;
  }
};

std::string Describe(const Answer& a) {
  switch (a.outcome) {
    case Outcome::kUnknown:
      return "unknown";
    case Outcome::kAbsent:
      return "absent";
    case Outcome::kPresent:
      return "present " + a.row.ToString();
  }
  return "?";
}

Answer FromIndex(const KeyedUpdateHistory::LastWrite* w) {
  if (w == nullptr) {
    return Answer{};
  }
  if (w->kind == UpdateKind::kDelete) {
    return Answer{Outcome::kAbsent, Tuple()};
  }
  return Answer{Outcome::kPresent, w->row};
}

Answer FromReference(const Update* u) {
  if (u == nullptr) {
    return Answer{};
  }
  if (u->kind == UpdateKind::kDelete) {
    return Answer{Outcome::kAbsent, Tuple()};
  }
  return Answer{Outcome::kPresent, u->tuple};
}

struct Side {
  KeyedUpdateHistory index{KeyCols()};
  reference::ScanHistory scan;
};

class UpdateHistoryDifferential {
 public:
  explicit UpdateHistoryDifferential(uint64_t seed) : rng_(seed) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::string label =
          "seed step " + std::to_string(step) + ": ";
      Step(label);
      ExpectSameAnswers(label);
      if (testing::Test::HasFailure()) {
        return;
      }
    }
  }

 private:
  void Step(const std::string& label) {
    const uint64_t roll = rng_.Uniform(100);
    if (roll < 6) {
      snapshots_.push_back(live_);  // a checkpoint copies the history
      return;
    }
    if (roll < 10 && !snapshots_.empty()) {
      live_ = snapshots_[rng_.Uniform(snapshots_.size())];  // restore
      return;
    }
    if (roll < 12) {
      live_.index.Clear();  // a bare crash drops it
      live_.scan.Clear();
      next_id_ = rng_.Uniform(3);  // a fresh history accepts any first id
      return;
    }
    const size_t relation = rng_.Uniform(3);
    std::vector<Value> values;
    for (size_t c = 0; c < kArity[relation]; ++c) {
      values.emplace_back(rng_.UniformRange(0, kDomain - 1));
    }
    Update u = rng_.Bernoulli(2, 5)
                   ? Update::Delete("r", Tuple(std::move(values)))
                   : Update::Insert("r", Tuple(std::move(values)));
    if (rng_.Bernoulli(1, 12) && next_id_ > 0) {
      u.id = rng_.Uniform(next_id_);  // not above the last id: rejected
    } else {
      u.id = next_id_ + rng_.Uniform(3);  // gaps are fine
    }
    const bool recorded = live_.scan.Record(relation, u);
    const Status s = live_.index.Record(relation, u);
    EXPECT_EQ(s.ok(), recorded) << label << u.ToString() << " id " << u.id
                                << ": " << s;
    if (!recorded) {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << label;
    } else {
      next_id_ = u.id + 1;
    }
  }

  void ExpectSameAnswers(const std::string& label) {
    EXPECT_EQ(live_.index.num_keys(), live_.scan.DistinctKeys(KeyCols()))
        << label;
    for (const auto& [relation, cols] : Lookups()) {
      std::vector<Value> key(cols.size());
      for (int64_t k = 0; k < kDomain * kDomain; ++k) {
        key[0] = Value(k % kDomain);
        if (key.size() > 1) {
          key[1] = Value(k / kDomain);
        } else if (k >= kDomain) {
          break;
        }
        const Answer got =
            FromIndex(live_.index.Find(relation, cols, key));
        const Answer want =
            FromReference(live_.scan.Find(relation, cols, key));
        EXPECT_TRUE(got == want)
            << label << "relation " << relation << " key "
            << Tuple(key).ToString() << ": index " << Describe(got)
            << ", reference " << Describe(want);
      }
    }
  }

  Random rng_;
  Side live_;
  std::vector<Side> snapshots_;
  uint64_t next_id_ = 0;
};

TEST(UpdateHistoryDifferentialTest, SeededStreamsMatchTheScan) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    UpdateHistoryDifferential(seed).Run(250);
    if (HasFailure()) {
      return;
    }
  }
}

TEST(UpdateHistoryDifferentialTest, LastWriteWinsAcrossReinserts) {
  KeyedUpdateHistory h(KeyCols());
  const std::vector<size_t> cols = {0};
  const std::vector<Value> key = {Value(int64_t{1})};
  EXPECT_EQ(h.Find(0, cols, key), nullptr);
  Update u = Update::Insert("r", Tuple::Ints({1, 10}));
  u.id = 1;
  ASSERT_TRUE(h.Record(0, u).ok());
  u = Update::Delete("r", Tuple::Ints({1, 10}));
  u.id = 2;
  ASSERT_TRUE(h.Record(0, u).ok());
  ASSERT_NE(h.Find(0, cols, key), nullptr);
  EXPECT_EQ(h.Find(0, cols, key)->kind, UpdateKind::kDelete);
  u = Update::Insert("r", Tuple::Ints({1, 20}));
  u.id = 3;
  ASSERT_TRUE(h.Record(0, u).ok());
  EXPECT_EQ(h.Find(0, cols, key)->kind, UpdateKind::kInsert);
  EXPECT_EQ(h.Find(0, cols, key)->row, Tuple::Ints({1, 20}));
  EXPECT_EQ(h.num_keys(), 1u);
  // An untracked relation's update only advances the id floor.
  u = Update::Insert("s", Tuple::Ints({1, 30}));
  u.id = 4;
  ASSERT_TRUE(h.Record(2, u).ok());
  EXPECT_EQ(h.num_keys(), 1u);
  EXPECT_EQ(h.Find(2, cols, key), nullptr);
  u.id = 4;
  EXPECT_EQ(h.Record(0, u).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.Find(0, cols, key)->row, Tuple::Ints({1, 20}));
}

TEST(UpdateHistoryDifferentialTest, LookupsOffTheKeyFindNothing) {
  KeyedUpdateHistory h(KeyCols());
  Update u = Update::Insert("r", Tuple::Ints({1, 2, 3}));
  ASSERT_TRUE(h.Record(1, u).ok());
  const std::vector<Value> key = {Value(int64_t{3}), Value(int64_t{1})};
  ASSERT_NE(h.Find(1, {2, 0}, key), nullptr);
  EXPECT_EQ(h.Find(1, {2, 1}, key), nullptr);  // not the key's columns
  EXPECT_EQ(h.Find(1, {2}, {Value(int64_t{3})}), nullptr);  // part of it
  // A tracked relation's update without a key column is refused whole.
  u = Update::Insert("r", Tuple::Ints({1}));
  u.id = 1;
  EXPECT_EQ(h.Record(1, u).code(), StatusCode::kInvalidArgument);
  u.tuple = Tuple::Ints({1, 2, 3});
  EXPECT_TRUE(h.Record(1, u).ok());  // the refused id was not consumed
}

}  // namespace
}  // namespace wvm
