#include "query/view_def.h"

#include <gtest/gtest.h>

namespace wvm {
namespace {

std::vector<BaseRelationDef> ChainDefs() {
  return {{"r1", Schema::Ints({"W", "X"})},
          {"r2", Schema::Ints({"X", "Y"})},
          {"r3", Schema::Ints({"Y", "Z"})}};
}

TEST(ViewDefinitionTest, NaturalJoinBuildsEqualityConditions) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok()) << v.status();
  // Shared X and Y each produce one equi-edge.
  EXPECT_EQ((*v)->equi_edges().size(), 2u);
  EXPECT_EQ((*v)->combined_schema().size(), 6u);
  EXPECT_EQ((*v)->output_schema().size(), 2u);
}

TEST(ViewDefinitionTest, SharedNamesAreQualified) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok());
  const Schema& combined = (*v)->combined_schema();
  EXPECT_TRUE(combined.IndexOf("r1.X").has_value());
  EXPECT_TRUE(combined.IndexOf("r2.X").has_value());
  EXPECT_TRUE(combined.IndexOf("W").has_value());  // unique: stays bare
  EXPECT_FALSE(combined.IndexOf("X").has_value());
}

TEST(ViewDefinitionTest, ProjectingSharedNameResolvesToFirstOccurrence) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"X"});
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ((*v)->output_schema().attribute(0).name, "r1.X");
}

TEST(ViewDefinitionTest, RejectsDuplicateRelations) {
  std::vector<BaseRelationDef> defs = {{"r1", Schema::Ints({"W"})},
                                       {"r1", Schema::Ints({"X"})}};
  EXPECT_EQ(ViewDefinition::Create("V", defs, {"W"}, Predicate())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ViewDefinitionTest, RejectsEmptyRelationList) {
  EXPECT_EQ(
      ViewDefinition::Create("V", {}, {}, Predicate()).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ViewDefinitionTest, RejectsUnknownProjection) {
  EXPECT_EQ(ViewDefinition::NaturalJoin("V", ChainDefs(), {"Q"})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ViewDefinitionTest, RejectsUnknownConditionAttribute) {
  EXPECT_EQ(ViewDefinition::NaturalJoin(
                "V", ChainDefs(), {"W"},
                Predicate::AttrCompare("Q", CompareOp::kEq, "W"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ViewDefinitionTest, RelationIndexAndOffsets) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*(*v)->RelationIndex("r2"), 1u);
  EXPECT_EQ((*v)->RelationIndex("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*v)->relation_offset(0), 0u);
  EXPECT_EQ((*v)->relation_offset(1), 2u);
  EXPECT_EQ((*v)->relation_offset(2), 4u);
}

std::vector<BaseRelationDef> KeyedDefs() {
  return {{"r1", Schema({{"W", ValueType::kInt, true},
                         {"X", ValueType::kInt, false}})},
          {"r2", Schema({{"X", ValueType::kInt, false},
                         {"Y", ValueType::kInt, true}})}};
}

TEST(ViewDefinitionTest, KeysProjectedWhenEveryDeclaredKeySurvives) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", KeyedDefs(), {"W", "Y"});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)->KeysProjected());
}

TEST(ViewDefinitionTest, MissingKeyInProjectionDisablesKeys) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", KeyedDefs(), {"W"});
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)->KeysProjected());
}

TEST(ViewDefinitionTest, NoDeclaredKeysDisablesKeys) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)->KeysProjected());
}

TEST(ViewDefinitionTest, KeyConstraintsMapToOutputColumns) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", KeyedDefs(), {"W", "Y"});
  ASSERT_TRUE(v.ok());
  Update u = Update::Delete("r1", Tuple::Ints({1, 2}));
  auto constraints = (*v)->KeyConstraintsFor(u);
  ASSERT_TRUE(constraints.ok()) << constraints.status();
  ASSERT_EQ(constraints->size(), 1u);
  EXPECT_EQ((*constraints)[0].first, 0u);  // W is output column 0
  EXPECT_EQ((*constraints)[0].second, Value(int64_t{1}));
}

TEST(ViewDefinitionTest, KeyConstraintsRejectArityMismatch) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", KeyedDefs(), {"W", "Y"});
  ASSERT_TRUE(v.ok());
  Update u = Update::Delete("r1", Tuple::Ints({1}));
  EXPECT_EQ((*v)->KeyConstraintsFor(u).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ViewDefinitionTest, KeyConstraintsFailWithoutKeys) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok());
  Update u = Update::Delete("r1", Tuple::Ints({1, 2}));
  EXPECT_EQ((*v)->KeyConstraintsFor(u).status().code(),
            StatusCode::kFailedPrecondition);
}

// The key-delete as a delta, case by case: it removes exactly the rows
// matching every (column, value) pair, each at its full multiplicity.
TEST(ViewDefinitionTest, KeyDeleteDeltaRemovesExactlyTheMatchingRows) {
  using Rows = std::vector<std::pair<Tuple, int64_t>>;
  struct Case {
    const char* name;
    Rows view;
    ColumnValues key;
    Rows delta;  // expected
  };
  const Value one(int64_t{1});
  const Value two(int64_t{2});
  const std::vector<Case> cases = {
      {"two-column key",
       {{Tuple::Ints({1, 2, 3}), 1},
        {Tuple::Ints({1, 5, 3}), 1},
        {Tuple::Ints({1, 2, 4}), 1}},
       {{0, one}, {1, two}},
       {{Tuple::Ints({1, 2, 3}), -1}, {Tuple::Ints({1, 2, 4}), -1}}},
      {"row with count 3", {{Tuple::Ints({1, 7, 7}), 3}}, {{0, one}},
       {{Tuple::Ints({1, 7, 7}), -3}}},
      {"negative count", {{Tuple::Ints({2, 0, 0}), -2}}, {{0, two}},
       {{Tuple::Ints({2, 0, 0}), 2}}},
      {"row that does not match", {{Tuple::Ints({2, 1, 1}), 1}}, {{0, one}},
       {}},
      {"empty view", {}, {{0, one}}, {}},
  };
  const Schema schema = Schema::Ints({"A", "B", "C"});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Relation view(schema);
    for (const auto& [row, count] : c.view) {
      view.Insert(row, count);
    }
    Relation expected(schema);
    for (const auto& [row, count] : c.delta) {
      expected.Insert(row, count);
    }
    for (const auto& [row, count] : c.view) {
      EXPECT_EQ(RowMatches(row, c.key), expected.CountOf(row) != 0)
          << row.ToString();
    }
    const Relation delta = KeyDeleteDelta(view, c.key);
    EXPECT_EQ(delta, expected);
    view.Add(delta);
    for (const auto& [row, count] : c.view) {
      EXPECT_EQ(view.CountOf(row), expected.CountOf(row) != 0 ? 0 : count)
          << row.ToString();
    }
  }
}

TEST(ViewDefinitionTest, ExtraConditionIsConjoined) {
  Result<ViewDefinitionPtr> v = ViewDefinition::NaturalJoin(
      "V", ChainDefs(), {"W", "Z"},
      Predicate::AttrCompare("W", CompareOp::kGt, "Z"));
  ASSERT_TRUE(v.ok());
  // W > Z is not an equi-edge; the two natural-join equalities are.
  EXPECT_EQ((*v)->equi_edges().size(), 2u);
  EXPECT_NE((*v)->cond().ToString().find("W > Z"), std::string::npos);
}

TEST(ViewDefinitionTest, ToStringDescribesTheView) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W"});
  ASSERT_TRUE(v.ok());
  EXPECT_NE((*v)->ToString().find("pi_{W}"), std::string::npos);
  EXPECT_NE((*v)->ToString().find("r1 x r2 x r3"), std::string::npos);
}

}  // namespace
}  // namespace wvm
