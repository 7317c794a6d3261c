// Tests for the compiled delta-plan layer (src/query/compiled_plan.*) and
// the columnar storage structures backing it (ColumnBlock, the
// StoredRelation column mirror, RelationKeyIndex, the catalog's key-index
// cache). EvaluateTerm, which runs the compiled executor, must agree with
// the EvaluateTermNaive reference on results and error statuses alike.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/catalog.h"
#include "query/compiled_plan.h"
#include "query/evaluator.h"
#include "query/term.h"
#include "query/view_def.h"
#include "relational/column_block.h"
#include "relational/key_index.h"
#include "relational/relation.h"
#include "storage/stored_relation.h"

namespace wvm {
namespace {

// r0(a0,b0) |><| r1(b1,c1) |><| r2(c2,d2) on b0=b1, c1=c2, with a residual
// range filter — a three-step chain exercising seed choice, equi-key
// resolution, residual fusion, and projection composition.
std::vector<BaseRelationDef> ChainDefs() {
  return {{"r0", Schema::Ints({"a0", "b0"})},
          {"r1", Schema::Ints({"b1", "c1"})},
          {"r2", Schema::Ints({"c2", "d2"})}};
}

ViewDefinitionPtr ChainView() {
  Predicate cond = Predicate::And(
      Predicate::Compare(Operand::Attr("b0"), CompareOp::kEq,
                         Operand::Attr("b1")),
      Predicate::And(
          Predicate::Compare(Operand::Attr("c1"), CompareOp::kEq,
                             Operand::Attr("c2")),
          Predicate::Compare(Operand::Attr("d2"), CompareOp::kLe,
                             Operand::ConstInt(50))));
  auto view = ViewDefinition::Create("V", ChainDefs(), {"a0", "d2"},
                                     std::move(cond));
  EXPECT_TRUE(view.ok()) << view.status();
  return *view;
}

Catalog ChainCatalog() {
  Catalog catalog;
  for (const BaseRelationDef& def : ChainDefs()) {
    EXPECT_TRUE(catalog.Define(def).ok());
  }
  Relation* r0 = *catalog.GetMutable("r0");
  Relation* r1 = *catalog.GetMutable("r1");
  Relation* r2 = *catalog.GetMutable("r2");
  r0->Insert(Tuple::Ints({1, 10}), 2);
  r0->Insert(Tuple::Ints({2, 20}), -1);
  r0->Insert(Tuple::Ints({3, 10}), 1);
  r1->Insert(Tuple::Ints({10, 7}), 1);
  r1->Insert(Tuple::Ints({20, 7}), 3);
  r1->Insert(Tuple::Ints({20, 8}), -2);
  r2->Insert(Tuple::Ints({7, 42}), 1);
  r2->Insert(Tuple::Ints({7, 99}), 1);  // filtered by d2 <= 50
  r2->Insert(Tuple::Ints({8, 5}), 2);
  return catalog;
}

void ExpectSameRelation(const Relation& compiled, const Relation& oracle,
                        const std::string& label) {
  EXPECT_TRUE(compiled == oracle)
      << label << "\n  compiled:  " << compiled.ToString()
      << "\n  reference: " << oracle.ToString();
  EXPECT_EQ(compiled.SortedEntries(), oracle.SortedEntries()) << label;
}

TEST(CompiledPlanTest, ChainViewMaskZeroPlanShape) {
  ViewDefinitionPtr view = ChainView();
  auto plan = view->CompiledPlanFor(0);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const CompiledDeltaPlan& p = **plan;

  EXPECT_EQ(p.bound_mask(), 0u);
  ASSERT_EQ(p.order().size(), 3u);
  ASSERT_EQ(p.steps().size(), 2u);
  // With no bound operand the seed is position 0 and the chain edges make
  // every subsequent step an equi-probe, never a cross product.
  EXPECT_EQ(p.order()[0], 0u);
  for (const CompiledJoinStep& step : p.steps()) {
    EXPECT_FALSE(step.acc_keys.empty());
    EXPECT_EQ(step.acc_keys.size(), step.op_keys.size());
  }
  // The non-equi conjunct (d2 <= 50) fuses into a flat comparison leaf; no
  // fallback predicate walk is needed for this view.
  EXPECT_FALSE(p.uses_fallback_residual());
  ASSERT_EQ(p.residual().size(), 1u);
  EXPECT_EQ(p.residual()[0].op, CompareOp::kLe);
  // Projection is {a0, d2}.
  ASSERT_EQ(p.output_cols().size(), 2u);
  EXPECT_EQ(p.output_schema().size(), 2u);
}

TEST(CompiledPlanTest, BoundMaskSeedsAtBoundOperand) {
  ViewDefinitionPtr view = ChainView();
  for (size_t bound = 0; bound < 3; ++bound) {
    auto plan = view->CompiledPlanFor(uint64_t{1} << bound);
    ASSERT_TRUE(plan.ok()) << plan.status();
    // The bound operand is the seed: a delta term starts from the
    // substituted update tuple (a singleton), so every join step probes an
    // index rather than scanning from an arbitrary relation.
    EXPECT_EQ((*plan)->order()[0], bound) << "bound position " << bound;
    EXPECT_EQ((*plan)->steps().size(), 2u);
  }
}

TEST(CompiledPlanTest, PlanCacheReturnsSamePlanUntilInvalidated) {
  // Views are immutable, so a cached plan is never invalidated: every
  // lookup of one mask hands out the same plan.
  ViewDefinitionPtr view = ChainView();
  auto a = view->CompiledPlanFor(0);
  auto b = view->CompiledPlanFor(0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get()) << "cache must hand out the same plan";
}

TEST(CompiledPlanTest, CompiledMatchesInterpretedOnChainView) {
  ViewDefinitionPtr view = ChainView();
  Catalog catalog = ChainCatalog();

  std::vector<Term> terms;
  for (int coefficient : {+1, -1}) {
    Term t = Term::FromView(view);
    t.set_coefficient(coefficient);
    terms.push_back(t);
  }
  for (const Update& u : {Update::Insert("r0", Tuple::Ints({5, 20})),
                          Update::Delete("r1", Tuple::Ints({10, 7})),
                          Update::Insert("r2", Tuple::Ints({7, 13}))}) {
    auto t = Term::FromView(view).Substitute(u);
    ASSERT_TRUE(t.has_value());
    terms.push_back(*t);
  }
  // Doubly substituted (two bound positions), negated.
  auto twice = Term::FromView(view)
                   .Substitute(Update::Insert("r0", Tuple::Ints({5, 20})));
  ASSERT_TRUE(twice.has_value());
  twice = twice->Substitute(Update::Delete("r2", Tuple::Ints({7, 13})));
  ASSERT_TRUE(twice.has_value());
  twice->set_coefficient(-1);
  terms.push_back(*twice);

  for (size_t i = 0; i < terms.size(); ++i) {
    auto compiled = EvaluateTerm(terms[i], catalog);
    auto naive = EvaluateTermNaive(terms[i], catalog);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ASSERT_TRUE(naive.ok()) << naive.status();
    ExpectSameRelation(*compiled, *naive,
                       "term " + std::to_string(i) + ": " +
                           terms[i].ToString());
  }
}

TEST(CompiledPlanTest, BoundArityErrorMatchesInterpreted) {
  ViewDefinitionPtr view = ChainView();
  Catalog catalog = ChainCatalog();
  // An update whose tuple does not match the relation's arity. Substitution
  // does not validate arity; the compiled executor must reject it exactly
  // as the naive reference does.
  auto term = Term::FromView(view).Substitute(
      Update::Insert("r1", Tuple::Ints({1, 2, 3})));
  ASSERT_TRUE(term.has_value());

  auto compiled = EvaluateTerm(*term, catalog);
  auto naive = EvaluateTermNaive(*term, catalog);
  ASSERT_FALSE(compiled.ok());
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(compiled.status().ToString(), naive.status().ToString());
}

TEST(CompiledPlanTest, MissingRelationErrorMatchesInterpreted) {
  ViewDefinitionPtr view = ChainView();
  Catalog partial;
  // Only r0 defined; the chain's later operands are missing. The compiled
  // executor validates every operand up front, so the error surfaces even
  // though the r1 probe would never run (r0 is empty => empty accumulator).
  ASSERT_TRUE(partial.Define(ChainDefs()[0]).ok());
  Term term = Term::FromView(view);

  auto compiled = EvaluateTerm(term, partial);
  auto naive = EvaluateTermNaive(term, partial);
  ASSERT_FALSE(compiled.ok());
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(compiled.status().ToString(), naive.status().ToString());
}

TEST(CompiledPlanTest, ExecuteOnOperandsMatchesCatalogExecution) {
  ViewDefinitionPtr view = ChainView();
  Catalog catalog = ChainCatalog();
  auto plan = view->CompiledPlanFor(0);
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::vector<Relation> operands;
  for (const BaseRelationDef& def : ChainDefs()) {
    operands.push_back(**catalog.Get(def.name));
  }
  auto on_operands = ExecuteCompiledPlanOnOperands(**plan, operands);
  auto on_catalog = ExecuteCompiledPlan(**plan, Term::FromView(view), catalog);
  ASSERT_TRUE(on_operands.ok()) << on_operands.status();
  ASSERT_TRUE(on_catalog.ok()) << on_catalog.status();
  ExpectSameRelation(*on_operands, *on_catalog, "operand-relation execution");

  // Wrong operand count is rejected.
  operands.pop_back();
  auto bad = ExecuteCompiledPlanOnOperands(**plan, operands);
  EXPECT_FALSE(bad.ok());
}

TEST(ColumnarStorageTest, ColumnBlockRoundTripsRelations) {
  Relation r(Schema::Ints({"x", "y"}));
  r.Insert(Tuple::Ints({1, 2}), 3);
  r.Insert(Tuple::Ints({4, 5}), -2);
  r.Insert(Tuple::Ints({6, 7}), 1);

  ColumnBlock block = ColumnBlock::FromRelation(r);
  EXPECT_EQ(block.width(), 2u);
  EXPECT_EQ(block.rows(), 3u);

  // The shared gather with an identity layout and no condition.
  const std::vector<size_t> identity = {0, 1};
  const CompiledCondition none;
  Relation back =
      GatherFiltered(block, identity, none, {0, 1}, r.schema(), /*scale=*/1);
  EXPECT_TRUE(back == r) << back.ToString() << " vs " << r.ToString();

  // Scaling multiplies every multiplicity; scale 0 annihilates.
  Relation doubled =
      GatherFiltered(block, identity, none, {0, 1}, r.schema(), /*scale=*/-2);
  EXPECT_EQ(doubled.CountOf(Tuple::Ints({1, 2})), -6);
  EXPECT_EQ(doubled.CountOf(Tuple::Ints({4, 5})), 4);
  Relation zero =
      GatherFiltered(block, identity, none, {0, 1}, r.schema(), /*scale=*/0);
  EXPECT_EQ(zero.NumDistinct(), 0u);

  // Projection, including column reordering, either through the projected
  // columns or through the layout.
  Relation swapped = GatherFiltered(block, identity, none, {1, 0},
                                    Schema::Ints({"y", "x"}), 1);
  EXPECT_EQ(swapped.CountOf(Tuple::Ints({2, 1})), 3);
  EXPECT_EQ(swapped.CountOf(Tuple::Ints({5, 4})), -2);
  Relation relaid = GatherFiltered(block, {1, 0}, none, {0, 1},
                                   Schema::Ints({"y", "x"}), 1);
  EXPECT_TRUE(relaid == swapped) << relaid.ToString();

  // A condition leaf reads its column through the layout too: combined
  // column 0 is x under the identity layout and y under the swapped one.
  CompiledCondition col0_above_4;
  CompiledResidualLeaf leaf;
  leaf.lhs_is_col = true;
  leaf.lhs_col = 0;
  leaf.op = CompareOp::kGt;
  leaf.rhs_const = Value(int64_t{4});
  col0_above_4.leaves.push_back(leaf);
  Relation x_above_4 =
      GatherFiltered(block, identity, col0_above_4, {0, 1}, r.schema(), 1);
  EXPECT_EQ(x_above_4.NumDistinct(), 1u);
  EXPECT_EQ(x_above_4.CountOf(Tuple::Ints({6, 7})), 1);
  Relation y_above_4 = GatherFiltered(block, {1, 0}, col0_above_4, {0, 1},
                                      Schema::Ints({"y", "x"}), 1);
  EXPECT_EQ(y_above_4.NumDistinct(), 2u);
  EXPECT_EQ(y_above_4.CountOf(Tuple::Ints({5, 4})), -2);
  EXPECT_EQ(y_above_4.CountOf(Tuple::Ints({7, 6})), 1);
}

TEST(ColumnarStorageTest, ColumnBlockSignedTupleAndJoinAppend) {
  ColumnBlock seed = ColumnBlock::FromSignedTuple(Tuple::Ints({7, 8}), -1);
  ASSERT_EQ(seed.rows(), 1u);
  EXPECT_EQ(seed.count(0), -1);

  ColumnBlock joined(3);
  joined.AppendJoined(seed, 0, Tuple::Ints({9}), 4);
  ASSERT_EQ(joined.rows(), 1u);
  EXPECT_EQ(joined.at(0, 0), Value(int64_t{7}));
  EXPECT_EQ(joined.at(0, 2), Value(int64_t{9}));
  EXPECT_EQ(joined.count(0), -4) << "multiplicities multiply through joins";
}

TEST(ColumnarStorageTest, StoredRelationIndexesStayInLockstep) {
  BaseRelationDef def{"t", Schema::Ints({"k", "v"})};
  StoredRelation rel(def, /*tuples_per_block=*/2);
  ASSERT_TRUE(rel.AddIndex("v", /*clustered=*/false).ok());

  // Every access path agrees with the rows, and each row is found again
  // through the non-clustered index at its physical position.
  auto expect_lockstep = [&] {
    ASSERT_TRUE(rel.CheckIndexes().ok()) << rel.CheckIndexes().ToString();
    for (size_t i = 0; i < rel.NumRows(); ++i) {
      const Tuple& row = rel.rows()[i];
      IOStats io;
      Result<std::vector<Tuple>> hits = rel.IndexProbe("v", row.value(1), &io);
      ASSERT_TRUE(hits.ok());
      EXPECT_EQ(*hits, std::vector<Tuple>{row}) << "row " << i;
    }
  };

  ASSERT_TRUE(rel.Insert(Tuple::Ints({3, 30})).ok());
  ASSERT_TRUE(rel.Insert(Tuple::Ints({1, 10})).ok());
  expect_lockstep();

  // Declaring a clustered index sorts rows; the permutation must follow.
  ASSERT_TRUE(rel.AddIndex("k", /*clustered=*/true).ok());
  expect_lockstep();
  EXPECT_EQ(rel.rows()[0].value(0), Value(int64_t{1}));

  // Clustered insert lands at the sorted offset and renumbers the rows
  // after it in the permutation.
  ASSERT_TRUE(rel.Insert(Tuple::Ints({2, 20})).ok());
  expect_lockstep();
  EXPECT_EQ(rel.rows()[1].value(0), Value(int64_t{2}));

  ASSERT_TRUE(rel.Delete(Tuple::Ints({2, 20})).ok());
  expect_lockstep();
  EXPECT_EQ(rel.NumRows(), 2u);

  ASSERT_TRUE(rel.BulkLoad({Tuple::Ints({5, 50}), Tuple::Ints({0, 0})}).ok());
  expect_lockstep();
  EXPECT_EQ(rel.rows()[0].value(0), Value(int64_t{0})) << "bulk load re-sorts";
}

TEST(ColumnarStorageTest, EstimatedMatchesPerKeyIsMonotone) {
  BaseRelationDef def{"t", Schema::Ints({"k", "v"})};
  StoredRelation rel(def, 2);
  EXPECT_EQ(rel.EstimatedMatchesPerKey("k"), 0.0) << "empty relation";

  ASSERT_TRUE(rel.Insert(Tuple::Ints({1, 10})).ok());
  double prev = rel.EstimatedMatchesPerKey("k");
  EXPECT_EQ(prev, 1.0);
  // Repeating the same key can only raise the per-key fan-out estimate.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple::Ints({1, 20 + i})).ok());
    const double est = rel.EstimatedMatchesPerKey("k");
    EXPECT_GE(est, prev);
    prev = est;
  }
  EXPECT_EQ(prev, 5.0);
  EXPECT_EQ(rel.EstimatedMatchesPerKey("nope"), 0.0) << "unknown attribute";
}

TEST(ColumnarStorageTest, RelationKeyIndexFindsExactMatches) {
  Relation r(Schema::Ints({"x", "y"}));
  r.Insert(Tuple::Ints({1, 2}), 2);
  r.Insert(Tuple::Ints({1, 3}), -1);
  r.Insert(Tuple::Ints({4, 2}), 1);

  RelationKeyIndex index(r.shared_entries(), {0});
  EXPECT_EQ(index.num_rows(), 3u);

  const Value probe(int64_t{1});
  auto value_at = [&](size_t) -> const Value& { return probe; };
  int64_t total = 0;
  size_t hits = 0;
  index.ForEachMatch(RelationKeyIndex::ProbeHash(1, value_at), value_at,
                     [&](const Tuple& row, int64_t count) {
                       EXPECT_EQ(row.value(0), probe);
                       total += count;
                       ++hits;
                     });
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(total, 1) << "counts 2 and -1 both surface";

  // Empty key list: every row matches (the degenerate cross-product probe).
  RelationKeyIndex cross(r.shared_entries(), {});
  size_t all = 0;
  auto no_values = [](size_t) -> const Value& {
    static const Value v;
    return v;
  };
  cross.ForEachMatch(RelationKeyIndex::ProbeHash(0, no_values), no_values,
                     [&](const Tuple&, int64_t) { ++all; });
  EXPECT_EQ(all, 3u);
}

TEST(ColumnarStorageTest, CatalogKeyIndexCachingAndInvalidation) {
  Catalog catalog = ChainCatalog();
  auto a = catalog.KeyIndexFor("r1", {0});
  auto b = catalog.KeyIndexFor("r1", {0});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get()) << "second lookup must hit the cache";

  // Distinct key columns are distinct cache entries.
  auto other = catalog.KeyIndexFor("r1", {1});
  ASSERT_TRUE(other.ok());
  EXPECT_NE(a->get(), other->get());

  // Mutating the relation drops its cached indexes; the old index keeps its
  // pinned snapshot and stays consistent (it just no longer sees new rows).
  ASSERT_TRUE(catalog.Apply(Update::Insert("r1", Tuple::Ints({33, 1}))).ok());
  auto c = catalog.KeyIndexFor("r1", {0});
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->get(), c->get()) << "mutation must invalidate the index";
  EXPECT_EQ((*a)->num_rows() + 1, (*c)->num_rows());

  const Value probe(int64_t{33});
  auto value_at = [&](size_t) -> const Value& { return probe; };
  size_t stale_hits = 0;
  size_t fresh_hits = 0;
  (*a)->ForEachMatch(RelationKeyIndex::ProbeHash(1, value_at), value_at,
                     [&](const Tuple&, int64_t) { ++stale_hits; });
  (*c)->ForEachMatch(RelationKeyIndex::ProbeHash(1, value_at), value_at,
                     [&](const Tuple&, int64_t) { ++fresh_hits; });
  EXPECT_EQ(stale_hits, 0u);
  EXPECT_EQ(fresh_hits, 1u);

  EXPECT_FALSE(catalog.KeyIndexFor("missing", {0}).ok());
  EXPECT_FALSE(catalog.KeyIndexFor("r1", {9}).ok()) << "column out of range";
}

}  // namespace
}  // namespace wvm
