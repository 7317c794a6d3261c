// Randomized differential tests for the data-plane kernels: the compiled
// term evaluator (static equi-join order, catalog key indexes, fused
// residual, cached tuple hashes, flat counts map) and the physical
// evaluator (probe/scan planning over blocked storage, blocked nested
// loops) must agree exactly — as Z-relations, multiplicities included —
// with the naive cross-product/select/project reference on randomized
// views, substituted (bound) operands, and both term coefficients; the
// logical evaluator also over catalogs with negative multiplicities.
// Parallel per-term query evaluation must agree with the serial per-term
// loop.
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/eca.h"
#include "core/multi_view.h"
#include "query/catalog.h"
#include "query/compiled_plan.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "query/term.h"
#include "query/view_def.h"
#include "relational/flat_counts_map.h"
#include "relational/relation.h"
#include "source/physical_evaluator.h"
#include "source/source.h"

namespace wvm {
namespace {

// Force a multi-worker shared pool before anything touches it, so the
// parallel branch of EvaluateQueryPerTerm runs even on single-core machines.
const bool kForceThreads = [] {
  setenv("WVM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

std::string Attr(size_t rel, size_t col) {
  return StrCat("a", rel, col);
}

struct RandomScenario {
  ViewDefinitionPtr view;
  Catalog catalog;
  std::vector<Update> updates;  // one valid single-tuple update per relation
};

// A random 2-4 relation view over relations with disjoint attribute names,
// joined by random cross-relation equality edges (always at least a spanning
// chain, sometimes extra edges or none between some pairs, leaving genuine
// cross products), plus an occasional non-equi conjunct that lands in the
// residual condition. With `or_conjunct` the condition also carries an OR
// of two comparisons, which no plan can fuse into comparison leaves. The
// catalog holds random tuples over a small domain with multiplicities in
// [-3, 3] \ {0}.
RandomScenario MakeScenario(uint64_t seed, bool or_conjunct = false) {
  Random rng(seed);
  const size_t nrel = 2 + rng.Uniform(3);
  const int64_t domain = 3 + static_cast<int64_t>(rng.Uniform(4));

  RandomScenario s;
  std::vector<BaseRelationDef> defs;
  for (size_t r = 0; r < nrel; ++r) {
    const size_t arity = 2 + rng.Uniform(2);
    std::vector<std::string> names;
    for (size_t c = 0; c < arity; ++c) {
      names.push_back(Attr(r, c));
    }
    defs.push_back({StrCat("r", r), Schema::Ints(names)});
  }

  // Chain edges r_{i-1} ~ r_i, each dropped with probability 1/4 so some
  // scenarios need cross products; occasional extra edge or constant filter.
  Predicate cond = Predicate::True();
  for (size_t r = 1; r < nrel; ++r) {
    if (rng.Bernoulli(1, 4)) {
      continue;
    }
    const size_t lc = rng.Uniform(defs[r - 1].schema.size());
    const size_t rc = rng.Uniform(defs[r].schema.size());
    cond = Predicate::And(
        std::move(cond),
        Predicate::Compare(Operand::Attr(Attr(r - 1, lc)), CompareOp::kEq,
                           Operand::Attr(Attr(r, rc))));
  }
  if (rng.Bernoulli(1, 2)) {
    const size_t r = rng.Uniform(nrel);
    const size_t c = rng.Uniform(defs[r].schema.size());
    cond = Predicate::And(
        std::move(cond),
        Predicate::Compare(Operand::Attr(Attr(r, c)), CompareOp::kLe,
                           Operand::ConstInt(domain - 1 -
                                             rng.Uniform(domain))));
  }

  if (or_conjunct) {
    const size_t lr = rng.Uniform(nrel);
    const size_t rr = rng.Uniform(nrel);
    const size_t fr = rng.Uniform(nrel);
    cond = Predicate::And(
        std::move(cond),
        Predicate::Or(
            Predicate::Compare(
                Operand::Attr(Attr(lr, rng.Uniform(defs[lr].schema.size()))),
                CompareOp::kEq,
                Operand::Attr(Attr(rr, rng.Uniform(defs[rr].schema.size())))),
            Predicate::Compare(
                Operand::Attr(Attr(fr, rng.Uniform(defs[fr].schema.size()))),
                CompareOp::kGe, Operand::ConstInt(rng.Uniform(domain)))));
  }

  // Random projection: 1-3 attributes from anywhere in the combined schema.
  std::vector<std::string> projection;
  const size_t nproj = 1 + rng.Uniform(3);
  for (size_t k = 0; k < nproj; ++k) {
    const size_t r = rng.Uniform(nrel);
    projection.push_back(Attr(r, rng.Uniform(defs[r].schema.size())));
  }

  auto view = ViewDefinition::Create("V", defs, projection, std::move(cond));
  EXPECT_TRUE(view.ok()) << view.status();
  s.view = *view;

  for (size_t r = 0; r < nrel; ++r) {
    EXPECT_TRUE(s.catalog.Define(defs[r]).ok());
    Relation* stored = *s.catalog.GetMutable(defs[r].name);
    const size_t rows = 2 + rng.Uniform(7);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Value> vals;
      for (size_t c = 0; c < defs[r].schema.size(); ++c) {
        vals.emplace_back(rng.UniformRange(0, domain - 1));
      }
      int64_t count = rng.UniformRange(-3, 2);
      if (count >= 0) {
        ++count;  // skip zero: counts in [-3,-1] or [1,3]
      }
      stored->Insert(Tuple(std::move(vals)), count);
    }
    std::vector<Value> vals;
    for (size_t c = 0; c < defs[r].schema.size(); ++c) {
      vals.emplace_back(rng.UniformRange(0, domain - 1));
    }
    Tuple t(std::move(vals));
    s.updates.push_back(rng.Bernoulli(1, 2)
                            ? Update::Insert(defs[r].name, t)
                            : Update::Delete(defs[r].name, t));
  }
  return s;
}

void ExpectSameRelation(const Relation& fast, const Relation& naive,
                        const std::string& label) {
  ASSERT_EQ(fast.schema().size(), naive.schema().size()) << label;
  EXPECT_TRUE(fast == naive)
      << label << "\n  optimized: " << fast.ToString()
      << "\n  naive:     " << naive.ToString();
  // Belt and braces: identical sorted (tuple, multiplicity) sequences.
  EXPECT_EQ(fast.SortedEntries(), naive.SortedEntries()) << label;
}

TEST(DataPlaneDifferentialTest, UnsubstitutedTermsMatchNaive) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RandomScenario s = MakeScenario(seed);
    for (int coefficient : {+1, -1}) {
      Term term = Term::FromView(s.view);
      term.set_coefficient(coefficient);
      auto fast = EvaluateTerm(term, s.catalog);
      auto naive = EvaluateTermNaive(term, s.catalog);
      ASSERT_TRUE(fast.ok()) << fast.status();
      ASSERT_TRUE(naive.ok()) << naive.status();
      ExpectSameRelation(*fast, *naive,
                         "seed " + std::to_string(seed) + " coefficient " +
                             std::to_string(coefficient));
    }
  }
}

TEST(DataPlaneDifferentialTest, SubstitutedTermsMatchNaive) {
  for (uint64_t seed = 100; seed <= 140; ++seed) {
    RandomScenario s = MakeScenario(seed);
    // Single and double substitutions (bound operands, signed tuples),
    // including delete-substitutions whose bound multiplicity is -1.
    std::vector<Term> terms;
    for (const Update& u : s.updates) {
      auto t = Term::FromView(s.view).Substitute(u);
      if (t.has_value()) {
        terms.push_back(*std::move(t));
      }
    }
    if (s.updates.size() >= 2) {
      auto once = Term::FromView(s.view).Substitute(s.updates[0]);
      ASSERT_TRUE(once.has_value());
      auto twice = once->Substitute(s.updates[1]);
      if (twice.has_value()) {
        twice->set_coefficient(-1);
        terms.push_back(*std::move(twice));
      }
    }
    for (size_t i = 0; i < terms.size(); ++i) {
      auto fast = EvaluateTerm(terms[i], s.catalog);
      auto naive = EvaluateTermNaive(terms[i], s.catalog);
      ASSERT_TRUE(fast.ok()) << fast.status();
      ASSERT_TRUE(naive.ok()) << naive.status();
      ExpectSameRelation(*fast, *naive,
                         "seed " + std::to_string(seed) + " term " +
                             std::to_string(i) + ": " + terms[i].ToString());
    }
  }
}

TEST(DataPlaneDifferentialTest, ParallelQueryEvaluationMatchesSerial) {
  ASSERT_TRUE(kForceThreads);
  ASSERT_GE(ThreadPool::Shared().num_threads(), 2u)
      << "shared pool was initialized before WVM_THREADS took effect";
  for (uint64_t seed = 200; seed <= 220; ++seed) {
    RandomScenario s = MakeScenario(seed);
    Query query(/*id=*/seed, /*update_id=*/0, {});
    Term plain = Term::FromView(s.view);
    query.AddTerm(plain);
    for (const Update& u : s.updates) {
      auto t = Term::FromView(s.view).Substitute(u);
      if (t.has_value()) {
        t->set_coefficient(seed % 2 == 0 ? -1 : +1);
        query.AddTerm(*std::move(t));
      }
    }
    ASSERT_GE(query.terms().size(), 2u);

    // The serial reference is the same per-term evaluation, run inline.
    std::vector<Relation> serial;
    for (const Term& t : query.terms()) {
      auto part = EvaluateTerm(t, s.catalog);
      ASSERT_TRUE(part.ok()) << part.status();
      serial.push_back(*std::move(part));
    }
    auto parallel = EvaluateQueryPerTerm(query, s.catalog);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_EQ(parallel->size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectSameRelation((*parallel)[i], serial[i],
                         "seed " + std::to_string(seed) + " term " +
                             std::to_string(i));
    }

    auto sum = EvaluateQuery(query, s.catalog);
    ASSERT_TRUE(sum.ok()) << sum.status();
    Relation expected = serial[0];
    for (size_t i = 1; i < serial.size(); ++i) {
      expected.Add(serial[i]);
    }
    ExpectSameRelation(*sum, expected, "seed " + std::to_string(seed));
  }
}

// Empty catalogs: the view over nothing still flows through the compiled
// executor and yields the same (empty) Z-relation as the reference.
TEST(DataPlaneDifferentialTest, CompiledMatchesInterpretedOnEmptyCatalogs) {
  for (uint64_t seed = 300; seed <= 310; ++seed) {
    RandomScenario s = MakeScenario(seed);
    Catalog empty;
    for (const BaseRelationDef& def : s.view->relations()) {
      ASSERT_TRUE(empty.Define(def).ok());
    }
    Term term = Term::FromView(s.view);
    auto compiled = EvaluateTerm(term, empty);
    auto naive = EvaluateTermNaive(term, empty);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ASSERT_TRUE(naive.ok()) << naive.status();
    ExpectSameRelation(*compiled, *naive,
                       "seed " + std::to_string(seed) + " empty catalog");
    EXPECT_EQ(compiled->NumDistinct(), 0u);
  }
}

// The scenario's unsubstituted term (both coefficients), one singly-bound
// term per update, and a negated doubly-bound term.
std::vector<Term> MixedTerms(const RandomScenario& s) {
  std::vector<Term> terms;
  for (int coefficient : {+1, -1}) {
    Term t = Term::FromView(s.view);
    t.set_coefficient(coefficient);
    terms.push_back(std::move(t));
  }
  for (const Update& u : s.updates) {
    std::optional<Term> t = Term::FromView(s.view).Substitute(u);
    if (t.has_value()) {
      terms.push_back(*std::move(t));
    }
  }
  std::optional<Term> twice =
      Term::FromView(s.view).Substitute(s.updates[0])->Substitute(
          s.updates[1]);
  if (twice.has_value()) {
    twice->set_coefficient(-1);
    terms.push_back(*std::move(twice));
  }
  return terms;
}

// The scenario's catalog with every multiplicity made positive: stored
// relations hold one physical row per copy, so they cannot carry negative
// counts.
Catalog PositiveCatalog(const RandomScenario& s) {
  Catalog positive;
  for (const BaseRelationDef& def : s.view->relations()) {
    Relation rel(def.schema);
    for (const auto& [t, count] : (*s.catalog.Get(def.name))->entries()) {
      rel.Insert(t, count < 0 ? -count : count);
    }
    EXPECT_TRUE(positive.DefineWithData(def, std::move(rel)).ok());
  }
  return positive;
}

// Loads the positive catalog into a Source under each physical scenario
// (Scenario 1 with an index on every attribute, one of them clustered, so
// the planner weighs probes against scans) and compares every mixed term's
// physical answer with the naive reference over the same data.
void ExpectPhysicalMatchesNaive(uint64_t seed, const RandomScenario& s) {
  const Catalog positive = PositiveCatalog(s);
  Random index_rng(seed);
  std::vector<IndexSpec> indexes;
  for (const BaseRelationDef& def : s.view->relations()) {
    const size_t clustered = index_rng.Uniform(def.schema.size());
    for (size_t c = 0; c < def.schema.size(); ++c) {
      indexes.push_back(
          {def.name, def.schema.attribute(c).name, c == clustered});
    }
  }
  const std::vector<Term> terms = MixedTerms(s);
  for (PhysicalScenario scenario : {PhysicalScenario::kIndexedMemory,
                                    PhysicalScenario::kNestedLoopLimited}) {
    PhysicalConfig config;
    config.scenario = scenario;
    config.tuples_per_block = 2;
    Result<Source> source = Source::Create(
        positive, config,
        scenario == PhysicalScenario::kIndexedMemory ? indexes
                                                     : std::vector<IndexSpec>{});
    ASSERT_TRUE(source.ok()) << source.status();
    for (size_t i = 0; i < terms.size(); ++i) {
      const std::string label =
          StrCat("seed ", seed, " scenario ", static_cast<int>(scenario),
                 " term ", i, ": ", terms[i].ToString());
      IOStats io;
      Result<Relation> physical = EvaluateTermPhysical(
          terms[i], source->storage(), source->config(), &io);
      Result<Relation> naive = EvaluateTermNaive(terms[i], positive);
      ASSERT_TRUE(physical.ok()) << label << ": " << physical.status();
      ASSERT_TRUE(naive.ok()) << label << ": " << naive.status();
      ExpectSameRelation(*physical, *naive, label);
    }
  }
}

TEST(DataPlaneDifferentialTest, PhysicalTermsMatchNaive) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ExpectPhysicalMatchesNaive(seed, MakeScenario(seed));
  }
}

// Views whose condition carries an OR alongside equi-join edges: the plan
// joins along the edges and then falls back to walking the residual
// predicate per row, in the logical and the physical evaluator alike.
TEST(DataPlaneDifferentialTest, OrResidualTermsMatchNaive) {
  int with_edges = 0;
  for (uint64_t seed = 400; seed <= 440; ++seed) {
    RandomScenario s = MakeScenario(seed, /*or_conjunct=*/true);
    Result<std::shared_ptr<const CompiledDeltaPlan>> plan =
        s.view->CompiledPlanFor(0);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_TRUE((*plan)->uses_fallback_residual()) << "seed " << seed;
    with_edges += s.view->equi_edges().empty() ? 0 : 1;
    for (const Term& term : MixedTerms(s)) {
      auto compiled = EvaluateTerm(term, s.catalog);
      auto naive = EvaluateTermNaive(term, s.catalog);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      ASSERT_TRUE(naive.ok()) << naive.status();
      ExpectSameRelation(*compiled, *naive,
                         StrCat("seed ", seed, ": ", term.ToString()));
    }
    ExpectPhysicalMatchesNaive(seed, s);
  }
  EXPECT_GE(with_edges, 20) << "too few OR views also carry equi-join edges";
}

// An n-relation chain r0 - r1 - ... joined on a{r-1}1 = a{r}0, projecting
// the chain's two ends.
Result<ViewDefinitionPtr> ChainOf(size_t n) {
  std::vector<BaseRelationDef> defs;
  Predicate cond = Predicate::True();
  for (size_t r = 0; r < n; ++r) {
    defs.push_back({StrCat("r", r), Schema::Ints({Attr(r, 0), Attr(r, 1)})});
    if (r > 0) {
      cond = Predicate::And(std::move(cond),
                            Predicate::Compare(Operand::Attr(Attr(r - 1, 1)),
                                               CompareOp::kEq,
                                               Operand::Attr(Attr(r, 0))));
    }
  }
  return ViewDefinition::Create("Wide", std::move(defs),
                                {Attr(0, 0), Attr(n - 1, 1)}, std::move(cond));
}

// The widest view a plan's bound mask can describe. Relation r holds
// (r, r+1), which joins its neighbours; the two ends also hold (r, r+2), so
// the naive cross product stays at four rows.
TEST(DataPlaneWideViewTest, SixtyFourRelationChainMatchesNaiveAndPrewarms) {
  constexpr size_t kN = ViewDefinition::kMaxRelations;
  Result<ViewDefinitionPtr> view = ChainOf(kN);
  ASSERT_TRUE(view.ok()) << view.status();
  Catalog catalog;
  for (size_t r = 0; r < kN; ++r) {
    const BaseRelationDef& def = (*view)->relations()[r];
    const int64_t v = static_cast<int64_t>(r);
    Relation rel(def.schema);
    rel.Insert(Tuple::Ints({v, v + 1}));
    if (r == 0 || r == kN - 1) {
      rel.Insert(Tuple::Ints({v, v + 2}));
    }
    ASSERT_TRUE(catalog.DefineWithData(def, std::move(rel)).ok());
  }

  const int64_t last = static_cast<int64_t>(kN - 1);
  Term full = Term::FromView(*view);
  Term delta = *full.Substitute(
      Update::Delete(StrCat("r", last), Tuple::Ints({last, last + 1})));
  for (const Term& term : {full, delta}) {
    auto compiled = EvaluateTerm(term, catalog);
    auto naive = EvaluateTermNaive(term, catalog);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ASSERT_TRUE(naive.ok()) << naive.status();
    ExpectSameRelation(*compiled, *naive, term.ToString());
    EXPECT_FALSE(compiled->IsEmpty());
  }

  EXPECT_FALSE((*view)->HasCompiledPlanFor(~uint64_t{0}));
  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.push_back(std::make_unique<Eca>(*view));
  MultiViewWarehouse multi(std::move(children));
  ASSERT_TRUE(multi.Initialize(catalog).ok());
  EXPECT_TRUE((*view)->HasCompiledPlanFor(~uint64_t{0}))
      << "the all-bound mask of a 64-relation view is every bit";
}

TEST(DataPlaneWideViewTest, SixtyFiveRelationsAreRejected) {
  Result<ViewDefinitionPtr> view = ChainOf(ViewDefinition::kMaxRelations + 1);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument)
      << view.status();
}

TEST(DataPlaneDifferentialTest, WithSchemaSharesUntilMutation) {
  Relation base(Schema::Ints({"A", "B"}));
  base.Insert(Tuple::Ints({1, 2}), 2);
  base.Insert(Tuple::Ints({3, 4}), -1);

  Relation view = base.WithSchema(Schema::Ints({"r.A", "r.B"}));
  EXPECT_EQ(view.CountOf(Tuple::Ints({1, 2})), 2);
  EXPECT_EQ(view.CountOf(Tuple::Ints({3, 4})), -1);
  EXPECT_EQ(view.schema().attribute(0).name, "r.A");

  // Mutating the relabeled copy must not leak into the original.
  view.Insert(Tuple::Ints({5, 6}), 1);
  EXPECT_EQ(view.CountOf(Tuple::Ints({5, 6})), 1);
  EXPECT_EQ(base.CountOf(Tuple::Ints({5, 6})), 0);

  // And vice versa.
  Relation again = base.WithSchema(Schema::Ints({"s.A", "s.B"}));
  base.Insert(Tuple::Ints({7, 8}), 1);
  EXPECT_EQ(again.CountOf(Tuple::Ints({7, 8})), 0);
  EXPECT_EQ(base.CountOf(Tuple::Ints({7, 8})), 1);
}

TEST(DataPlaneDifferentialTest, DerivedTupleHashesMatchRecomputation) {
  Random rng(7);
  for (int round = 0; round < 200; ++round) {
    std::vector<Value> a_vals;
    std::vector<Value> b_vals;
    const size_t an = 1 + rng.Uniform(3);
    const size_t bn = 1 + rng.Uniform(3);
    for (size_t i = 0; i < an; ++i) {
      a_vals.emplace_back(rng.UniformRange(-5, 5));
    }
    for (size_t i = 0; i < bn; ++i) {
      b_vals.emplace_back(rng.UniformRange(-5, 5));
    }
    Tuple a(a_vals);
    Tuple b(b_vals);
    a.Hash();  // prime the memo so Concat takes the hash-extension path

    std::vector<size_t> proj;
    for (size_t i = 0; i < bn; ++i) {
      if (rng.Bernoulli(1, 2)) {
        proj.push_back(i);
      }
    }

    const Tuple concat = a.Concat(b);
    const Tuple concat_proj = a.ConcatProjected(b, proj);
    // A value-identical tuple built from scratch has a cold hash cache;
    // equal tuples must hash equally regardless of how they were built.
    EXPECT_EQ(concat.Hash(), Tuple(concat.values()).Hash());
    EXPECT_EQ(concat_proj.Hash(), Tuple(concat_proj.values()).Hash());
    EXPECT_EQ(concat_proj, a.Concat(b.Project(proj)));
  }
}

// The (tuple, count) sequence a map iterates in.
std::vector<std::pair<Tuple, int64_t>> Entries(const FlatCountsMap& m) {
  return {m.begin(), m.end()};
}

// A copy of a counts map must iterate exactly like a fresh map of the same
// size that the source's entries are re-placed into in the source's order —
// the workload generator picks deletes by position in that order. Sources
// come from random inserts and deletes, half of them first re-placed into a
// map sized for their entries, as a checkpoint's clone is, so that many
// copies keep the source's capacity; a cluster of entries that wraps past
// the last slot is common among those.
TEST(DataPlaneDifferentialTest, CountsMapCopyIteratesLikeReplacement) {
  Random rng(21);
  int same_capacity = 0;
  int copies = 0;
  for (int map = 0; map < 2000; ++map) {
    SCOPED_TRACE(StrCat("map ", map));
    const size_t target = 1 + rng.Uniform(rng.Bernoulli(1, 5) ? 5000 : 300);
    const int64_t domain = static_cast<int64_t>(4 * target);
    FlatCountsMap source;
    std::vector<Tuple> live;  // the source's tuples, in no particular order
    // Random inserts, a repeat moving its count away from zero, and
    // deletes of a live tuple.
    auto churn = [&](size_t steps) {
      for (size_t step = 0; step < steps; ++step) {
        if (!live.empty() && rng.Bernoulli(1, 4)) {
          const size_t i = rng.Uniform(live.size());
          source.AddCount(live[i], -source.find(live[i])->second);
          live[i] = std::move(live.back());
          live.pop_back();
          continue;
        }
        const Tuple t =
            Tuple::Ints({rng.UniformRange(0, domain), rng.UniformRange(0, 3)});
        const auto it = source.find(t);
        if (it == source.end()) {
          live.push_back(t);
          source.AddCount(t, rng.Bernoulli(1, 2) ? 1 : -1);
        } else {
          source.AddCount(t, it->second > 0 ? 1 : -1);
        }
      }
    };
    churn(2 * target);
    if (rng.Bernoulli(1, 2)) {
      FlatCountsMap fitted;
      fitted.reserve(source.size());
      for (const auto& [t, c] : source) {
        fitted.EmplaceUnique(t, c);
      }
      source = std::move(fitted);
      churn(rng.Uniform(1 + target / 10));
    }
    ASSERT_EQ(source.size(), live.size());
    const std::vector<std::pair<Tuple, int64_t>> before = Entries(source);
    for (const size_t hint : {size_t{0}, size_t{1}, size_t{7}, source.size()}) {
      const FlatCountsMap copy(source, hint);
      FlatCountsMap replaced;
      replaced.reserve(source.size() + hint);
      for (const auto& [t, c] : source) {
        replaced.EmplaceUnique(t, c);
      }
      ++copies;
      same_capacity += static_cast<int>(copy.capacity() == source.capacity());
      ASSERT_EQ(copy.capacity(), replaced.capacity()) << "hint " << hint;
      ASSERT_EQ(Entries(copy), Entries(replaced)) << "hint " << hint;
    }
    ASSERT_EQ(Entries(source), before) << "copying changed the source";
  }
  // Both copy paths ran often.
  EXPECT_GT(same_capacity, copies / 4);
  EXPECT_LT(same_capacity, copies * 3 / 4);
}

}  // namespace
}  // namespace wvm
