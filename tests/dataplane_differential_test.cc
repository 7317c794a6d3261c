// Randomized differential tests for the data-plane kernels: the optimized
// term evaluator (greedy equi-join order, build-side join index, cached
// tuple hashes, flat counts map, residual condition) must agree exactly —
// as Z-relations, multiplicities included — with the naive
// cross-product/select/project reference on randomized views, catalogs with
// negative multiplicities, substituted (bound) operands, and both term
// coefficients. Parallel per-term query evaluation must agree with the
// serial per-term loop.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "query/catalog.h"
#include "query/compiled_plan.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "query/term.h"
#include "query/view_def.h"
#include "relational/relation.h"

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
// residual condition. The catalog holds random tuples over a small domain
// with multiplicities in [-3, 3] \ {0}.
RandomScenario MakeScenario(uint64_t seed) {
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

// The compiled-plan executor is a second data plane over the same logical
// terms; it must agree with the interpreted evaluator (itself differential
// against the naive reference above) on the same randomized scenarios —
// unsubstituted terms, both coefficients, and signed substitutions.
TEST(DataPlaneDifferentialTest, CompiledMatchesInterpretedUnsubstituted) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RandomScenario s = MakeScenario(seed);
    for (int coefficient : {+1, -1}) {
      Term term = Term::FromView(s.view);
      term.set_coefficient(coefficient);
      auto compiled = EvaluateTermCompiled(term, s.catalog);
      auto interpreted = EvaluateTermInterpreted(term, s.catalog);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      ASSERT_TRUE(interpreted.ok()) << interpreted.status();
      ExpectSameRelation(*compiled, *interpreted,
                         "seed " + std::to_string(seed) + " coefficient " +
                             std::to_string(coefficient));
    }
  }
}

TEST(DataPlaneDifferentialTest, CompiledMatchesInterpretedSubstituted) {
  for (uint64_t seed = 100; seed <= 140; ++seed) {
    RandomScenario s = MakeScenario(seed);
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
      auto compiled = EvaluateTermCompiled(terms[i], s.catalog);
      auto interpreted = EvaluateTermInterpreted(terms[i], s.catalog);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      ASSERT_TRUE(interpreted.ok()) << interpreted.status();
      ExpectSameRelation(*compiled, *interpreted,
                         "seed " + std::to_string(seed) + " term " +
                             std::to_string(i) + ": " + terms[i].ToString());
    }
  }
}

// Empty deltas: an update that matches nothing still flows through both
// executors and yields the same (empty) Z-relation.
TEST(DataPlaneDifferentialTest, CompiledMatchesInterpretedOnEmptyCatalogs) {
  for (uint64_t seed = 300; seed <= 310; ++seed) {
    RandomScenario s = MakeScenario(seed);
    Catalog empty;
    for (const BaseRelationDef& def : s.view->relations()) {
      ASSERT_TRUE(empty.Define(def).ok());
    }
    Term term = Term::FromView(s.view);
    auto compiled = EvaluateTermCompiled(term, empty);
    auto interpreted = EvaluateTermInterpreted(term, empty);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ASSERT_TRUE(interpreted.ok()) << interpreted.status();
    ExpectSameRelation(*compiled, *interpreted,
                       "seed " + std::to_string(seed) + " empty catalog");
    EXPECT_EQ(compiled->NumDistinct(), 0u);
  }
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

}  // namespace
}  // namespace wvm
