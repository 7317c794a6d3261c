// Tuple as a handle to a shared immutable row: copies share the row, moves
// empty their source, and every hash, equality and order is the one a plain
// value vector gives — so relation layouts and iteration orders do not
// depend on how a tuple was built or copied. The stress suite copies and
// drops one relation's tuples from many pool workers at once (run under
// TSan in CI).
#include "relational/tuple.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "query/catalog.h"

namespace wvm {
namespace {

// The specification: a left fold of value hashes from kTupleHashSeed.
size_t ReferenceHash(const std::vector<Value>& values) {
  size_t h = kTupleHashSeed;
  for (const Value& v : values) {
    h = TupleHashFold(h, v.Hash());
  }
  return h;
}

// Small domains so that equal values, equal prefixes and empty tuples are
// common. Strings come short (inline in std::string) and long (on the heap).
Value RandomValue(Random* rng) {
  const char c = static_cast<char>('a' + rng->Uniform(2));
  switch (rng->Uniform(4)) {
    case 0:
      return Value(rng->UniformRange(-2, 2));
    case 1:
      return Value(static_cast<double>(rng->UniformRange(-2, 2)) / 2);
    case 2:
      return Value(std::string(rng->Uniform(3), c));
    default:
      return Value(std::string(24 + rng->Uniform(2), c));
  }
}

std::vector<Value> RandomValues(Random* rng) {
  std::vector<Value> values(rng->Uniform(4));
  for (Value& v : values) {
    v = RandomValue(rng);
  }
  return values;
}

std::vector<Value> ValuesOf(const Tuple& t) {
  return std::vector<Value>(t.values().begin(), t.values().end());
}

TEST(TupleHandleTest, CopiesShareOneRow) {
  const std::vector<Value> values = {Value(int64_t{1}),
                                     Value("a string longer than SSO holds")};
  const Tuple a(values);
  const Tuple b = a;
  Tuple c;
  c = b;
  EXPECT_EQ(a.values().data(), b.values().data());
  EXPECT_EQ(a.values().data(), c.values().data());
  EXPECT_EQ(&a.value(1).AsString(), &c.value(1).AsString());
  // An equal tuple built on its own is equal but has a row of its own.
  const Tuple d(values);
  EXPECT_EQ(a, d);
  EXPECT_NE(a.values().data(), d.values().data());
  // A copy of a hashed tuple shares the memo.
  (void)a.Hash();
  EXPECT_TRUE(c.hash_cached());
  EXPECT_FALSE(d.hash_cached());
}

TEST(TupleHandleTest, MovedFromTupleIsEmpty) {
  Tuple a = Tuple::Ints({1, 2});
  const Value* row = a.values().data();
  Tuple b = std::move(a);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a, Tuple());
  EXPECT_EQ(b.values().data(), row);

  Tuple c = Tuple::Ints({3});
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c, Tuple::Ints({1, 2}));
  EXPECT_EQ(c.values().data(), row);

  // A moved-from tuple is an ordinary empty value again.
  b = c;
  EXPECT_EQ(b, c);
  EXPECT_EQ(b.values().data(), row);
}

TEST(TupleHandleTest, SelfAssignmentAndSelfMoveAreSafe) {
  Tuple a = Tuple::Ints({4, 5});
  Tuple& alias = a;
  a = alias;
  EXPECT_EQ(a, Tuple::Ints({4, 5}));
  a = std::move(alias);
  EXPECT_EQ(a, Tuple::Ints({4, 5}));
  EXPECT_EQ(a.ToString(), "[4,5]");

  Tuple empty;
  Tuple& empty_alias = empty;
  empty = empty_alias;
  empty = std::move(empty_alias);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(TupleHandleTest, EmptyTupleHashesToTheSeed) {
  EXPECT_EQ(Tuple().Hash(), kTupleHashSeed);
  EXPECT_EQ(Tuple(std::vector<Value>{}).Hash(), kTupleHashSeed);
  EXPECT_EQ(Tuple::Ints({}).Hash(), kTupleHashSeed);
  EXPECT_EQ(Tuple::Ints({7}).Project({}).Hash(), kTupleHashSeed);
  EXPECT_EQ(Tuple(), Tuple::Ints({}));
  EXPECT_FALSE(Tuple() < Tuple::Ints({}));
  EXPECT_TRUE(Tuple() < Tuple::Ints({0}));
  EXPECT_EQ(Tuple().ToString(), "[]");
  EXPECT_EQ(Tuple().ByteWidth(), 0);
  EXPECT_TRUE(Tuple().values().empty());
}

TEST(TupleHandleTest, HashEqualityAndOrderMatchAValueVector) {
  Random rng(42);
  for (int i = 0; i < 3000; ++i) {
    const std::vector<Value> va = RandomValues(&rng);
    const std::vector<Value> vb =
        rng.Bernoulli(1, 4) ? va : RandomValues(&rng);
    const Tuple a(va);                      // copies the values in
    const Tuple b{std::vector<Value>(vb)};  // moves them in
    ASSERT_EQ(ValuesOf(a), va);
    ASSERT_EQ(ValuesOf(b), vb);
    EXPECT_EQ(a.Hash(), ReferenceHash(va));
    EXPECT_EQ(b.Hash(), ReferenceHash(vb));
    EXPECT_EQ(a == b, va == vb);
    EXPECT_EQ(a != b, va != vb);
    EXPECT_EQ(a < b, va < vb);
    EXPECT_EQ(b < a, vb < va);
    int width = 0;
    for (const Value& v : va) {
      width += v.ByteWidth();
    }
    EXPECT_EQ(a.ByteWidth(), width);
  }
}

TEST(TupleHandleTest, ConcatAndConcatProjectedHandBackWarmHashes) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::vector<Value> va = RandomValues(&rng);
    const std::vector<Value> vb = RandomValues(&rng);
    std::vector<size_t> proj;
    for (size_t k = vb.empty() ? 0 : rng.Uniform(4); k > 0; --k) {
      proj.push_back(rng.Uniform(vb.size()));
    }
    const Tuple a(va);
    const Tuple b(vb);
    (void)a.Hash();  // warm the left operand only

    std::vector<Value> vc = va;
    vc.insert(vc.end(), vb.begin(), vb.end());
    const Tuple c = a.Concat(b);
    EXPECT_TRUE(c.hash_cached());
    EXPECT_EQ(ValuesOf(c), vc);
    EXPECT_EQ(c.Hash(), ReferenceHash(vc));

    std::vector<Value> vp = va;
    for (size_t col : proj) {
      vp.push_back(vb[col]);
    }
    const Tuple p = a.ConcatProjected(b, proj);
    EXPECT_TRUE(p.hash_cached());
    EXPECT_EQ(ValuesOf(p), vp);
    EXPECT_EQ(p.Hash(), ReferenceHash(vp));
    EXPECT_EQ(p, a.Concat(b.Project(proj)));
  }
}

// Pool workers copy, overwrite, hash and drop handles to the rows of one
// catalog relation, plus a set of never-hashed rows, all at once. Any
// non-atomic count or memo would show up as a TSan report, a double free
// under ASan, or a corrupted row below.
TEST(TupleRefcountStressTest, WorkersCopyAndDropSharedCatalogTuples) {
  constexpr int64_t kRows = 256;
  const BaseRelationDef def{"r", Schema::Ints({"a", "b"})};
  Relation data(def.schema);
  std::vector<Tuple> cold;
  for (int64_t i = 0; i < kRows; ++i) {
    data.Insert(Tuple::Ints({i, 7 * i}));
    cold.push_back(Tuple::Ints({-i, i}));
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.DefineWithData(def, std::move(data)).ok());
  const Relation* r = *catalog.Get("r");
  std::vector<const Tuple*> shared;
  for (const auto& [t, count] : r->entries()) {
    shared.push_back(&t);
  }

  constexpr size_t kTasks = 16;
  std::vector<int64_t> mismatches(kTasks, 0);
  ParallelFor(kTasks, [&](size_t task) {
    Random rng(task + 1);
    std::vector<Tuple> held;
    Relation local(def.schema);
    for (int step = 0; step < 4000; ++step) {
      const Tuple& t = rng.Bernoulli(1, 2) ? *shared[rng.Uniform(kRows)]
                                           : cold[rng.Uniform(kRows)];
      switch (rng.Uniform(4)) {
        case 0:
          held.push_back(t);
          break;
        case 1:
          if (!held.empty()) {
            held[rng.Uniform(held.size())] = t;
          }
          break;
        case 2:
          if (!held.empty()) {
            held.pop_back();
          }
          break;
        default:
          local.Insert(t);
          break;
      }
      const int64_t a = t.value(0).AsInt();
      const int64_t b = t.value(1).AsInt();
      mismatches[task] += (b != 7 * a && b != -a) ? 1 : 0;
      mismatches[task] += t.Hash() == ReferenceHash(ValuesOf(t)) ? 0 : 1;
    }
    Relation copy = local;  // shares, then the insert clones the handles
    copy.Insert(Tuple::Ints({kRows, 0}));
  });
  for (size_t task = 0; task < kTasks; ++task) {
    EXPECT_EQ(mismatches[task], 0) << "task " << task;
  }
  ASSERT_EQ(r->NumDistinct(), static_cast<size_t>(kRows));
  for (int64_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(r->CountOf(Tuple::Ints({i, 7 * i})), 1);
    EXPECT_EQ(cold[i], Tuple::Ints({-i, i}));
  }
}

}  // namespace
}  // namespace wvm
