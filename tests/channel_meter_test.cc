// Unit tests for messages, the cost meter, the algorithm factory, and the
// small common utilities (deterministic RNG, string helpers).
#include <gtest/gtest.h>

#include "channel/cost_meter.h"
#include "channel/message.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/factory.h"
#include "query/view_def.h"

namespace wvm {
namespace {

// --- Messages -----------------------------------------------------------------

AnswerMessage MakeAnswer() {
  AnswerMessage a;
  a.query_id = 3;
  a.update_id = 2;
  Relation part1(Schema::Ints({"W"}));
  part1.Insert(Tuple::Ints({1}), 2);
  Relation part2(Schema::Ints({"W"}));
  part2.Insert(Tuple::Ints({1}), -1);
  part2.Insert(Tuple::Ints({4}), 1);
  a.term_delta_tags = {1, 2};
  a.per_term = {part1, part2};
  return a;
}

TEST(MessageTest, AnswerSumCombinesTerms) {
  AnswerMessage a = MakeAnswer();
  Relation sum = a.Sum();
  EXPECT_EQ(sum.CountOf(Tuple::Ints({1})), 1);
  EXPECT_EQ(sum.CountOf(Tuple::Ints({4})), 1);
}

TEST(MessageTest, AnswerByteSizeSumsPerTerm) {
  AnswerMessage a = MakeAnswer();
  // Per-term absolute tuples: 2 + 2 = 4; schema width 4 bytes.
  EXPECT_EQ(a.ByteSize(), 4 * 4);
  // Fixed S override.
  EXPECT_EQ(a.ByteSize(10), 4 * 10);
  // Appendix D's point: term costs ADD even when tuples cancel in the sum.
  EXPECT_EQ(a.Sum().TotalAbsolute(), 2);
}

TEST(MessageTest, NotificationToString) {
  UpdateNotification n{Update::Insert("r1", Tuple::Ints({1, 2}))};
  EXPECT_EQ(n.ToString(), "notify(insert(r1,[1,2]))");
  BatchNotification b{{Update::Insert("r1", Tuple::Ints({1, 2})),
                       Update::Delete("r1", Tuple::Ints({1, 2}))}};
  EXPECT_NE(b.ToString().find("; delete(r1,[1,2])"), std::string::npos);
}

TEST(MessageTest, SourceMessageVariantPrinting) {
  SourceMessage m = MakeAnswer();
  EXPECT_NE(SourceMessageToString(m).find("A3 = "), std::string::npos);
  SourceMessage n = UpdateNotification{Update::Delete("r", Tuple::Ints({1}))};
  EXPECT_NE(SourceMessageToString(n).find("notify"), std::string::npos);
}

// --- Cost meter -----------------------------------------------------------------

TEST(CostMeterTest, CountsPerPaperRules) {
  CostMeter meter(/*bytes_per_tuple=*/4);
  meter.RecordNotification();
  ViewDefinitionPtr view = *ViewDefinition::NaturalJoin(
      "V",
      {{"r1", Schema::Ints({"W", "X"})}, {"r2", Schema::Ints({"X", "Y"})}},
      {"W"});
  Query q(1, 1, {Term::FromView(view), Term::FromView(view).Negated()});
  meter.RecordQuery(QueryMessage{q});
  meter.RecordAnswer(MakeAnswer());

  // A multi-term signed query is ONE message (footnote 2); notifications
  // are excluded from M.
  EXPECT_EQ(meter.messages(), 2);
  EXPECT_EQ(meter.query_messages(), 1);
  EXPECT_EQ(meter.answer_messages(), 1);
  EXPECT_EQ(meter.notifications(), 1);
  EXPECT_EQ(meter.query_terms(), 2);
  EXPECT_EQ(meter.answer_tuples(), 4);
  EXPECT_EQ(meter.bytes_transferred(), 16);
}

TEST(CostMeterTest, ResetPreservesByteConfiguration) {
  CostMeter meter(7);
  meter.RecordAnswer(MakeAnswer());
  meter.Reset();
  EXPECT_EQ(meter.messages(), 0);
  meter.RecordAnswer(MakeAnswer());
  EXPECT_EQ(meter.bytes_transferred(), 4 * 7);
}

TEST(CostMeterTest, ToStringSummarizes) {
  CostMeter meter;
  meter.RecordAnswer(MakeAnswer());
  EXPECT_NE(meter.ToString().find("B="), std::string::npos);
}

// --- Factory ---------------------------------------------------------------------

TEST(FactoryTest, EveryAlgorithmConstructsAndRoundTripsItsName) {
  ViewDefinitionPtr view = *ViewDefinition::NaturalJoin(
      "V",
      {{"r1", Schema::Ints({"W", "X"})}, {"r2", Schema::Ints({"X", "Y"})}},
      {"W"});
  for (Algorithm a : AllAlgorithms()) {
    Result<std::unique_ptr<ViewMaintainer>> m =
        MakeMaintainer({.algorithm = a}, view);
    ASSERT_TRUE(m.ok()) << AlgorithmName(a);
    Result<Algorithm> parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(a);
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_EQ(ParseAlgorithm("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(AllAlgorithms().size(), 11u);
}

TEST(FactoryTest, RvPeriodIsWiredThrough) {
  ViewDefinitionPtr view = *ViewDefinition::NaturalJoin(
      "V", {{"r1", Schema::Ints({"W"})}}, {"W"});
  Result<std::unique_ptr<ViewMaintainer>> m =
      MakeMaintainer({.algorithm = Algorithm::kRv, .rv_period = 7}, view);
  ASSERT_TRUE(m.ok());
  EXPECT_NE((*m)->name().find("s=7"), std::string::npos);
}

// --- Common utilities --------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, UniformRespectsBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    int64_t r = rng.UniformRange(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
  }
}

TEST(RandomTest, BernoulliHitsRoughRate) {
  Random rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(1, 4);
  }
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 3000);
}

TEST(StringsTest, JoinAndStrCat) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(StrCat("x=", 3, ", y=", 2.5), "x=3, y=2.5");
}

}  // namespace
}  // namespace wvm
