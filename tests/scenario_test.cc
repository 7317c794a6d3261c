// Tests for the scenario text format and its runner.
#include "script/scenario_parser.h"

#include <gtest/gtest.h>

#include "script/scenario_runner.h"

namespace wvm {
namespace {

constexpr char kAnomalyScenario[] = R"(
# Example 2 of the paper
relation r1 W:int X:int
relation r2 X:int Y:int
tuple r1 1 2
view V project W
algorithm basic
order worst
update insert r2 2 3
update insert r1 4 2
expect-final [1] [4] [4]
)";

TEST(ScenarioParserTest, ParsesTheFullGrammar) {
  Result<ScenarioSpec> spec = ParseScenario(kAnomalyScenario);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->defs.size(), 2u);
  EXPECT_EQ(spec->algorithm, Algorithm::kBasic);
  EXPECT_EQ(spec->order, ScenarioSpec::Order::kWorst);
  EXPECT_EQ(spec->batches.size(), 2u);
  ASSERT_TRUE(spec->expected_final.has_value());
  EXPECT_EQ(spec->expected_final->TotalPositive(), 3);
  EXPECT_EQ(spec->initial.Get("r1").value()->TotalPositive(), 1);
}

TEST(ScenarioParserTest, KeysAndConditions) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
relation r1 W:int:key X:int
relation r2 X:int Y:int:key
view V project W Y where W > 2 and Y != 9
update insert r1 3 1
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_TRUE(spec->view->KeysProjected());
  EXPECT_NE(spec->view->cond().ToString().find("W > 2"), std::string::npos);
  EXPECT_NE(spec->view->cond().ToString().find("Y != 9"), std::string::npos);
}

TEST(ScenarioParserTest, BatchesSplitOnPipes) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
relation r1 W:int X:int
view V project W
batch delete r1 1 2 | insert r1 1 9
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->batches.size(), 1u);
  ASSERT_EQ(spec->batches[0].size(), 2u);
  EXPECT_EQ(spec->batches[0][0].kind, UpdateKind::kDelete);
  EXPECT_EQ(spec->batches[0][1].kind, UpdateKind::kInsert);
}

TEST(ScenarioParserTest, RandomOrderWithSeed) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
relation r1 W:int
view V project W
order random 99
)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->order, ScenarioSpec::Order::kRandom);
  EXPECT_EQ(spec->seed, 99u);
}

TEST(ScenarioParserTest, ErrorsCarryLineNumbers) {
  Result<ScenarioSpec> bad = ParseScenario(R"(
relation r1 W:int
view V project W
frobnicate everything
)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 4"), std::string::npos);
}

TEST(ScenarioParserTest, RejectsBadInputs) {
  EXPECT_FALSE(ParseScenario("view V project W\n").ok());  // no relations
  EXPECT_FALSE(ParseScenario("relation r1 W\n").ok());  // missing type
  EXPECT_FALSE(
      ParseScenario("relation r1 W:blob\nview V project W\n").ok());
  EXPECT_FALSE(ParseScenario("relation r1 W:int\n").ok());  // no view
  EXPECT_FALSE(ParseScenario(R"(
relation r1 W:int
view V project W
update insert r2 1
)")
                   .ok());  // unknown relation in update
  EXPECT_FALSE(ParseScenario(R"(
relation r1 W:int X:int
view V project W
update insert r1 1
)")
                   .ok());  // arity mismatch
  EXPECT_FALSE(ParseScenario(R"(
relation r1 W:int
view V project W where W >>> 3
)")
                   .ok());  // bad operator
  EXPECT_FALSE(ParseScenario(R"(
relation r1 W:int
view V project W
algorithm quantum
)")
                   .ok());
}

// A malformed number is refused with InvalidArgument naming its line, not
// read as its leading digits, a saturated value or zero. Each bad line has
// a well-formed twin that parses.
TEST(ScenarioParserTest, RejectsMalformedNumbers) {
  struct Case {
    const char* bad;
    const char* good;
  };
  const Case cases[] = {
      {"tuple r1 99999999999999999999 1", "tuple r1 9223372036854775807 1"},
      {"tuple r1 -99999999999999999999 1", "tuple r1 -9223372036854775808 1"},
      {"tuple r1 3abc 1", "tuple r1 3 1"},
      {"update insert r1 1 2x", "update insert r1 1 2"},
      {"view V project W where W > 3abc", "view V project W where W > 3"},
      {"view V project W where -7x < W", "view V project W where -7 < W"},
      {"view V project W where W > 99999999999999999999",
       "view V project W where W > 9223372036854775807"},
      {"rv-period abc", "rv-period 4"},
      {"rv-period 0", "rv-period 1"},
      {"rv-period 3000000000", "rv-period 2147483647"},
      {"order random x7", "order random 7"},
      {"order random -1", "order random 0"},
      {"expect-final [1x]", "expect-final [1]"},
  };
  const std::string header = "relation r1 W:int X:int\nview V project W\n";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.bad);
    Result<ScenarioSpec> bad = ParseScenario(header + c.bad + "\n");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bad.status().message().find("line 3: "), std::string::npos)
        << bad.status();
    Result<ScenarioSpec> good = ParseScenario(header + c.good + "\n");
    EXPECT_TRUE(good.ok()) << c.good << ": " << good.status();
  }
}

TEST(ScenarioParserTest, RelationsAfterViewRejected) {
  EXPECT_FALSE(ParseScenario(R"(
relation r1 W:int
view V project W
relation r2 X:int
)")
                   .ok());
}

TEST(ScenarioRunnerTest, ReproducesTheAnomaly) {
  Result<ScenarioSpec> spec = ParseScenario(kAnomalyScenario);
  ASSERT_TRUE(spec.ok());
  Result<ScenarioOutcome> outcome = RunScenario(*spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->expectation_met.has_value());
  EXPECT_TRUE(*outcome->expectation_met);
  EXPECT_FALSE(outcome->consistency.convergent);
  EXPECT_NE(outcome->trace.find("insert(r2,[2,3])"), std::string::npos);
}

TEST(ScenarioRunnerTest, SwappingAlgorithmRepairsTheAnomaly) {
  Result<ScenarioSpec> spec = ParseScenario(kAnomalyScenario);
  ASSERT_TRUE(spec.ok());
  spec->algorithm = Algorithm::kEca;
  spec->expected_final.reset();
  Result<ScenarioOutcome> outcome = RunScenario(*spec);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->consistency.strongly_consistent);
  EXPECT_EQ(outcome->final_view, outcome->source_view);
}

TEST(ScenarioRunnerTest, ReplicateRunsEcaSc) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
relation r1 W:int X:int
relation r2 X:int Y:int
tuple r1 1 2
tuple r2 2 3
view V project W Y
replicate r2
order worst
update insert r1 7 2
update insert r2 2 9
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->replicated, std::set<std::string>{"r2"});
  Result<ScenarioOutcome> outcome = RunScenario(*spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->consistency.strongly_consistent)
      << outcome->consistency.ToString();
  EXPECT_EQ(outcome->final_view, outcome->source_view);
}

TEST(ScenarioRunnerTest, ReplicateRejectsNonEcaAlgorithms) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
relation r1 W:int
view V project W
algorithm lca
replicate r1
)");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(RunScenario(*spec).ok());
}

TEST(ScenarioRunnerTest, StringTypedColumns) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
relation users id:int:key name:string
tuple users 1 ada
tuple users 2 grace
view V project id name
algorithm eca
update delete users 1 ada
update insert users 3 edsger
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  Result<ScenarioOutcome> outcome = RunScenario(*spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->consistency.strongly_consistent)
      << outcome->consistency.ToString();
  EXPECT_EQ(outcome->final_view.TotalPositive(), 2);
}

}  // namespace
}  // namespace wvm
