#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include "exp/params.hpp"

namespace egoist::exp {
namespace {

TEST(ScenarioParseTest, KeyValueLinesWithCommentsAndBlanks) {
  const auto spec = parse_scenario_text(
      "# a figure\n"
      "experiment = fig2_churn\n"
      "\n"
      "n = 50   # overlay size\n"
      "  seed=7\n",
      "test");
  EXPECT_EQ(spec.name, "test");
  EXPECT_EQ(spec.experiment, "fig2_churn");
  ASSERT_NE(spec.find("n"), nullptr);
  EXPECT_EQ(*spec.find("n"), "50");
  ASSERT_NE(spec.find("seed"), nullptr);
  EXPECT_EQ(*spec.find("seed"), "7");
  EXPECT_EQ(spec.find("missing"), nullptr);
}

TEST(ScenarioParseTest, RejectsMalformedLineAndMissingExperiment) {
  EXPECT_THROW(parse_scenario_text("experiment = x\nnonsense line\n", "t"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_text("= 5\nexperiment = x\n", "t"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_text("n = 50\n", "t"), std::invalid_argument);
}

TEST(ScenarioParseTest, EmptyValueAllowed) {
  const auto spec = parse_scenario_text("experiment = x\njson =\n", "t");
  ASSERT_NE(spec.find("json"), nullptr);
  EXPECT_EQ(*spec.find("json"), "");
}

TEST(ScenarioSpecTest, SetOverridesAndSweepPrefixDeclaresAxis) {
  ScenarioSpec spec;
  spec.set("experiment", "steady_state");
  spec.set("n", "50");
  spec.set("n", "100");  // override, not append
  spec.set("sweep.policy", "BR,HybridBR");
  EXPECT_EQ(spec.experiment, "steady_state");
  ASSERT_EQ(spec.params.size(), 1u);
  EXPECT_EQ(*spec.find("n"), "100");
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].first, "policy");
  EXPECT_EQ(spec.axes[0].second, "BR,HybridBR");
  EXPECT_THROW(spec.set("sweep.", "x"), std::invalid_argument);
}

TEST(ExpandGridTest, NoAxesIsIdentity) {
  ScenarioSpec spec;
  spec.name = "solo";
  spec.experiment = "x";
  spec.set("n", "5");
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].name, "solo");
  EXPECT_EQ(*cells[0].find("n"), "5");
}

TEST(ExpandGridTest, CrossProductLastAxisFastest) {
  ScenarioSpec spec;
  spec.name = "grid";
  spec.experiment = "x";
  spec.set("k", "4");
  spec.set("sweep.n", "10, 20, 30");
  spec.set("sweep.policy", "BR,HybridBR");
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].name, "grid[n=10,policy=BR]");
  EXPECT_EQ(cells[1].name, "grid[n=10,policy=HybridBR]");
  EXPECT_EQ(cells[2].name, "grid[n=20,policy=BR]");
  EXPECT_EQ(cells[5].name, "grid[n=30,policy=HybridBR]");
  // Axis values land in the cell's params; the shared knob survives.
  EXPECT_EQ(*cells[3].find("n"), "20");
  EXPECT_EQ(*cells[3].find("policy"), "HybridBR");
  EXPECT_EQ(*cells[3].find("k"), "4");
  EXPECT_TRUE(cells[3].axes.empty());
}

TEST(ExpandGridTest, RejectsEmptyAxis) {
  ScenarioSpec empty;
  empty.experiment = "x";
  empty.set("sweep.n", "");
  EXPECT_THROW(expand_grid(empty), std::invalid_argument);
}

TEST(ParamReaderTest, TypedAccessAndDefaults) {
  ScenarioSpec spec;
  spec.experiment = "x";
  spec.set("n", "32");
  spec.set("rate", "1.5");
  spec.set("on", "yes");
  spec.set("seed", "99");
  const ParamReader params(spec);
  EXPECT_EQ(params.get_int("n", 1), 32);
  EXPECT_DOUBLE_EQ(params.get_double("rate", 0.0), 1.5);
  EXPECT_TRUE(params.get_bool("on"));
  EXPECT_EQ(params.get_seed("seed", 1), 99u);
  EXPECT_EQ(params.get_int("absent", 7), 7);
  EXPECT_EQ(params.get_string("name", "default"), "default");
  EXPECT_NO_THROW(params.finish());
}

TEST(ParamReaderTest, RejectsBadValues) {
  ScenarioSpec spec;
  spec.experiment = "x";
  spec.set("n", "abc");
  spec.set("rate", "1.5x");
  spec.set("on", "maybe");
  const ParamReader params(spec);
  EXPECT_THROW(params.get_int("n", 1), std::invalid_argument);
  EXPECT_THROW(params.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW(params.get_bool("on"), std::invalid_argument);
}

TEST(ParamReaderTest, NegativeSeedIsRejected) {
  // A scenario "seed = -1" must not run with seed 2^64 - 1.
  ScenarioSpec spec;
  spec.experiment = "x";
  spec.set("seed", "-1");
  const ParamReader params(spec);
  try {
    params.get_seed("seed", 1);
    FAIL() << "seed = -1 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos)
        << e.what();
  }
}

TEST(ParamReaderTest, IntListReadsEveryItemOrTheDefault) {
  ScenarioSpec spec;
  spec.experiment = "x";
  spec.set("n-list", "50, 100,200");
  const ParamReader params(spec);
  EXPECT_EQ(params.get_int_list("n-list", "8"), (std::vector<int>{50, 100, 200}));
  EXPECT_EQ(params.get_int_list("workers", "0,1"), (std::vector<int>{0, 1}));
  EXPECT_NO_THROW(params.finish());
}

/// The error get_int_list raises for `value`, or "" when it parses.
std::string int_list_error(const std::string& value) {
  ScenarioSpec spec;
  spec.experiment = "x";
  spec.set("n-list", value);
  try {
    ParamReader(spec).get_int_list("n-list", "8");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParamReaderTest, IntListRejectsTrailingGarbageNamingTheKnob) {
  // "1000,2000x" must not run n = 2000.
  const auto error = int_list_error("1000,2000x");
  EXPECT_NE(error.find("'n-list'"), std::string::npos) << error;
}

TEST(ParamReaderTest, IntListRejectsEmptyItemNamingTheKnob) {
  const auto error = int_list_error("1000,,2000");
  EXPECT_NE(error.find("'n-list'"), std::string::npos) << error;
}

TEST(SplitCsvTest, SplitsAndTrims) {
  EXPECT_EQ(split_csv("a, b ,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("50"), (std::vector<std::string>{"50"}));
  EXPECT_TRUE(split_csv("").empty());
}

TEST(ParamReaderTest, FinishHintsControlFlagForCliTypos) {
  ScenarioSpec spec;
  spec.name = "s";
  spec.experiment = "x";
  spec.set("jsnol", "out");  // a misspelled --jsonl forwarded as a knob
  const ParamReader params(spec);
  params.get_int("n", 10);
  try {
    params.finish();
    FAIL() << "finish() should reject the unread knob";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("control flag --jsonl"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParamReaderTest, FinishRejectsUnreadKnobWithSuggestion) {
  ScenarioSpec spec;
  spec.name = "s";
  spec.experiment = "x";
  spec.set("sampel", "3");
  const ParamReader params(spec);
  params.get_int("sample", 10);
  try {
    params.finish();
    FAIL() << "finish() should reject the unread knob";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sampel"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("did you mean 'sample'"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace egoist::exp
