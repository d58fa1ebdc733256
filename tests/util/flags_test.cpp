#include "util/flags.hpp"

#include <gtest/gtest.h>

namespace egoist::util {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  const auto f = make({"--n=50", "--t=1.5"});
  EXPECT_EQ(f.get_int("n", 0), 50);
  EXPECT_DOUBLE_EQ(f.get_double("t", 0.0), 1.5);
}

TEST(FlagsTest, SpaceForm) {
  const auto f = make({"--name", "value"});
  EXPECT_EQ(f.get_string("name", ""), "value");
}

TEST(FlagsTest, BooleanSwitch) {
  const auto f = make({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_FALSE(f.get_bool("quiet"));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  EXPECT_TRUE(make({"--x=yes"}).get_bool("x"));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x"));
  EXPECT_THROW(make({"--x=maybe"}).get_bool("x"), std::invalid_argument);
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const auto f = make({});
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_EQ(f.get_string("s", "d"), "d");
  EXPECT_EQ(f.get_seed("seed", 99u), 99u);
}

TEST(ParseDurationTest, SuffixedForms) {
  EXPECT_DOUBLE_EQ(parse_duration_seconds("5s"), 5.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("250ms"), 0.25);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("10us"), 1e-5);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("100ns"), 1e-7);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("2m"), 120.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("2min"), 120.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("1.5h"), 5400.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("3"), 3.0);     // bare = seconds
  EXPECT_DOUBLE_EQ(parse_duration_seconds("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("0s"), 0.0);
}

TEST(ParseDurationTest, RejectsMalformed) {
  for (const char* bad : {"", "s", "5x", "5 s", "-1s", "1.2.3s", "ms",
                          "nan", "infs", "5sms"}) {
    EXPECT_THROW(parse_duration_seconds(bad), std::invalid_argument) << bad;
  }
}

TEST(ParseSizeTest, SuffixedForms) {
  EXPECT_EQ(parse_size_bytes("4096"), 4096u);
  EXPECT_EQ(parse_size_bytes("64K"), 64u * 1024u);
  EXPECT_EQ(parse_size_bytes("64KB"), 64u * 1024u);
  EXPECT_EQ(parse_size_bytes("64k"), 64u * 1024u);
  EXPECT_EQ(parse_size_bytes("8M"), 8u << 20);
  EXPECT_EQ(parse_size_bytes("1G"), 1u << 30);
  EXPECT_EQ(parse_size_bytes("1.5M"), (1u << 20) + (1u << 19));
  EXPECT_EQ(parse_size_bytes("0"), 0u);
}

TEST(ParseSizeTest, RejectsMalformed) {
  // Fractional byte counts only pass when the product is whole.
  for (const char* bad : {"", "K", "1.5", "64Q", "-1K", "1e30G", "64 K"}) {
    EXPECT_THROW(parse_size_bytes(bad), std::invalid_argument) << bad;
  }
}

TEST(FlagsTest, DurationAndSizeAccessors) {
  const auto f = make({"--idle-timeout=250ms", "--max-frame", "64K"});
  EXPECT_DOUBLE_EQ(f.get_duration("idle-timeout", "60s"), 0.25);
  EXPECT_DOUBLE_EQ(f.get_duration("drain-deadline", "2s"), 2.0);  // default
  EXPECT_EQ(f.get_size("max-frame", "1M"), 64u * 1024u);
  EXPECT_EQ(f.get_size("buffer", "1M"), 1u << 20);  // default
  // Both appear in usage() with their suffixed defaults, like any flag.
  const auto usage = f.usage();
  EXPECT_NE(usage.find("--idle-timeout  (default: 60s)"), std::string::npos);
  EXPECT_NE(usage.find("--max-frame  (default: 1M)"), std::string::npos);
}

TEST(FlagsTest, DurationAndSizeErrorsNameTheFlag) {
  const auto f = make({"--idle-timeout=5x"});
  try {
    (void)f.get_duration("idle-timeout", "60s");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--idle-timeout"),
              std::string::npos);
  }
  const auto g = make({"--max-frame=64Q"});
  EXPECT_THROW((void)g.get_size("max-frame", "1M"), std::invalid_argument);
}

TEST(FlagsTest, DurationAndSizeFlagsStillGetTypoHints) {
  const auto f = make({"--idle-timeuot=5s"});
  (void)f.get_duration("idle-timeout", "60s");
  try {
    f.finish();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("idle-timeout"), std::string::npos);
  }
}

TEST(FlagsTest, RejectsPositionalArgument) {
  EXPECT_THROW(make({"oops"}), std::invalid_argument);
}

TEST(FlagsTest, RejectsNonNumeric) {
  EXPECT_THROW(make({"--n=abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make({"--t=xy"}).get_double("t", 0.0), std::invalid_argument);
}

TEST(FlagsTest, IntegerWithTrailingGarbageIsRejected) {
  // "2x" must not serve with 2 loops.
  try {
    make({"--loops", "2x"}).get_int("loops", 1);
    FAIL() << "--loops 2x parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--loops"), std::string::npos) << e.what();
  }
}

TEST(FlagsTest, NumberWithTrailingGarbageIsRejected) {
  try {
    make({"--factor", "1.5x"}).get_double("factor", 2.0);
    FAIL() << "--factor 1.5x parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--factor"), std::string::npos) << e.what();
  }
}

TEST(FlagsTest, SeedWithTrailingCharactersIsRejected) {
  // "42x" must not run with seed 42, nor "0x10" with seed 0.
  for (const char* text : {"42x", "0x10", "4 2", ""}) {
    try {
      make({"--seed", text}).get_seed("seed", 1u);
      FAIL() << "--seed " << text << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(make({"--seed", "18446744073709551615"}).get_seed("seed", 1u),
            18446744073709551615u);
  EXPECT_THROW(make({"--seed", "18446744073709551616"}).get_seed("seed", 1u),
               std::invalid_argument);
}

TEST(FlagsTest, NegativeSeedIsRejected) {
  // "-1" must not wrap around to 2^64 - 1.
  const auto expect_rejected = [](const Flags& f) {
    try {
      f.get_seed("seed", 1u);
      FAIL() << "a signed seed parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(make({"--seed", "-1"}));
  expect_rejected(make({"--seed=-1"}));
  expect_rejected(make({"--seed", "+1"}));
}

TEST(FlagsTest, UnqueriedFlagsReported) {
  const auto f = make({"--typo=1", "--n=5"});
  EXPECT_EQ(f.get_int("n", 0), 5);
  const auto leftover = f.unqueried();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover.front(), "typo");
}

TEST(FlagsTest, HelpRequested) {
  EXPECT_TRUE(make({"--help"}).help_requested());
  EXPECT_TRUE(make({"--help=true"}).help_requested());
  EXPECT_FALSE(make({}).help_requested());
  // Explicit false-ish values mean "no help", mirroring get_bool.
  EXPECT_FALSE(make({"--help=false"}).help_requested());
  EXPECT_FALSE(make({"--help=0"}).help_requested());
  EXPECT_FALSE(make({"--help=no"}).help_requested());
}

TEST(FlagsTest, UsageListsQueriedFlagsWithDefaults) {
  const auto f = make({});
  f.get_int("n", 50);
  f.get_double("t", 1.5);
  f.get_string("name", "br");
  f.get_bool("verbose");
  f.get_seed("seed", 42u);
  const auto usage = f.usage();
  EXPECT_NE(usage.find("--n  (default: 50)"), std::string::npos);
  EXPECT_NE(usage.find("--t  (default: 1.5)"), std::string::npos);
  EXPECT_NE(usage.find("--name  (default: br)"), std::string::npos);
  EXPECT_NE(usage.find("--verbose  (default: false)"), std::string::npos);
  EXPECT_NE(usage.find("--seed  (default: 42)"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(FlagsTest, FinishThrowsOnUnknownFlag) {
  const auto f = make({"--typo=1"});
  EXPECT_THROW(f.finish(), std::invalid_argument);
}

TEST(FlagsTest, FinishSuggestsClosestKnownFlag) {
  const auto f = make({"--sampel=3"});
  f.get_int("sample", 10);
  f.get_int("warmup", 20);
  try {
    f.finish();
    FAIL() << "finish() must reject the typo";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown flag: --sampel"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean --sample?"), std::string::npos) << what;
  }
}

TEST(FlagsTest, FinishOmitsSuggestionWhenNothingIsClose) {
  const auto f = make({"--zzqqxx=1"});
  f.get_int("n", 5);
  try {
    f.finish();
    FAIL() << "finish() must reject the unknown flag";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(ClosestNameTest, PicksMinimumEditDistanceWithinCutoff) {
  const std::vector<std::string> candidates{"sample", "warmup", "seed"};
  ASSERT_TRUE(closest_name("sampel", candidates).has_value());
  EXPECT_EQ(*closest_name("sampel", candidates), "sample");
  EXPECT_EQ(*closest_name("warmups", candidates), "warmup");
  EXPECT_EQ(*closest_name("sed", candidates), "seed");
  EXPECT_FALSE(closest_name("completely-different", candidates).has_value());
  EXPECT_FALSE(closest_name("x", {}).has_value());
}

TEST(FlagsTest, ConsumeAllReturnsEverythingAndSatisfiesFinish) {
  const auto f = make({"--a=1", "--b", "two"});
  const auto all = f.consume_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(all[1], (std::pair<std::string, std::string>{"b", "two"}));
  EXPECT_TRUE(f.unqueried().empty());
}

TEST(FlagsTest, FinishAcceptsQueriedAndExplicitNoHelp) {
  const auto f = make({"--n=5", "--help=false"});
  EXPECT_EQ(f.get_int("n", 0), 5);
  EXPECT_NO_THROW(f.finish());
}

TEST(FlagsDeathTest, FinishOnHelpPrintsUsageAndExitsZero) {
  const auto f = make({"--help"});
  f.get_int("n", 50);
  EXPECT_EXIT(f.finish("prog description"), ::testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace egoist::util
