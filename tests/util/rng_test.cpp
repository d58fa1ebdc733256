#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace egoist::util {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1'000'000) != b.uniform_int(0, 1'000'000)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(RngTest, SplitIsDecorrelatedFromParent) {
  Rng parent(7);
  Rng child = parent.split(1);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.uniform_int(0, 1'000'000) != child.uniform_int(0, 1'000'000)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, UniformRealInHalfOpenRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatesMean) {
  Rng rng(11);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential_mean(5.0);
  EXPECT_NEAR(sum / trials, 5.0, 0.2);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential_mean(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential_mean(-1.0), std::invalid_argument);
}

TEST(RngTest, ParetoRespectsScaleLowerBound) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(RngTest, ParetoRejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(rng.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  std::vector<int> pool{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto sample = rng.sample_without_replacement(std::span<const int>(pool), 6);
  EXPECT_EQ(sample.size(), 6u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, SampleWithoutReplacementFullPool) {
  Rng rng(19);
  std::vector<int> pool{1, 2, 3};
  const auto sample = rng.sample_without_replacement(std::span<const int>(pool), 3);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique, (std::set<int>{1, 2, 3}));
}

TEST(RngTest, SampleWithoutReplacementRejectsOversizedRequest) {
  Rng rng(1);
  std::vector<int> pool{1, 2};
  EXPECT_THROW(rng.sample_without_replacement(std::span<const int>(pool), 3),
               std::invalid_argument);
}

// The dense partial Fisher-Yates the sparse draw replaced: copy the list
// and swap each of the first m slots with a uniform slot at or after it.
std::vector<int> dense_sample(Rng& rng, std::vector<int> list, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(list.size()) - 1));
    std::swap(list[i], list[j]);
  }
  list.resize(m);
  return list;
}

TEST(RngTest, SparseDrawMatchesTheDenseShuffleOverTheExplicitList) {
  // 1,200 random cases, N from 0 to 500 and m from 0 to N: the list is
  // [0, T) without random excluded ranks, and the sparse ranks are mapped
  // to it by stepping over the excluded ones, as a caller drawing from an
  // id array does. With the same seed the sparse draw, the dense shuffle
  // and sample_without_replacement pick the same elements in the same
  // order and leave the engine in the same state.
  Rng cases(2024);
  for (int c = 0; c < 1200; ++c) {
    const auto total = static_cast<std::size_t>(cases.uniform_int(0, 500));
    const double exclude = cases.uniform(0.0, 0.3);
    std::vector<int> list;
    std::vector<std::size_t> excluded;
    for (std::size_t r = 0; r < total; ++r) {
      if (cases.chance(exclude)) {
        excluded.push_back(r);
      } else {
        list.push_back(static_cast<int>(r));
      }
    }
    const std::size_t n = list.size();
    const auto m = c % 10 == 0 ? n
                               : static_cast<std::size_t>(cases.uniform_int(
                                     0, static_cast<std::int64_t>(n)));
    const std::uint64_t seed = cases.engine()();

    Rng dense(seed), sparse(seed), wrapped(seed);
    const auto want = dense_sample(dense, list, m);
    std::vector<int> got;
    for (std::size_t rank : sparse.sample_ranks(n, m)) {
      std::size_t pos = rank;
      for (std::size_t e : excluded) {
        if (e > pos) break;
        ++pos;
      }
      got.push_back(static_cast<int>(pos));
    }
    ASSERT_EQ(got, want) << "case " << c << ": N=" << n << " m=" << m;
    EXPECT_EQ(sparse.engine(), dense.engine()) << "case " << c;
    EXPECT_EQ(wrapped.sample_without_replacement(std::span<const int>(list), m),
              want)
        << "case " << c;
    EXPECT_EQ(wrapped.engine(), dense.engine()) << "case " << c;
  }
}

TEST(RngTest, SampleRanksRejectsOversizedRequest) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_ranks(2, 3), std::invalid_argument);
  EXPECT_TRUE(rng.sample_ranks(0, 0).empty());
}

TEST(RngTest, PickRejectsEmptyPool) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(std::span<const int>(empty)), std::invalid_argument);
}

TEST(RngTest, SampleIsUnbiasedAcrossPositions) {
  // Every element should appear in a size-5 sample of a 10-element pool with
  // probability ~1/2; a strongly position-biased partial shuffle would fail.
  Rng rng(23);
  std::vector<int> pool{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> hits(10, 0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    for (int v : rng.sample_without_replacement(std::span<const int>(pool), 5)) {
      hits[static_cast<std::size_t>(v)]++;
    }
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.5, 0.05);
  }
}

TEST(RngTest, NormalMatchesStdNormalDistributionBitForBit) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {5.0, 0.25}, {-3.5, 7.0}, {120.0, 1e-6}};
  for (const auto& [mean, stddev] : params) {
    Rng rng(99);
    std::mt19937_64 engine(99);
    for (int i = 0; i < 200; ++i) {
      const double want =
          std::normal_distribution<double>(mean, stddev)(engine);
      const double got = rng.normal(mean, stddev);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "mean " << mean << " stddev " << stddev << " draw " << i;
    }
    EXPECT_EQ(rng.engine(), engine);
  }
}

TEST(RngTest, NormalWithZeroStddevReturnsMeanAndDrawsLikeStddevOne) {
  // A quiet measurement plane (zero jitter) asks for stddev 0: the value
  // is the mean, and the engine advances exactly as for stddev 1, so the
  // rest of the stream does not shift.
  Rng quiet(7);
  Rng unit(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(quiet.normal(2.5, 0.0), 2.5);
    (void)unit.normal(2.5, 1.0);
    EXPECT_EQ(quiet.engine(), unit.engine()) << "draw " << i;
  }
  EXPECT_EQ(quiet.uniform(), unit.uniform());
}

}  // namespace
}  // namespace egoist::util
