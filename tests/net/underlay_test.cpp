// Underlay-backend contract tests: counter-hash primitives, the dense
// backend's bit-equality with the raw models, the procedural backend's
// determinism / pure-function-of-time semantics, distribution sanity, and
// the O(n) vs O(n^2) memory split the scale experiments rely on.
#include "net/underlay.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace egoist::net {
namespace {

TEST(CounterHashTest, DeterministicAndCounterSensitive) {
  EXPECT_EQ(counter_hash(1, 2, 3, 4), counter_hash(1, 2, 3, 4));
  EXPECT_NE(counter_hash(1, 2, 3, 4), counter_hash(2, 2, 3, 4));
  EXPECT_NE(counter_hash(1, 2, 3, 4), counter_hash(1, 3, 3, 4));
  EXPECT_NE(counter_hash(1, 2, 3, 4), counter_hash(1, 2, 4, 4));
  EXPECT_NE(counter_hash(1, 2, 3, 4), counter_hash(1, 2, 3, 5));
  // Swapping counter values across positions must not collide.
  EXPECT_NE(counter_hash(1, 2, 3, 4), counter_hash(1, 3, 2, 4));
}

TEST(CounterHashTest, UnitAndGaussianMoments) {
  util::OnlineStats unit, gauss;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const auto h = counter_hash(99, i, 0, 0);
    const double u = hash_unit(h);
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
    unit.add(u);
    gauss.add(hash_gaussian(h));
  }
  EXPECT_NEAR(unit.mean(), 0.5, 0.01);
  EXPECT_NEAR(gauss.mean(), 0.0, 0.03);
  EXPECT_NEAR(gauss.stddev(), 1.0, 0.03);
}

TEST(OuNoiseTest, ContinuousInTimeAndDecorrelatedAcrossTau) {
  constexpr double kTau = 100.0;
  // Pure function of its arguments: re-evaluation matches.
  EXPECT_DOUBLE_EQ(ou_noise(7, 1, 2, 123.0, kTau),
                   ou_noise(7, 1, 2, 123.0, kTau));
  // Small time steps move the value a little (smoothstep interpolation),
  // not discontinuously.
  const double base = ou_noise(7, 1, 2, 150.0, kTau);
  EXPECT_LT(std::abs(ou_noise(7, 1, 2, 150.5, kTau) - base), 0.2);
  // Across many correlation times, values decorrelate to ~unit variance.
  util::OnlineStats stats;
  for (int s = 0; s < 4000; ++s) {
    stats.add(ou_noise(7, 1, 2, (s + 0.25) * kTau, kTau));
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.1);
  // The blend is renormalized, so the process is unit-variance at every
  // lattice fraction, not just at the lattice points.
  EXPECT_NEAR(stats.stddev(), 1.0, 0.1);
  EXPECT_THROW(ou_noise(7, 1, 2, 0.0, 0.0), std::invalid_argument);
}

TEST(UnderlayKindTest, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_underlay_kind("dense"), UnderlayKind::kDense);
  EXPECT_EQ(parse_underlay_kind("procedural"), UnderlayKind::kProcedural);
  EXPECT_STREQ(to_string(UnderlayKind::kDense), "dense");
  EXPECT_STREQ(to_string(UnderlayKind::kProcedural), "procedural");
  EXPECT_THROW(parse_underlay_kind("sparse"), std::invalid_argument);
}

TEST(DenseUnderlayTest, FieldsAreTheRawModelsBitForBit) {
  constexpr std::size_t kN = 16;
  constexpr std::uint64_t kSeed = 42;
  DenseUnderlay dense(kN, kSeed, {}, {}, {});
  const auto reference = make_planetlab_like(kN, kSeed);
  BandwidthModel bw(kN, kSeed ^ 0xB00Bull);
  LoadModel load(kN, kSeed ^ 0x10ADull);
  for (int i = 0; i < static_cast<int>(kN); ++i) {
    EXPECT_DOUBLE_EQ(dense.load().load(i), load.load(i));
    for (int j = 0; j < static_cast<int>(kN); ++j) {
      EXPECT_DOUBLE_EQ(dense.delays().delay(i, j), reference.delay(i, j));
      if (i != j) {
        EXPECT_DOUBLE_EQ(dense.bandwidth().avail_bw(i, j), bw.avail_bw(i, j));
      }
    }
  }
  // Advancing the backend advances bandwidth then load, exactly like the
  // historical Substrate step.
  dense.advance(60.0);
  bw.advance(60.0);
  load.advance(60.0);
  EXPECT_DOUBLE_EQ(dense.bandwidth().avail_bw(0, 1), bw.avail_bw(0, 1));
  EXPECT_DOUBLE_EQ(dense.load().load(0), load.load(0));
}

TEST(ProceduralUnderlayTest, DeterministicAndSeedSensitive) {
  ProceduralUnderlay a(64, 7);
  ProceduralUnderlay b(64, 7);
  ProceduralUnderlay c(64, 8);
  a.advance(123.0);
  b.advance(123.0);
  c.advance(123.0);
  bool any_differs = false;
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(a.node_load(i), b.node_load(i));
    for (int j = 0; j < 64; ++j) {
      EXPECT_DOUBLE_EQ(a.delay(i, j), b.delay(i, j));
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(a.avail_bw(i, j), b.avail_bw(i, j));
      any_differs = any_differs || a.delay(i, j) != c.delay(i, j);
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(ProceduralUnderlayTest, ValuesAreWellFormed) {
  ProceduralUnderlay u(48, 3);
  u.advance(500.0);
  for (int i = 0; i < 48; ++i) {
    EXPECT_DOUBLE_EQ(u.delay(i, i), 0.0);
    EXPECT_GE(u.node_load(i), 0.05);
    EXPECT_GE(u.cluster(i), 0);
    for (int j = 0; j < 48; ++j) {
      if (i == j) continue;
      EXPECT_GT(u.delay(i, j), 0.0);
      EXPECT_GT(u.capacity(i, j), 0.0);
      EXPECT_GE(u.avail_bw(i, j), 0.0);
      EXPECT_LE(u.avail_bw(i, j), u.capacity(i, j));
    }
  }
  EXPECT_THROW(u.delay(0, 48), std::out_of_range);
  EXPECT_THROW(u.capacity(0, 0), std::invalid_argument);
  EXPECT_THROW(u.advance(-1.0), std::invalid_argument);
}

TEST(ProceduralUnderlayTest, PairQuantitiesArePureFunctionsOfTime) {
  // Two instances advanced along different schedules agree whenever their
  // clocks agree — the O(1) advance() contract.
  ProceduralUnderlay fine(32, 11);
  ProceduralUnderlay coarse(32, 11);
  for (int s = 0; s < 60; ++s) fine.advance(1.0);
  coarse.advance(60.0);
  EXPECT_DOUBLE_EQ(fine.now(), coarse.now());
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(fine.node_load(i), coarse.node_load(i));
    for (int j = 0; j < 32; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(fine.avail_bw(i, j), coarse.avail_bw(i, j));
      }
    }
  }
  // Static quantities do not move with the clock.
  ProceduralUnderlay still(32, 11);
  EXPECT_DOUBLE_EQ(still.delay(3, 9), fine.delay(3, 9));
  EXPECT_DOUBLE_EQ(still.capacity(3, 9), fine.capacity(3, 9));
}

TEST(ProceduralUnderlayTest, AttributesIndependentOfN) {
  // Counter-hashed per-node attributes: node i looks the same in a small
  // and a large deployment (dense generators cannot do this).
  ProceduralUnderlay small(32, 5);
  ProceduralUnderlay large(256, 5);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(small.cluster(i), large.cluster(i));
    EXPECT_DOUBLE_EQ(small.node_load(i), large.node_load(i));
    for (int j = 0; j < 32; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(small.delay(i, j), large.delay(i, j));
      }
    }
  }
}

TEST(ProceduralUnderlayTest, DelayStructureMatchesPlanetLabShape) {
  // Same qualitative structure as the dense generator: intra-cluster pairs
  // are much closer than inter-cluster pairs on average.
  ProceduralUnderlay u(200, 17);
  util::OnlineStats intra, inter;
  for (int i = 0; i < 200; ++i) {
    for (int j = i + 1; j < 200; ++j) {
      (u.cluster(i) == u.cluster(j) ? intra : inter).add(u.delay(i, j));
    }
  }
  ASSERT_GT(intra.count(), 0u);
  ASSERT_GT(inter.count(), 0u);
  EXPECT_LT(intra.mean() * 2.0, inter.mean());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(DelayPairTest, BothDirectionsAndTheRttBitForBit) {
  constexpr std::size_t kN = 150;
  for (const auto kind : {UnderlayKind::kDense, UnderlayKind::kProcedural}) {
    const auto backend = make_underlay(kind, kN, 11, {}, {}, {});
    const DelayField& field = backend->delays();
    util::Rng rng(5);
    for (int draw = 0; draw < 3000; ++draw) {
      const auto i = static_cast<int>(rng.uniform_int(0, kN - 1));
      // Every tenth draw probes the diagonal.
      const auto j = draw % 10 == 0
                         ? i
                         : static_cast<int>(rng.uniform_int(0, kN - 1));
      for (const auto& [a, b] : {std::pair{i, j}, std::pair{j, i}}) {
        const DelayPair pair = field.delay_pair(a, b);
        ASSERT_TRUE(same_bits(pair.forward, field.delay(a, b)))
            << to_string(kind) << " " << a << "->" << b;
        ASSERT_TRUE(same_bits(pair.backward, field.delay(b, a)))
            << to_string(kind) << " " << b << "->" << a;
        ASSERT_TRUE(
            same_bits(field.rtt(a, b), field.delay(a, b) + field.delay(b, a)))
            << to_string(kind) << " " << a << "<->" << b;
      }
    }
    EXPECT_THROW(field.delay_pair(0, static_cast<int>(kN)), std::out_of_range);
    EXPECT_THROW(field.delay_pair(-1, 0), std::out_of_range);
  }
}

TEST(UnderlayMemoryTest, ProceduralIsLinearDenseIsQuadratic) {
  const auto dense_small = make_underlay(UnderlayKind::kDense, 32, 1, {}, {}, {});
  const auto dense_large = make_underlay(UnderlayKind::kDense, 128, 1, {}, {}, {});
  const auto proc_small =
      make_underlay(UnderlayKind::kProcedural, 32, 1, {}, {}, {});
  const auto proc_large =
      make_underlay(UnderlayKind::kProcedural, 128, 1, {}, {}, {});
  // Dense quadruples-per-doubling (x16 for x4 n), procedural is linear.
  EXPECT_GE(dense_large->memory_bytes(), dense_small->memory_bytes() * 12);
  EXPECT_LE(proc_large->memory_bytes(), proc_small->memory_bytes() * 4);
  EXPECT_LT(proc_large->memory_bytes() * 10, dense_large->memory_bytes());
}

}  // namespace
}  // namespace egoist::net
