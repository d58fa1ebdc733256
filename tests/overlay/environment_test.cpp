// Measurement-plane contract tests for the underlay-backend seam: dense
// planes keep the historical n^2 layout below the threshold, sparse planes
// keep one fixed-capacity EWMA row per probing node (and derive drift
// procedurally), a cut row keeps its surviving EWMAs bit for bit, and
// identically-seeded planes on one substrate stay in lockstep on either
// backend.
#include "overlay/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace egoist::overlay {
namespace {

EnvironmentConfig sparse_config(net::UnderlayKind kind) {
  EnvironmentConfig config;
  config.underlay = kind;
  config.sparse_plane_threshold = 0;  // sparse planes at any size
  config.coord_warmup_rounds = 5;
  return config;
}

TEST(EnvironmentPlaneTest, DenseAndSparsePlanesAgreeOnPingValues) {
  // The sparse plane changes *storage*, not the ping pipeline: with drift
  // disabled (dense drift starts at 0; the procedural stream is stationary
  // and must be silenced to compare) and no advance() between probes, the
  // same probe sequence yields bit-identical EWMAs on both layouts.
  EnvironmentConfig dense;
  dense.coord_warmup_rounds = 5;
  dense.sparse_plane_threshold = 1u << 20;
  dense.delay_drift_volatility = 0.0;
  auto sparse = dense;
  sparse.sparse_plane_threshold = 0;

  Environment dense_env(10, 42, dense);
  Environment sparse_env(10, 42, sparse);
  ASSERT_FALSE(dense_env.sparse_plane());
  ASSERT_TRUE(sparse_env.sparse_plane());

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      for (int j = 0; j < 10; ++j) {
        if (i == j) continue;
        EXPECT_DOUBLE_EQ(dense_env.measure_delay_ping(i, j),
                         sparse_env.measure_delay_ping(i, j));
      }
    }
  }
  EXPECT_EQ(dense_env.probed_pairs(), 90u);
  EXPECT_EQ(sparse_env.probed_pairs(), 90u);
}

TEST(EnvironmentPlaneTest, SparseRowsGrowAndKeepEveryEwmaBitForBit) {
  // A plane nobody bounds gives each row room for all n targets at its
  // node's first ping; every EWMA must match the dense plane's bit for
  // bit as the rows fill. Random probe order with re-probes, and some
  // nodes probing every target, so some rows fill to n.
  constexpr int kN = 300;
  EnvironmentConfig dense;
  dense.coord_warmup_rounds = 5;
  dense.sparse_plane_threshold = 1u << 20;
  dense.delay_drift_volatility = 0.0;
  auto sparse = dense;
  sparse.sparse_plane_threshold = 0;
  Environment dense_env(kN, 17, dense);
  Environment sparse_env(kN, 17, sparse);
  ASSERT_FALSE(dense_env.sparse_plane());
  ASSERT_TRUE(sparse_env.sparse_plane());

  util::Rng rng(3);
  std::vector<std::pair<int, int>> probes;
  for (int round = 0; round < 4; ++round) {
    for (int draw = 0; draw < 20000; ++draw) {
      probes.emplace_back(static_cast<int>(rng.uniform_int(0, kN - 1)),
                          static_cast<int>(rng.uniform_int(0, kN - 1)));
    }
    for (int j = 0; j < kN; ++j) probes.emplace_back(round, j);
  }
  rng.shuffle(probes);
  for (const auto& [i, j] : probes) {
    const double a = dense_env.measure_delay_ping(i, j);
    const double b = sparse_env.measure_delay_ping(i, j);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << i << "->" << j;
  }
  EXPECT_EQ(sparse_env.probed_pairs(), dense_env.probed_pairs());
  EXPECT_GT(sparse_env.probed_pairs(), 40000u);
  // A last pass over every pair reads each stored EWMA back once more.
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      const double a = dense_env.measure_delay_ping(i, j);
      const double b = sparse_env.measure_delay_ping(i, j);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << i << "->" << j;
    }
  }
  EXPECT_EQ(sparse_env.probed_pairs(), static_cast<std::size_t>(kN) * kN);
  EXPECT_EQ(dense_env.probed_pairs(), static_cast<std::size_t>(kN) * kN);
}

TEST(EnvironmentPlaneTest, SparseRowFilledToItsBoundKeepsPlaneMemory) {
  // A row is allocated once, at its node's first ping, with room for the
  // plane's row bound: filling it to the bound, re-probing it, or cutting
  // and refilling it allocates nothing more, and a target past the bound
  // is refused.
  Environment env(200, 7, sparse_config(net::UnderlayKind::kProcedural));
  ASSERT_TRUE(env.sparse_plane());
  env.bound_rows(20);
  EXPECT_EQ(env.probed_pairs(), 0u);
  const std::size_t empty_bytes = env.plane_memory_bytes();
  env.measure_delay_ping(0, 1);
  const std::size_t bytes = env.plane_memory_bytes();
  EXPECT_GT(bytes, empty_bytes);
  for (int j = 2; j <= 20; ++j) env.measure_delay_ping(0, j);
  EXPECT_EQ(env.probed_pairs(), 20u);
  EXPECT_EQ(env.plane_memory_bytes(), bytes);
  for (int j = 1; j <= 20; ++j) env.measure_delay_ping(0, j);
  EXPECT_EQ(env.probed_pairs(), 20u);
  EXPECT_EQ(env.plane_memory_bytes(), bytes);
  EXPECT_THROW(env.measure_delay_ping(0, 21), std::length_error);
  EXPECT_EQ(env.probed_pairs(), 20u);

  // The first cut sizes the plane's per-target marks once; refilling the
  // cut row to its bound then reuses its slots.
  const std::vector<int> keep{1, 2};
  env.cut_row(0, {keep, keep});
  EXPECT_EQ(env.probed_pairs(), 2u);
  const std::size_t cut_bytes = env.plane_memory_bytes();
  for (int j = 30; j < 48; ++j) env.measure_delay_ping(0, j);
  EXPECT_EQ(env.probed_pairs(), 20u);
  EXPECT_EQ(env.plane_memory_bytes(), cut_bytes);
  env.cut_row(0, {keep});
  EXPECT_EQ(env.plane_memory_bytes(), cut_bytes);
  // Rows allocated under one bound cannot take another.
  EXPECT_THROW(env.bound_rows(30), std::logic_error);
  EXPECT_NO_THROW(env.bound_rows(20));

  // A plane nobody bounds sizes each row for all n targets.
  Environment open(200, 7, sparse_config(net::UnderlayKind::kProcedural));
  open.measure_delay_ping(0, 1);
  const std::size_t open_bytes = open.plane_memory_bytes();
  for (int j = 0; j < 200; ++j) open.measure_delay_ping(0, j);
  EXPECT_EQ(open.probed_pairs(), 200u);
  EXPECT_EQ(open.plane_memory_bytes(), open_bytes);

  // The dense plane at the same n would hold 2 * n^2 doubles.
  EnvironmentConfig dense;
  dense.coord_warmup_rounds = 5;
  Environment dense_env(200, 7, dense);
  ASSERT_FALSE(dense_env.sparse_plane());
  EXPECT_EQ(dense_env.plane_memory_bytes(), 2u * 200 * 200 * sizeof(double));
  EXPECT_LT(bytes * 100, dense_env.plane_memory_bytes());
}

TEST(EnvironmentPlaneTest, CutRowsKeepTheirEwmasBitForBit) {
  // Two identically seeded planes get the same pings; one cuts each
  // prober's row to a random kept set after the first rounds. Every EWMA
  // the cut keeps must read back bit for bit as on the uncut plane, through
  // further pings and substrate advances.
  constexpr int kN = 64;
  constexpr int kProbers = 6;
  Environment cut(kN, 23, sparse_config(net::UnderlayKind::kProcedural));
  Environment uncut(kN, 23, sparse_config(net::UnderlayKind::kProcedural));
  const auto ping_both = [&](int i, int j) {
    const double a = cut.measure_delay_ping(i, j);
    const double b = uncut.measure_delay_ping(i, j);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << i << "->" << j;
  };
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kProbers; ++i) {
      for (int j = 0; j < kN; ++j) ping_both(i, j);
    }
    cut.advance(30.0);
    uncut.advance(30.0);
  }

  util::Rng rng(8);
  std::vector<std::vector<int>> kept(kProbers);
  std::size_t held = 0;
  for (int i = 0; i < kProbers; ++i) {
    std::vector<int> targets(kN);
    for (int j = 0; j < kN; ++j) targets[static_cast<std::size_t>(j)] = j;
    kept[static_cast<std::size_t>(i)] = rng.sample_without_replacement(
        std::span<const int>(targets), static_cast<std::size_t>(4 + 2 * i));
    // Overlapping spans, as the overlay passes its pool and its links.
    const auto& keep = kept[static_cast<std::size_t>(i)];
    const std::span<const int> head(keep.data(), keep.size() / 2 + 1);
    cut.cut_row(i, {keep, head});
    held += keep.size();
  }
  EXPECT_EQ(cut.probed_pairs(), held);
  EXPECT_EQ(uncut.probed_pairs(), static_cast<std::size_t>(kProbers) * kN);

  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kProbers; ++i) {
      for (const int j : kept[static_cast<std::size_t>(i)]) ping_both(i, j);
    }
    cut.advance(30.0);
    uncut.advance(30.0);
  }
  EXPECT_EQ(cut.probed_pairs(), held);
}

TEST(EnvironmentPlaneTest, CutTargetSeedsAFreshEwma) {
  // After a cut, the next ping of a dropped target starts from its own
  // sample, while the uncut plane folds the same sample into its EWMA.
  Environment cut(32, 5, sparse_config(net::UnderlayKind::kProcedural));
  Environment uncut(32, 5, sparse_config(net::UnderlayKind::kProcedural));
  for (int round = 0; round < 3; ++round) {
    cut.measure_delay_ping(0, 5);
    cut.measure_delay_ping(0, 6);
    uncut.measure_delay_ping(0, 5);
    uncut.measure_delay_ping(0, 6);
    cut.advance(60.0);
    uncut.advance(60.0);
  }
  const double before = uncut.measure_delay_ping(0, 5);
  EXPECT_EQ(cut.measure_delay_ping(0, 5), before);
  const std::vector<int> keep{6};
  cut.cut_row(0, {keep});
  EXPECT_EQ(cut.probed_pairs(), 1u);

  const double fresh = cut.measure_delay_ping(0, 5);
  const double smoothed = uncut.measure_delay_ping(0, 5);
  EXPECT_EQ(cut.probed_pairs(), 2u);
  EXPECT_NE(fresh, smoothed);
  // The uncut EWMA is 0.7 * before + 0.3 * sample, and the fresh one is
  // the sample itself.
  EXPECT_DOUBLE_EQ(smoothed, 0.7 * before + 0.3 * fresh);
  // The kept target still agrees.
  EXPECT_EQ(cut.measure_delay_ping(0, 6), uncut.measure_delay_ping(0, 6));
}

TEST(EnvironmentPlaneTest, ProceduralDriftIsBoundedAndMoves) {
  Environment env(32, 3, sparse_config(net::UnderlayKind::kProcedural));
  const double base = env.delays().delay(2, 5);
  bool moved = false;
  double previous = env.true_delay(2, 5);
  for (int step = 0; step < 50; ++step) {
    env.advance(30.0);
    const double now = env.true_delay(2, 5);
    const auto& config = env.substrate()->config();
    EXPECT_GE(now, base * (1.0 - config.delay_drift_cap) - 1e-9);
    EXPECT_LE(now, base * (1.0 + config.delay_drift_cap) + 1e-9);
    moved = moved || now != previous;
    previous = now;
  }
  EXPECT_TRUE(moved);
}

TEST(EnvironmentPlaneTest, IdenticallySeededPlanesLockstepOnBothBackends) {
  for (const auto kind :
       {net::UnderlayKind::kDense, net::UnderlayKind::kProcedural}) {
    auto substrate = std::make_shared<Substrate>(16, 9, sparse_config(kind));
    Environment a(substrate, 21);
    Environment b(substrate, 21);
    for (int step = 0; step < 4; ++step) {
      a.advance(15.0);
      b.advance(15.0);
      for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 16; ++j) {
          if (i == j) continue;
          EXPECT_DOUBLE_EQ(a.true_delay(i, j), b.true_delay(i, j));
          EXPECT_DOUBLE_EQ(a.measure_delay_ping(i, j),
                           b.measure_delay_ping(i, j));
        }
        EXPECT_DOUBLE_EQ(a.measure_load(i), b.measure_load(i));
        EXPECT_DOUBLE_EQ(a.measure_avail_bw(i, (i + 1) % 16),
                         b.measure_avail_bw(i, (i + 1) % 16));
      }
    }
  }
}

TEST(SubstrateTest, MemoryBytesReflectsBackendChoice) {
  Substrate dense(64, 1, [] {
    EnvironmentConfig c;
    c.coord_warmup_rounds = 5;
    return c;
  }());
  Substrate procedural(64, 1, sparse_config(net::UnderlayKind::kProcedural));
  EXPECT_EQ(dense.underlay_kind(), net::UnderlayKind::kDense);
  EXPECT_EQ(procedural.underlay_kind(), net::UnderlayKind::kProcedural);
  EXPECT_LT(procedural.memory_bytes(), dense.memory_bytes());
  EXPECT_EQ(dense.size(), 64u);
  EXPECT_EQ(procedural.size(), 64u);
}

}  // namespace
}  // namespace egoist::overlay
