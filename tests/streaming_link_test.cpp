// Streaming tiled nearest-link engine: the contract under test is
// bit-identity — streaming_nearest_link must return the exact
// LinkResult (candidates AND total_distance) that the dense
// nearest_link_search(distance_matrix(...)) path returns, across
// problem shapes, pools wider than one tile, tie-heavy inputs and
// heap-exhausted fallback storms. The engine has no settings: k and
// the tile width are constants, and pass 1 splits the seed rows across
// the default pool, so tests/CMakeLists.txt runs these tests again
// under PATCHDB_THREADS=1 and =8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/augment.h"
#include "core/distance.h"
#include "core/link_kernel.h"
#include "core/nearest_link.h"
#include "core/streaming_link.h"
#include "corpus/world.h"
#include "feature/features.h"
#include "obs/metrics.h"
#include "palette_features.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace patchdb;
using test_util::make_palette;
using test_util::Palette;
using test_util::palette_features;

feature::FeatureMatrix random_features(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  feature::FeatureMatrix m(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
      m[i][j] = rng.uniform(-10, 10);
    }
  }
  return m;
}

core::LinkResult dense_link(const feature::FeatureMatrix& sec,
                            const feature::FeatureMatrix& wild,
                            std::span<const double> weights) {
  const core::DistanceMatrix d = core::distance_matrix(sec, wild, weights);
  return core::nearest_link_search(d);
}

/// The engine's fixed tile width and list length: the shapes below span
/// several tiles and give one list more seeds than it holds.
constexpr std::size_t kTileCols = 2048;
constexpr std::size_t kTopK = 24;

/// The engine's LinkResult, required bit-equal to the dense oracle's.
core::StreamingLinkStats expect_matches_dense(const feature::FeatureMatrix& sec,
                                              const feature::FeatureMatrix& wild,
                                              std::span<const double> w,
                                              const std::string& label) {
  const core::LinkResult dense = dense_link(sec, wild, w);
  core::StreamingLinkStats stats;
  const core::LinkResult stream = core::streaming_nearest_link(sec, wild, w, &stats);
  EXPECT_EQ(dense.candidate, stream.candidate) << label;
  // Bitwise, not approximate: both paths must accumulate the identical
  // float cells in the identical order.
  EXPECT_EQ(dense.total_distance, stream.total_distance) << label;
  EXPECT_EQ(stats.topk_hits + stats.fallback_rescans, sec.rows()) << label;
  EXPECT_EQ(stats.threads,
            std::min(util::default_pool_threads(), stats.distinct_rows))
      << label;
  return stats;
}

TEST(StreamingLink, PropertySweepMatchesDenseBitwise) {
  // The last two shapes are wider than one tile and end in a partial
  // block, so every row's heap fills across several tiles.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 5}, {3, 8}, {10, 40}, {25, 200}, {40, 400}, {30, 2100}, {40, 8300}};
  for (const auto& [m, n] : shapes) {
    for (std::uint64_t seed : {11ULL, 29ULL}) {
      const auto sec = random_features(m, seed);
      const auto wild = random_features(n, seed + 1000);
      const std::vector<double> w = core::maxabs_weights(sec, wild);
      const core::StreamingLinkStats stats = expect_matches_dense(
          sec, wild, w,
          "m=" + std::to_string(m) + " n=" + std::to_string(n) +
              " seed=" + std::to_string(seed));
      EXPECT_EQ(stats.tiles, (n + kTileCols - 1) / kTileCols);
    }
  }

  // Uniform columns all have about the same norm. Scaling pool row c by
  // 1 + floor(c/64) gives every 64-column block its own norm band, so
  // whole far blocks clear the full heap's bar — in one tile and across
  // three — without changing a bit of the result.
  for (const std::size_t n : {700UL, 2000UL, 4500UL}) {
    const std::size_t m = 30;
    const auto sec = random_features(m, 61);
    auto wild = random_features(n, 62);
    for (std::size_t c = 0; c < n; ++c) {
      for (double& v : wild[c]) v *= static_cast<double>(1 + c / 64);
    }
    const std::vector<double> w = core::maxabs_weights(sec, wild);
    expect_matches_dense(sec, wild, w, "scaled n=" + std::to_string(n));
  }

  // Pool columns on the seed's own ray: the first block holds 1.10 x
  // the seed, the second 1.07 x, each column nudged apart. The heap
  // fills from the first block, and the nearest columns lie in the
  // second — a block rejection that skipped it would lose the link.
  const auto seed = random_features(1, 71);
  feature::FeatureMatrix ray(2 * core::kLinkGroupCols);
  for (std::size_t c = 0; c < ray.rows(); ++c) {
    const double t = c < core::kLinkGroupCols ? 1.10 : 1.07;
    for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
      ray[c][j] = seed[0][j] * t;
    }
    ray[c][c % feature::kFeatureCount] +=
        1e-3 * static_cast<double>(1 + c % core::kLinkGroupCols);
  }
  const std::vector<double> w = core::maxabs_weights(seed, ray);
  const core::LinkResult dense = dense_link(seed, ray, w);
  ASSERT_GE(dense.candidate[0], core::kLinkGroupCols);
  expect_matches_dense(seed, ray, w, "columns on the seed's ray");
}

TEST(StreamingLink, TiesBreakTowardLowestColumn) {
  // Every security row identical and every wild commit identical: all
  // M x N distances tie, so the dense greedy's strict `<` scans keep
  // the lowest row first and the lowest column per row. The streaming
  // path must order rows by (u, row) and candidates by
  // (distance, column) lexicographically to reproduce that.
  const auto sec_one = random_features(1, 5);
  feature::FeatureMatrix sec(3);
  for (std::size_t i = 0; i < sec.rows(); ++i) sec.set_row(i, sec_one[0]);
  feature::FeatureMatrix wild(5);
  const auto one = random_features(1, 6);
  for (std::size_t i = 0; i < wild.rows(); ++i) wild.set_row(i, one[0]);

  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);
  const core::LinkResult stream = core::streaming_nearest_link(sec, wild, w);

  EXPECT_EQ(dense.candidate, stream.candidate);
  EXPECT_EQ(dense.total_distance, stream.total_distance);
  // With all columns equidistant, rows claim columns in index order.
  EXPECT_EQ(stream.candidate, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(StreamingLink, DuplicatePaletteSweepMatchesDenseBitwise) {
  // Uniform random features never repeat, so the sweeps above never
  // reach a group of more than one row. Palette features do: seeds and
  // pool columns collapse into a few distinct vectors, members of a
  // group are taken one by one, and distinct groups tie all the time.
  // Seeds and pool draw from different palettes, so most seeds have no
  // exact match, and the tight shapes use up whole groups.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {3, 8}, {20, 25}, {60, 700}, {120, 150}, {120, 1500}};
  std::size_t fallbacks = 0;
  const auto sweep = [&](std::size_t seed_size, std::size_t pool_size,
                         std::size_t m, std::size_t n) {
    const Palette seeds = make_palette(seed_size, 900 + seed_size);
    const Palette pool = make_palette(pool_size, 800 + pool_size);
    const auto sec = palette_features(seeds, m, 31 * m + seed_size);
    const auto wild = palette_features(pool, n, 37 * n + pool_size);
    const std::vector<double> w = core::maxabs_weights(sec, wild);
    const core::StreamingLinkStats stats = expect_matches_dense(
        sec, wild, w,
        "palettes=" + std::to_string(seed_size) + "/" +
            std::to_string(pool_size) + " m=" + std::to_string(m) +
            " n=" + std::to_string(n));
    EXPECT_EQ(stats.distinct_rows, std::min(m, seed_size));
    EXPECT_EQ(stats.distinct_cols, std::min(n, pool_size));
    fallbacks += stats.fallback_rescans;
    return stats;
  };
  for (const std::size_t size : {1UL, 2UL, 5UL, 17UL, 300UL}) {
    for (const auto& [m, n] : shapes) sweep(size, size, m, n);
  }
  // A 2,500-vector pool palette is wider than one tile, so its groups
  // span tiles. Seeds drawn from two vectors share two 24-entry lists,
  // use them up and re-scan.
  for (const std::size_t seed_size : {2UL, 2500UL}) {
    for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{60, 3000},
                               {300, 2600}}) {
      const core::StreamingLinkStats stats = sweep(seed_size, 2500, m, n);
      EXPECT_EQ(stats.tiles, 2u);
      EXPECT_NE(stats.distinct_cols % core::kLinkGroupCols, 0u);
    }
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(StreamingLink, EquidistantGroupsTieToLowestUnusedMember) {
  // Three all-zero seeds against pool columns [+e1, -e1, -e1, +e1]:
  // groups A = {0, 3} and B = {1, 2}, and every distance is exactly 1.
  // Dense takes columns 0, 1, 2. Once column 0 is gone, B's member 1
  // must beat A's member 3 — a pick that preferred the lowest group id
  // would take column 3 for the second seed. The cached list holds
  // both groups and decides every pick.
  {
    const feature::FeatureMatrix sec(3);
    feature::FeatureMatrix wild(4);
    wild[0][0] = 1.0;
    wild[1][0] = -1.0;
    wild[2][0] = -1.0;
    wild[3][0] = 1.0;
    const std::vector<double> w = core::maxabs_weights(sec, wild);
    const core::LinkResult dense = dense_link(sec, wild, w);
    ASSERT_EQ(dense.candidate, (std::vector<std::size_t>{0, 1, 2}));
    const core::StreamingLinkStats stats =
        expect_matches_dense(sec, wild, w, "two groups");
    EXPECT_EQ(stats.distinct_rows, 1u);
    EXPECT_EQ(stats.distinct_cols, 2u);
    EXPECT_EQ(stats.fallback_rescans, 0u);
  }

  // The same rule on the re-scan path. 26 unit vectors ±e_j, all at
  // distance 1 from 25 zero seeds: A = {0, 26} holds +e0, and columns
  // 1-25 are singleton groups. The 24-entry list holds A and the
  // groups of columns 1-23, so the first 24 seeds take columns 0-23
  // from it. The 25th finds only A's column 26 left in its list, which
  // cannot rule out the outside groups, and re-scans: dense takes
  // column 24, where a group-id rule would take A's 26.
  const feature::FeatureMatrix sec(kTopK + 1);
  feature::FeatureMatrix wild(kTopK + 3);
  for (std::size_t c = 0; c < 26; ++c) wild[c][c / 2] = c % 2 == 0 ? 1.0 : -1.0;
  wild[26][0] = 1.0;
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);
  ASSERT_EQ(dense.candidate.back(), 24u);
  const core::StreamingLinkStats stats =
      expect_matches_dense(sec, wild, w, "26 groups");
  EXPECT_EQ(stats.distinct_cols, 26u);
  EXPECT_EQ(stats.fallback_rescans, 1u);
}

TEST(StreamingLink, HeapExhaustedFallbackStillBitIdentical) {
  // Identical security rows share one 24-entry list; with 30 such rows,
  // six find their whole list consumed by earlier links and must take
  // the tracked full-row re-scan — the dense collision path.
  const auto one = random_features(1, 77);
  feature::FeatureMatrix sec(kTopK + 6);
  for (std::size_t i = 0; i < sec.rows(); ++i) sec.set_row(i, one[0]);
  const auto wild = random_features(60, 78);

  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::StreamingLinkStats stats =
      expect_matches_dense(sec, wild, w, "one shared list");
  EXPECT_EQ(stats.fallback_rescans, 6u);
}

TEST(StreamingLink, RecordsObsCounters) {
  obs::MetricsRegistry registry;
  auto* previous = obs::install_registry(&registry);

  const auto sec = random_features(8, 3);
  const auto wild = random_features(4500, 4);  // three tiles
  const core::LinkResult link = core::streaming_nearest_link(sec, wild);
  obs::install_registry(previous);

  ASSERT_EQ(link.candidate.size(), 8u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("distance.tiles"), 3u);
  EXPECT_GT(snap.counter("distance.cells"), 0u);
  EXPECT_EQ(snap.counter("nearest_link.topk_hits") +
                snap.counter("nearest_link.fallback_rescans"),
            8u);
  EXPECT_EQ(snap.counter("nearest_link.links"), 8u);
  // Uniform rows never repeat; palette rows collapse to the palette.
  EXPECT_EQ(snap.counter("nearest_link.distinct_rows"), 8u);
  EXPECT_EQ(snap.counter("nearest_link.distinct_cols"), 4500u);

  obs::MetricsRegistry palette_registry;
  previous = obs::install_registry(&palette_registry);
  const Palette palette = make_palette(5, 17);
  core::streaming_nearest_link(palette_features(palette, 8, 5),
                               palette_features(palette, 300, 6));
  obs::install_registry(previous);
  const obs::MetricsSnapshot palette_snap = palette_registry.snapshot();
  EXPECT_EQ(palette_snap.counter("nearest_link.distinct_rows"), 5u);
  EXPECT_EQ(palette_snap.counter("nearest_link.distinct_cols"), 5u);
  EXPECT_EQ(palette_snap.counter("nearest_link.links"), 8u);
}

TEST(StreamingLink, LearnedWeightsOverloadMatchesDense) {
  const auto sec = random_features(6, 41);
  const auto wild = random_features(60, 42);
  const core::LinkResult dense =
      dense_link(sec, wild, core::maxabs_weights(sec, wild));
  const core::LinkResult stream = core::streaming_nearest_link(sec, wild);
  EXPECT_EQ(dense.candidate, stream.candidate);
  EXPECT_EQ(dense.total_distance, stream.total_distance);
}

TEST(StreamingLink, RejectsBadShapes) {
  const auto sec = random_features(10, 1);
  const auto wild = random_features(5, 2);
  EXPECT_THROW(core::streaming_nearest_link(sec, wild),
               std::invalid_argument);
  const std::vector<double> short_weights(3, 1.0);
  const auto pool = random_features(20, 3);
  EXPECT_THROW(core::streaming_nearest_link(sec, pool, short_weights),
               std::invalid_argument);
}

TEST(StreamingLinkKernel, BlockKernelMatchesScalarCellBitwise) {
  // The vectorizable block kernel must reproduce the scalar l2_cell
  // bit-for-bit in every lane, for full and zero-padded partial blocks.
  util::Rng rng(515);
  const std::size_t dims = feature::kFeatureCount;
  for (std::size_t width : {1UL, 7UL, core::kLinkGroupCols}) {
    std::vector<float> a(dims);
    std::vector<float> cols(width * dims);
    for (float& v : a) v = static_cast<float>(rng.uniform(-3, 3));
    for (float& v : cols) v = static_cast<float>(rng.uniform(-3, 3));

    std::vector<float> packed(core::kLinkGroupCols * dims);
    core::pack_cols_dim_major(cols.data(), width, dims, packed.data());
    std::vector<float> lane(core::kLinkGroupCols);
    core::l2_cell_block(a.data(), packed.data(), dims, lane.data());
    for (std::size_t c = 0; c < width; ++c) {
      EXPECT_EQ(lane[c], core::l2_cell(a.data(), cols.data() + c * dims, dims))
          << "width=" << width << " lane=" << c;
    }
  }
}

TEST(StreamingLinkParallel, DeterministicAcrossThreadsAndTiles) {
  // Five tiles, the last ending mid-block: pass 1 splits the 30 rows
  // across the workers and must give the dense LinkResult, bitwise,
  // under every pool size ctest runs it with.
  const std::size_t m = 30;
  const std::size_t n = 8300;
  const auto sec = random_features(m, 101);
  const auto wild = random_features(n, 102);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::StreamingLinkStats stats =
      expect_matches_dense(sec, wild, w, "five tiles");
  EXPECT_EQ(stats.tiles, 5u);
  EXPECT_NE(n % core::kLinkGroupCols, 0u);
}

TEST(StreamingLinkParallel, FallbackRescanDeterministicAcrossThreads) {
  // Identical security rows share one list, so most rows exhaust it and
  // take the fallback re-scan over a pool of two tiles; its minimum
  // must match the dense collision handling under every pool size.
  const auto one = random_features(1, 313);
  feature::FeatureMatrix sec(3 * kTopK);
  for (std::size_t i = 0; i < sec.rows(); ++i) sec.set_row(i, one[0]);
  const auto wild = random_features(2500, 314);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::StreamingLinkStats stats =
      expect_matches_dense(sec, wild, w, "shared list, two tiles");
  EXPECT_EQ(stats.fallback_rescans, 2 * kTopK);
  EXPECT_EQ(stats.tiles, 2u);
}

/// Run the loop for `rounds` rounds, replay them in test code on the
/// dense oracle — the full matrix and greedy link, oracle verification,
/// and the loop's highest-index-first swap-erase — and require the same
/// verified and rejected commits. Each side gets its own copy of the
/// world, so neither oracle sees the other's queries.
void expect_loop_matches_dense_replay(const corpus::WorldConfig& config,
                                      int rounds) {
  corpus::World loop_world = corpus::build_world(config);
  corpus::World replay_world = corpus::build_world(config);
  const auto commits = [](const std::vector<const corpus::CommitRecord*>& rs) {
    std::vector<std::string> out;
    for (const corpus::CommitRecord* r : rs) out.push_back(r->patch.commit);
    return out;
  };
  const auto pointers = [](const std::vector<corpus::CommitRecord>& rs) {
    std::vector<const corpus::CommitRecord*> out;
    for (const corpus::CommitRecord& r : rs) out.push_back(&r);
    return out;
  };

  core::AugmentationLoop loop(pointers(loop_world.nvd_security),
                              loop_world.oracle);
  loop.set_pool(pointers(loop_world.wild));
  core::AugmentOptions options;
  options.max_rounds = static_cast<std::size_t>(rounds);
  loop.run(options);

  feature::FeatureMatrix security(0);
  for (const corpus::CommitRecord& r : replay_world.nvd_security) {
    security.push_back(feature::extract(r.patch));
  }
  std::vector<const corpus::CommitRecord*> pool = pointers(replay_world.wild);
  std::vector<std::string> found;
  std::vector<std::string> rejected;
  for (int round = 0; round < rounds; ++round) {
    feature::FeatureMatrix pool_features(0);
    for (const corpus::CommitRecord* r : pool) {
      pool_features.push_back(feature::extract(r->patch));
    }
    ASSERT_GT(pool.size(), security.rows());  // the link path, not take-all
    const core::LinkResult link = core::nearest_link_search(
        core::distance_matrix(security, pool_features));
    for (const std::size_t idx : link.candidate) {
      const std::string& commit = pool[idx]->patch.commit;
      if (replay_world.oracle.verify_security(commit)) {
        found.push_back(commit);
        security.push_back(pool_features[idx]);
      } else {
        rejected.push_back(commit);
      }
    }
    std::vector<std::size_t> order = link.candidate;
    std::sort(order.begin(), order.end(), std::greater<>());
    for (const std::size_t idx : order) {
      pool[idx] = pool.back();
      pool.pop_back();
    }
  }

  ASSERT_FALSE(found.empty());
  EXPECT_EQ(commits(loop.wild_security()), found);
  EXPECT_EQ(commits(loop.nonsecurity()), rejected);
  EXPECT_EQ(loop.pool_remaining(), pool.size());
}

TEST(StreamingLink, AugmentationLoopStreamingMatchesDense) {
  // The loop links only through the streaming engine; two rounds of it
  // must match the dense replay.
  corpus::WorldConfig config;
  config.repos = 6;
  config.nvd_security = 25;
  config.wild_pool = 250;
  config.wild_security_rate = 0.12;
  config.seed = 4242;
  expect_loop_matches_dense_replay(config, 2);
}

TEST(StreamingLink, AugmentationLoopFiveRoundsOnDuplicatePoolMatchesDense) {
  // A pipeline-shaped world: simulated commits repeat feature vectors,
  // so every round links groups of identical seeds and pool columns.
  corpus::WorldConfig config;
  config.repos = 8;
  config.nvd_security = 60;
  config.wild_pool = 1500;
  config.seed = 2020;
  const corpus::World world = corpus::build_world(config);
  std::set<std::vector<double>> distinct;
  for (const corpus::CommitRecord& r : world.wild) {
    const feature::FeatureVector v = feature::extract(r.patch);
    distinct.emplace(v.begin(), v.end());
  }
  ASSERT_LT(distinct.size(), world.wild.size() * 3 / 4)
      << "the pool should hold many duplicate feature vectors";
  expect_loop_matches_dense_replay(config, 5);
}

}  // namespace
