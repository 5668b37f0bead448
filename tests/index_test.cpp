// Phase-0 Index backends (core/index.h): the contract under test is
// NOT recall — it is (a) the pending bound: every column a shortlist
// leaves out must sit at least pending_lb away from the query under the
// exact float kernel, and (b) end-to-end bit-identity: the streaming
// engine with any index backend must return the exact LinkResult of the
// dense path, with the unprovable picks absorbed by counted fallback
// rescans. kExact must additionally shortlist everything (recall 1.0).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/distance.h"
#include "core/index.h"
#include "core/nearest_link.h"
#include "core/streaming_link.h"
#include "feature/features.h"
#include "obs/metrics.h"
#include "palette_features.h"
#include "util/rng.h"

namespace {

using namespace patchdb;

/// Raw scaled-feature-style columns: row-major, column c at c*dims.
std::vector<float> random_cols(std::size_t n, std::size_t dims,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out(n * dims);
  for (float& v : out) v = static_cast<float>(rng.uniform(-10, 10));
  return out;
}

/// Gaussian-mixture-style columns — the regime an index helps in
/// (uniform data keeps every geometric bound vacuous in high dims).
std::vector<float> clustered_cols(std::size_t n, std::size_t dims,
                                  std::size_t centers, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> c(centers * dims);
  for (double& v : c) v = rng.uniform(-10, 10);
  std::vector<float> out(n * dims);
  for (std::size_t i = 0; i < n; ++i) {
    const double* center = c.data() + rng.index(centers) * dims;
    for (std::size_t j = 0; j < dims; ++j) {
      out[i * dims + j] =
          static_cast<float>(center[j] + rng.uniform(-0.5, 0.5));
    }
  }
  return out;
}

/// Clustered FeatureMatrix pair for the end-to-end engine tests.
feature::FeatureMatrix clustered_features(std::size_t rows,
                                          std::size_t centers,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> c(centers * feature::kFeatureCount);
  for (double& v : c) v = rng.uniform(-10, 10);
  feature::FeatureMatrix m(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* center =
        c.data() + rng.index(centers) * feature::kFeatureCount;
    for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
      m[i][j] = center[j] + rng.uniform(-0.5, 0.5);
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

void expect_valid_permutation(std::span<const std::uint32_t> ord,
                              std::size_t n) {
  ASSERT_EQ(ord.size(), n);
  std::vector<char> seen(n, 0);
  for (const std::uint32_t c : ord) {
    ASSERT_LT(c, n);
    EXPECT_FALSE(seen[c]) << "duplicate column " << c << " in ordering";
    seen[c] = 1;
  }
}

TEST(IndexExact, ShortlistsEverythingWithNothingPending) {
  const std::size_t n = 137;
  const std::size_t dims = 16;
  const std::vector<float> cols = random_cols(n, dims, 1);
  const auto index = core::make_index(core::IndexConfig{});
  ASSERT_EQ(index->kind(), core::IndexKind::kExact);
  index->build(cols.data(), n, dims);
  expect_valid_permutation(index->ordering(), n);
  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_EQ(index->ordering()[c], c);  // identity: byte-identical stream
  }

  const std::vector<float> q = random_cols(1, dims, 2);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  const core::IndexShortlist sl = index->shortlist(q.data(), 8, ranges);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0u);
  EXPECT_EQ(ranges[0].second, n);
  EXPECT_EQ(sl.cols, n);  // recall 1.0 by construction
  EXPECT_EQ(sl.probes, 1u);
  EXPECT_TRUE(std::isinf(sl.pending_lb));
}

/// The property every approximate backend must satisfy: any column the
/// shortlist leaves out is provably at least pending_lb away from the
/// query under the exact float kernel the engine scores with.
void check_pending_bound(core::IndexKind kind, std::size_t n,
                         std::size_t dims, std::uint64_t seed,
                         std::size_t nprobe) {
  const std::vector<float> cols = clustered_cols(n, dims, 6, seed);
  core::IndexConfig config;
  config.kind = kind;
  config.nprobe = nprobe;
  const auto index = core::make_index(config);
  index->build(cols.data(), n, dims);
  const auto ord = index->ordering();
  expect_valid_permutation(ord, n);

  const std::size_t k = 8;
  const std::vector<float> queries = clustered_cols(24, dims, 6, seed + 99);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  for (std::size_t qi = 0; qi < 24; ++qi) {
    const float* q = queries.data() + qi * dims;
    ranges.clear();
    const core::IndexShortlist sl = index->shortlist(q, k, ranges);
    std::vector<char> covered(n, 0);
    std::size_t covered_count = 0;
    for (const auto& [lo, hi] : ranges) {
      ASSERT_LE(lo, hi);
      ASSERT_LE(hi, n);
      for (std::uint32_t p = lo; p < hi; ++p) {
        covered[ord[p]] = 1;
        ++covered_count;
      }
    }
    EXPECT_EQ(covered_count, sl.cols);
    EXPECT_GE(sl.cols, std::min(k, n));  // enough candidates to fill a heap
    EXPECT_GE(sl.probes, 1u);
    for (std::size_t c = 0; c < n; ++c) {
      if (covered[c]) continue;
      EXPECT_GE(core::l2_cell(q, cols.data() + c * dims, dims), sl.pending_lb)
          << "backend " << core::index_kind_name(kind) << " query " << qi
          << " column " << c << " beats the pending bound";
    }
  }
}

TEST(IndexCoarse, PendingBoundIsConservative) {
  check_pending_bound(core::IndexKind::kCoarse, 300, 16, 7, 2);
  check_pending_bound(core::IndexKind::kCoarse, 300, feature::kFeatureCount,
                      8, 2);
}

TEST(IndexBackends, EmptyAndSingleColumnDatasets) {
  for (const core::IndexKind kind :
       {core::IndexKind::kExact, core::IndexKind::kCoarse}) {
    core::IndexConfig config;
    config.kind = kind;
    const auto index = core::make_index(config);

    index->build(nullptr, 0, 16);
    EXPECT_TRUE(index->ordering().empty());
    const std::vector<float> q = random_cols(1, 16, 3);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    core::IndexShortlist sl = index->shortlist(q.data(), 4, ranges);
    EXPECT_TRUE(ranges.empty());
    EXPECT_EQ(sl.cols, 0u);
    EXPECT_TRUE(std::isinf(sl.pending_lb));

    const std::vector<float> one = random_cols(1, 16, 4);
    index->build(one.data(), 1, 16);
    expect_valid_permutation(index->ordering(), 1);
    ranges.clear();
    sl = index->shortlist(q.data(), 4, ranges);
    EXPECT_EQ(sl.cols, 1u);  // the only column must be shortlisted
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(index->ordering()[ranges[0].first], 0u);
  }
}

TEST(IndexConfigParsing, RejectsNprobeZeroAndUnknownKinds) {
  core::IndexConfig config;
  config.nprobe = 0;
  config.kind = core::IndexKind::kCoarse;
  EXPECT_THROW(core::make_index(config), std::invalid_argument);
  config.kind = core::IndexKind::kExact;  // passthrough ignores nprobe
  EXPECT_NO_THROW(core::make_index(config));

  EXPECT_EQ(core::parse_index_kind("exact"), core::IndexKind::kExact);
  EXPECT_EQ(core::parse_index_kind("coarse"), core::IndexKind::kCoarse);
  EXPECT_THROW(core::parse_index_kind("ivf"), std::invalid_argument);
  EXPECT_THROW(core::parse_index_kind(""), std::invalid_argument);
  // "rproj" names a deleted backend and must not parse.
  EXPECT_THROW(core::parse_index_kind("rproj"), std::invalid_argument);
  for (const core::IndexKind kind :
       {core::IndexKind::kExact, core::IndexKind::kCoarse}) {
    EXPECT_EQ(core::parse_index_kind(core::index_kind_name(kind)), kind);
  }
}

TEST(IndexStreamingLink, ExactBackendMatchesPlainStreaming) {
  const auto sec = clustered_features(20, 5, 21);
  const auto wild = clustered_features(300, 5, 22);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);

  core::StreamingLinkConfig config;
  config.index.kind = core::IndexKind::kExact;
  core::StreamingLinkStats stats;
  const core::LinkResult stream =
      core::streaming_nearest_link(sec, wild, w, config, &stats);
  EXPECT_EQ(dense.candidate, stream.candidate);
  EXPECT_EQ(dense.total_distance, stream.total_distance);
  // Passthrough: no probes, no screening, no index rescans recorded.
  EXPECT_EQ(stats.index_probes, 0u);
  EXPECT_EQ(stats.index_screened_cells, 0u);
  EXPECT_EQ(stats.index_fallback_rescans, 0u);
}

TEST(IndexStreamingLink, CoarseBitIdenticalAcrossSweep) {
  // The tentpole contract: every nprobe x threads x tile produces the
  // dense LinkResult bitwise. Approximation quality only moves the
  // probe/screen/fallback counters.
  const std::size_t m = 25;
  const std::size_t n = 400;
  const auto sec = clustered_features(m, 8, 51);
  const auto wild = clustered_features(n, 8, 52);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);

  for (const std::size_t nprobe : {1UL, 4UL}) {
    for (const std::size_t threads : {1UL, 4UL}) {
      for (const std::size_t tile : {64UL, 257UL}) {
        core::StreamingLinkConfig config;
        config.top_k = 8;
        config.tile_cols = tile;
        config.threads = threads;
        config.index.kind = core::IndexKind::kCoarse;
        config.index.nprobe = nprobe;
        core::StreamingLinkStats stats;
        const core::LinkResult stream =
            core::streaming_nearest_link(sec, wild, w, config, &stats);
        const auto label = [&] {
          return "nprobe=" + std::to_string(nprobe) + " threads=" +
                 std::to_string(threads) + " tile=" + std::to_string(tile);
        };
        EXPECT_EQ(dense.candidate, stream.candidate) << label();
        EXPECT_EQ(dense.total_distance, stream.total_distance) << label();
        EXPECT_EQ(stats.topk_hits + stats.fallback_rescans, m) << label();
        EXPECT_GE(stats.index_probes, m) << label();  // >= 1 probe per row
        EXPECT_GE(stats.index_shortlist_cols, m) << label();
      }
    }
  }
}

TEST(IndexStreamingLink, FallbackStormStaysBitIdenticalAndCounted) {
  // Identical security rows drain each other's shortlisted candidates,
  // so most picks are unprovable and must take the counted exact
  // rescans — the escape hatch that keeps approximation honest.
  const auto one = clustered_features(1, 3, 71);
  feature::FeatureMatrix sec(12);
  for (std::size_t i = 0; i < sec.rows(); ++i) sec.set_row(i, one[0]);
  const auto wild = clustered_features(120, 3, 72);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);

  obs::MetricsRegistry registry;
  auto* previous = obs::install_registry(&registry);
  core::StreamingLinkConfig config;
  config.top_k = 2;
  config.index.kind = core::IndexKind::kCoarse;
  config.index.nprobe = 1;
  core::StreamingLinkStats stats;
  const core::LinkResult stream =
      core::streaming_nearest_link(sec, wild, w, config, &stats);
  obs::install_registry(previous);

  EXPECT_EQ(dense.candidate, stream.candidate);
  EXPECT_EQ(dense.total_distance, stream.total_distance);
  EXPECT_EQ(stats.topk_hits + stats.fallback_rescans, sec.rows());
  EXPECT_GT(stats.fallback_rescans, 0u);
  EXPECT_GT(stats.index_fallback_rescans, 0u);

  // The obs artifact view the acceptance criteria name.
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("index.fallback_rescans"),
            stats.index_fallback_rescans);
  EXPECT_EQ(snap.counter("index.probes"), stats.index_probes);
  EXPECT_EQ(snap.counter("index.shortlist_cols"), stats.index_shortlist_cols);
  EXPECT_EQ(snap.counter("index.screened_cells"), stats.index_screened_cells);
}

TEST(IndexStreamingLink, DuplicatePaletteSweepMatchesDenseBitwise) {
  // Phase 0 indexes distinct pool vectors and bounds distinct seeds, so
  // on duplicate-heavy rows the pending bound, the verified heads and
  // the group-aware pick must still give the dense answer bitwise.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {3, 8}, {20, 25}, {60, 700}, {120, 150}, {120, 1500}};
  for (const std::size_t size : {1UL, 2UL, 5UL, 17UL, 300UL}) {
    const test_util::Palette seeds = test_util::make_palette(size, 700 + size);
    const test_util::Palette pool = test_util::make_palette(size, 600 + size);
    for (const auto& [m, n] : shapes) {
      const auto sec = test_util::palette_features(seeds, m, 41 * m + size);
      const auto wild = test_util::palette_features(pool, n, 43 * n + size);
      const std::vector<double> w = core::maxabs_weights(sec, wild);
      const core::LinkResult dense = dense_link(sec, wild, w);
      for (const std::size_t k : {1UL, 2UL, 24UL}) {
        for (const std::size_t nprobe : {1UL, 4UL}) {
          for (const std::size_t threads : {1UL, 8UL}) {
            core::StreamingLinkConfig config;
            config.top_k = k;
            config.threads = threads;
            config.tile_cols = 64;
            config.index.kind = core::IndexKind::kCoarse;
            config.index.nprobe = nprobe;
            core::StreamingLinkStats stats;
            const core::LinkResult stream =
                core::streaming_nearest_link(sec, wild, w, config, &stats);
            const auto label = [&] {
              return "palette=" + std::to_string(size) + " m=" +
                     std::to_string(m) + " n=" + std::to_string(n) +
                     " k=" + std::to_string(k) + " nprobe=" +
                     std::to_string(nprobe) + " threads=" +
                     std::to_string(threads);
            };
            EXPECT_EQ(dense.candidate, stream.candidate) << label();
            EXPECT_EQ(dense.total_distance, stream.total_distance) << label();
            EXPECT_EQ(stats.topk_hits + stats.fallback_rescans, m) << label();
          }
        }
      }
    }
  }
}

TEST(IndexStreamingLink, DeterministicAcrossThreadsTilesAndCaps) {
  // Same sweep shape as StreamingLinkParallel, with the index on: the
  // TSan job runs this under PATCHDB_THREADS=4 to prove the phase-0
  // shortlist pass and the permuted stream stay race-free.
  const std::size_t m = 20;
  const std::size_t n = 500;
  const auto sec = clustered_features(m, 6, 81);
  const auto wild = clustered_features(n, 6, 82);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);

  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    for (const std::size_t cap : {0UL, 96UL * 1024UL}) {
      core::StreamingLinkConfig config;
      config.top_k = 8;
      config.tile_cols = 257;
      config.threads = threads;
      config.memory_cap_bytes = cap;
      config.index.kind = core::IndexKind::kCoarse;
      core::StreamingLinkStats stats;
      const core::LinkResult stream =
          core::streaming_nearest_link(sec, wild, w, config, &stats);
      EXPECT_EQ(dense.candidate, stream.candidate)
          << "threads=" << threads << " cap=" << cap;
      EXPECT_EQ(dense.total_distance, stream.total_distance)
          << "threads=" << threads << " cap=" << cap;
      if (cap > 0) {
        EXPECT_LE(stats.working_set_bytes, cap);
      }
    }
  }
}

}  // namespace
