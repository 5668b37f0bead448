// Ablation: the nearest link design choices (Section III-B).
//
//   1. Assignment strategy — Algorithm 1's greedy vs the exact
//      (Hungarian) assignment vs per-row argmin (KNN-style, reuse
//      allowed): candidate precision, distinct-candidate count, total
//      link distance, wall time.
//   2. Feature weighting — the paper's max-abs weights vs z-score vs no
//      weighting: candidate precision of the greedy search under each.
//   3. Search-range scaling — candidate precision as the pool grows
//      (the paper's "larger search range enables a higher ratio" claim,
//      measured densely rather than at two points).
//   4. Dense vs streaming engine — wall time and peak working set of
//      the materialized M x N matrix against the tiled top-k engine on
//      a 1000 x 100000 synthetic pool, with a bitwise equality check.
//
// Arms 1 and 4 need the whole matrix; 2 and 3 link through the
// streaming engine, as the pipeline does.
#include <cmath>
#include <cstdio>
#include <set>

#include "bench_common.h"
#include "core/distance.h"
#include "core/nearest_link.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using namespace patchdb;

double precision_of(const corpus::World& world,
                    const std::vector<const corpus::CommitRecord*>& pool,
                    const std::vector<std::size_t>& candidates) {
  if (candidates.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t idx : candidates) {
    hits += world.oracle.truth(pool[idx]->patch.commit).is_security;
  }
  return static_cast<double>(hits) / static_cast<double>(candidates.size());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(
      "Ablation — nearest link design choices", argc, argv);
  const double scale = session.scale();

  corpus::WorldConfig config;
  config.repos = 40;
  config.nvd_security = bench::scaled(250, scale);
  config.wild_pool = bench::scaled(12000, scale);
  config.wild_security_rate = 0.08;
  config.keep_nvd_snapshots = false;
  config.seed = 90909;
  corpus::World world = corpus::build_world(config);

  const auto seed_ptrs = bench::as_pointers(world.nvd_security);
  const auto pool_ptrs = bench::as_pointers(world.wild);
  const feature::FeatureMatrix sec = bench::features_of(seed_ptrs);
  const feature::FeatureMatrix pool = bench::features_of(pool_ptrs);

  // ---- 1. Assignment strategy.
  {
    const core::DistanceMatrix d = core::distance_matrix(sec, pool);

    util::Table table("Assignment strategy (same weighted distance matrix)");
    table.set_header({"Strategy", "Candidates", "Distinct", "Total distance",
                      "Precision", "Time (ms)"});

    auto report = [&](const char* name, auto&& solver) {
      core::LinkResult link;
      const double elapsed =
          bench::timed_ms("ablation.assignment", [&] { link = solver(d); });
      session.add_items(link.candidate.size());
      const std::set<std::size_t> distinct(link.candidate.begin(),
                                           link.candidate.end());
      table.add_row({name, std::to_string(link.candidate.size()),
                     std::to_string(distinct.size()),
                     util::format_double(link.total_distance, 1),
                     util::format_percent(
                         precision_of(world, pool_ptrs, link.candidate), 1),
                     util::format_double(elapsed, 1)});
    };
    report("greedy (Algorithm 1)", core::nearest_link_search);
    report("exact assignment", core::exact_assignment);
    report("per-row argmin (KNN-like)", core::row_argmin);
    std::printf("%s", table.render().c_str());
    std::printf("  the greedy total distance should sit within a few %% of the\n"
                "  exact optimum at a fraction of the cost; per-row argmin reuses\n"
                "  candidates, shrinking the distinct set (the paper's KNN contrast)\n\n");
  }

  // ---- 2. Feature weighting.
  {
    util::Table table("Feature weighting (greedy assignment)");
    table.set_header({"Weighting", "Precision"});

    auto run_with = [&](const char* name, std::vector<double> weights) {
      const core::LinkResult link =
          core::streaming_nearest_link(sec, pool, weights);
      table.add_row({name, util::format_percent(
                               precision_of(world, pool_ptrs, link.candidate), 1)});
    };

    run_with("max-abs (paper, Sec. III-B.2)", core::maxabs_weights(sec, pool));

    // z-score weights: 1/stddev per dimension over the union.
    {
      std::vector<double> mean(feature::kFeatureCount, 0.0);
      std::vector<double> var(feature::kFeatureCount, 0.0);
      const double n = static_cast<double>(sec.rows() + pool.rows());
      auto accumulate_mean = [&](const feature::FeatureMatrix& m) {
        for (std::size_t i = 0; i < m.rows(); ++i) {
          const std::span<const double> row = m[i];
          for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
            mean[j] += row[j];
          }
        }
      };
      accumulate_mean(sec);
      accumulate_mean(pool);
      for (double& m : mean) m /= n;
      auto accumulate_var = [&](const feature::FeatureMatrix& m) {
        for (std::size_t i = 0; i < m.rows(); ++i) {
          const std::span<const double> row = m[i];
          for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
            const double d = row[j] - mean[j];
            var[j] += d * d;
          }
        }
      };
      accumulate_var(sec);
      accumulate_var(pool);
      std::vector<double> weights(feature::kFeatureCount, 1.0);
      for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
        const double sd = std::sqrt(var[j] / n);
        if (sd > 0.0) weights[j] = 1.0 / sd;
      }
      run_with("z-score (1/stddev)", std::move(weights));
    }

    run_with("unweighted (raw Euclidean)",
             std::vector<double>(feature::kFeatureCount, 1.0));
    std::printf("%s", table.render().c_str());
    std::printf("  unweighted distances are dominated by large-scale dimensions\n"
                "  (character counts), which is why Sec. III-B.2 normalizes\n\n");
  }

  // ---- 3. Search-range scaling.
  {
    util::Table table("Search range vs candidate precision (greedy)");
    table.set_header({"Pool size", "Precision"});
    for (const double fraction : {0.1, 0.25, 0.5, 0.75, 1.0}) {
      const std::size_t n =
          static_cast<std::size_t>(fraction * static_cast<double>(pool.rows()));
      if (n < sec.rows()) continue;
      feature::FeatureMatrix sub(n);
      for (std::size_t i = 0; i < n; ++i) sub.set_row(i, pool[i]);
      const core::LinkResult link = core::streaming_nearest_link(sec, sub);
      table.add_row({util::human_count(n),
                     util::format_percent(
                         precision_of(world, pool_ptrs, link.candidate), 1)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("  paper: Set II/III (200K) reach 29-30%% vs Set I (100K) 16-25%% —\n"
                "  a larger range offers closer neighbors, so precision rises\n\n");
  }

  // ---- 4. Dense vs streaming engine (acceptance scale).
  {
    const std::size_t m = bench::scaled(1000, scale);
    const std::size_t n = bench::scaled(100000, scale);
    auto synthetic = [](std::size_t rows, std::uint64_t seed) {
      util::Rng rng(seed);
      feature::FeatureMatrix out(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
          out[i][j] = rng.uniform(-10, 10);
        }
      }
      return out;
    };
    const feature::FeatureMatrix big_sec = synthetic(m, 7001);
    const feature::FeatureMatrix big_pool = synthetic(n, 7002);
    const std::vector<double> weights = core::maxabs_weights(big_sec, big_pool);

    core::LinkResult dense_link;
    const double dense_ms = bench::timed_ms("ablation.dense_engine", [&] {
      const core::DistanceMatrix d =
          core::distance_matrix(big_sec, big_pool, weights);
      dense_link = core::nearest_link_search(d);
    });
    const double dense_bytes =
        static_cast<double>(m) * static_cast<double>(n) * sizeof(float);

    core::StreamingLinkStats stats;
    core::LinkResult stream_link;
    const double stream_ms = bench::timed_ms("ablation.streaming_engine", [&] {
      stream_link =
          core::streaming_nearest_link(big_sec, big_pool, weights, &stats);
    });
    session.add_items(m * 2);

    const bool identical =
        dense_link.candidate == stream_link.candidate &&
        dense_link.total_distance == stream_link.total_distance;
    const double speedup = stream_ms > 0.0 ? dense_ms / stream_ms : 0.0;
    const double mem_ratio =
        stats.working_set_bytes > 0
            ? dense_bytes / static_cast<double>(stats.working_set_bytes)
            : 0.0;

    util::Table table("Dense vs streaming nearest link (" +
                      util::human_count(m) + " x " + util::human_count(n) + ")");
    table.set_header({"Engine", "Time (ms)", "Working set (MB)", "Identical"});
    table.add_row({"dense matrix", util::format_double(dense_ms, 1),
                   util::format_double(dense_bytes / (1024.0 * 1024.0), 1), "—"});
    table.add_row({"streaming tiled", util::format_double(stream_ms, 1),
                   util::format_double(
                       static_cast<double>(stats.working_set_bytes) /
                           (1024.0 * 1024.0),
                       2),
                   identical ? "yes (bitwise)" : "NO — MISMATCH"});
    std::printf("%s", table.render().c_str());
    std::printf("  speedup %.2fx, working-set reduction %.0fx; topk hits %llu,\n"
                "  fallback rescans %llu, %llu cells\n",
                speedup, mem_ratio,
                static_cast<unsigned long long>(stats.topk_hits),
                static_cast<unsigned long long>(stats.fallback_rescans),
                static_cast<unsigned long long>(stats.exact_cells));

    PATCHDB_GAUGE_SET("nearest_link.bench.dense_ms", dense_ms);
    PATCHDB_GAUGE_SET("nearest_link.bench.streaming_ms", stream_ms);
    PATCHDB_GAUGE_SET("nearest_link.bench.speedup", speedup);
    PATCHDB_GAUGE_SET("nearest_link.bench.dense_bytes", dense_bytes);
    PATCHDB_GAUGE_SET("nearest_link.bench.streaming_bytes",
                      static_cast<double>(stats.working_set_bytes));
    PATCHDB_GAUGE_SET("nearest_link.bench.memory_reduction", mem_ratio);
    PATCHDB_GAUGE_SET("nearest_link.bench.identical", identical ? 1.0 : 0.0);
    if (!identical) {
      std::printf("  ERROR: streaming result diverged from dense\n");
      return 1;
    }
  }
  return 0;
}
