// Reproduces Table III: "Comparison with other augmentation methods".
//
// Paper protocol: train on the NVD-based dataset (4076 security + 8352
// non-security), then ask each method to pick candidates from 200K
// unlabeled wild commits. Manually verify (here: oracle) a 1K sample of
// each candidate set and report the security-patch percentage at the
// 95% confidence level. Paper: brute force 8(+/-1.7)%, pseudo labeling
// 13(+/-1.8)%, uncertainty-based 12%, nearest link 29(+/-2.4)%.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/streaming_link.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace patchdb;

/// Verify (at most) `cap` of the candidates through the oracle and
/// report the measured proportion with its 95% interval.
util::Interval verify_sample(corpus::Oracle& oracle,
                             const std::vector<const corpus::CommitRecord*>& pool,
                             std::vector<std::size_t> candidates,
                             std::size_t cap, std::uint64_t seed) {
  util::Rng rng(seed);
  rng.shuffle(candidates);
  if (candidates.size() > cap) candidates.resize(cap);
  std::size_t hits = 0;
  for (std::size_t idx : candidates) {
    hits += oracle.verify_security(pool[idx]->patch.commit);
  }
  return util::wald_interval(hits, candidates.size());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(
      "Table III — nearest link search vs. other augmentation methods (RQ2)", argc, argv);
  const double scale = session.scale();

  const std::size_t nvd_size = bench::scaled(800, scale);
  const std::size_t nonsec_size = bench::scaled(1650, scale);  // paper 8352:4076
  const std::size_t pool_size = bench::scaled(40000, scale);
  const std::size_t verify_cap = bench::scaled(1000, scale);

  corpus::WorldConfig config;
  config.repos = 40;
  config.nvd_security = nvd_size;
  config.wild_pool = pool_size;
  config.wild_security_rate = 0.08;
  config.keep_nvd_snapshots = false;
  config.seed = 33033;
  corpus::World world = corpus::build_world(config);

  // The labeled training data: NVD security + previously-cleaned
  // non-security patches.
  const std::vector<corpus::CommitRecord> nonsec =
      bench::make_nonsecurity_set(nonsec_size, 404);
  for (const corpus::CommitRecord& r : nonsec) world.oracle.add(r);

  const auto sec_ptrs = bench::as_pointers(world.nvd_security);
  const auto nonsec_ptrs = bench::as_pointers(nonsec);
  const auto pool_ptrs = bench::as_pointers(world.wild);

  std::printf("training data: %zu security + %zu non-security, pool: %s unlabeled\n\n",
              sec_ptrs.size(), nonsec_ptrs.size(),
              util::human_count(pool_size).c_str());

  const feature::FeatureMatrix sec_features = bench::features_of(sec_ptrs);
  const feature::FeatureMatrix nonsec_features = bench::features_of(nonsec_ptrs);
  const feature::FeatureMatrix pool_features = bench::features_of(pool_ptrs);

  const core::NormalizedTask task =
      core::normalize_task(sec_features, nonsec_features, pool_features);
  session.add_items(pool_ptrs.size());

  util::Table table("Table III: comparison with other augmentation methods");
  table.set_header({"Methods", "Unlabeled Patches", "Candidates",
                    "Security Patches (%)", "Paper"});

  // --- Brute force search.
  {
    const auto sel = core::brute_force_select(pool_ptrs.size(), verify_cap, 1);
    const util::Interval ci =
        verify_sample(world.oracle, pool_ptrs, sel, verify_cap, 11);
    table.add_row({"Brute Force Search", util::human_count(pool_size),
                   util::human_count(pool_size), util::format_percent_ci(ci),
                   "8(+/-1.7)%"});
  }

  // --- Pseudo labeling: Random Forest top-M.
  {
    const auto sel =
        core::pseudo_label_select(task.train, task.pool, sec_ptrs.size(), 2);
    const util::Interval ci =
        verify_sample(world.oracle, pool_ptrs, sel, verify_cap, 12);
    table.add_row({"Pseudo Labeling", util::human_count(pool_size),
                   util::human_count(sel.size()), util::format_percent_ci(ci),
                   "13(+/-1.8)%"});
  }

  // --- Uncertainty-based labeling: 10-classifier unanimous consensus.
  {
    const auto sel = core::uncertainty_select(task.train, task.pool, 3);
    const util::Interval ci =
        verify_sample(world.oracle, pool_ptrs, sel, verify_cap, 13);
    table.add_row({"Uncertainty-based Labeling", util::human_count(pool_size),
                   util::human_count(sel.size()), util::format_percent_ci(ci),
                   "12%"});
  }

  // --- Nearest link search (ours).
  {
    const core::LinkResult link =
        core::streaming_nearest_link(sec_features, pool_features);
    const util::Interval ci =
        verify_sample(world.oracle, pool_ptrs, link.candidate, verify_cap, 14);
    table.add_row({"Nearest Link Search (ours)", util::human_count(pool_size),
                   util::human_count(link.candidate.size()),
                   util::format_percent_ci(ci), "29(+/-2.4)%"});
  }

  std::printf("%s", table.render().c_str());
  std::printf("  note: sampled results, %zu verified per method, 95%% confidence level\n",
              verify_cap);
  return 0;
}
