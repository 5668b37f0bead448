// Silent patch hunter: the paper's motivating scenario. 6-10% of GitHub
// commits are security fixes that never get a CVE ("silently published").
// Given a small set of known security patches and a large pile of
// unlabeled commits, rank the pile so a human auditor reviews the most
// promising commits first — exactly what nearest link search is for.
//
// The example compares three review strategies at equal human budget:
//   - random order (brute force),
//   - Random Forest confidence order (pseudo labeling),
//   - nearest link candidates first (PatchDB's method),
// and prints how many real security patches each surfaces.
#include <algorithm>
#include <cstdio>

#include "core/baselines.h"
#include "core/streaming_link.h"
#include "corpus/world.h"
#include "feature/features.h"
#include "util/rng.h"

int main() {
  using namespace patchdb;

  // A mid-sized simulated world: 200 known patches, 8000 wild commits.
  corpus::WorldConfig config;
  config.repos = 15;
  config.nvd_security = 200;
  config.wild_pool = 8000;
  config.wild_security_rate = 0.08;
  config.keep_nvd_snapshots = false;
  config.seed = 1337;
  corpus::World world = corpus::build_world(config);

  std::printf("known security patches: %zu, unlabeled commits: %zu "
              "(~%.0f%% silent security fixes)\n\n",
              world.nvd_security.size(), world.wild.size(),
              config.wild_security_rate * 100.0);

  // Features for both sides.
  std::vector<const diff::Patch*> sec_patches;
  for (const auto& r : world.nvd_security) sec_patches.push_back(&r.patch);
  std::vector<const diff::Patch*> wild_patches;
  for (const auto& r : world.wild) wild_patches.push_back(&r.patch);
  const feature::FeatureMatrix sec = feature::extract_all(sec_patches);
  const feature::FeatureMatrix wild = feature::extract_all(wild_patches);

  const std::size_t budget = world.nvd_security.size();  // human review budget

  auto score = [&](const char* label, const std::vector<std::size_t>& order) {
    std::size_t found = 0;
    for (std::size_t i = 0; i < budget && i < order.size(); ++i) {
      found += world.wild[order[i]].truth.is_security;
    }
    std::printf("  %-28s %4zu real security patches in the first %zu reviews "
                "(%.0f%% hit rate)\n",
                label, found, budget,
                100.0 * static_cast<double>(found) / static_cast<double>(budget));
  };

  // Strategy 1: random review order.
  {
    util::Rng rng(1);
    std::vector<std::size_t> order(world.wild.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    score("random order:", order);
  }

  // Strategy 2: Random Forest confidence (needs labeled non-security too;
  // use an equal-sized refactor/feature set as the negative class).
  {
    util::Rng rng(2);
    ml::Dataset train;
    for (std::size_t i = 0; i < sec.rows(); ++i) {
      train.push_back(std::vector<double>(sec[i].begin(), sec[i].end()), 1);
    }
    const auto kinds = corpus::nonsecurity_types();
    for (std::size_t i = 0; i < sec.rows() * 2; ++i) {
      const auto rec = corpus::make_commit(
          rng, "hunter", kinds[rng.index(kinds.size())]);
      const feature::FeatureVector v = feature::extract(rec.patch);
      train.push_back(std::vector<double>(v.begin(), v.end()), 0);
    }
    const auto top = core::pseudo_label_select(train, wild, budget, 3);
    score("Random Forest confidence:", top);
  }

  // Strategy 3: nearest link search.
  {
    const core::LinkResult link = core::streaming_nearest_link(sec, wild);
    score("nearest link candidates:", link.candidate);
  }

  std::printf("\nnearest link focuses the human budget on the neighborhood of\n"
              "known fixes, which is why PatchDB's augmentation loop (Table II)\n"
              "triples the brute-force hit rate.\n");
  return 0;
}
