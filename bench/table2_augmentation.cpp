// Reproduces Table II: "# of security patches identified in five rounds"
// of nearest-link dataset augmentation.
//
// Paper protocol: the 4076-patch NVD seed searches Set I (100K random
// wild commits) for three rounds, then fresh Sets II and III (200K each)
// for rounds 4 and 5. Paper ratios: 22%, 25%, 16%, 29%, 30% — versus a
// 6-10% brute-force base rate.
//
// Default scale here is 1:5 (seed 800, Set I 20K, Sets II/III 40K).
#include <cstdio>

#include "bench_common.h"
#include "core/augment.h"
#include "util/table.h"

namespace {

using namespace patchdb;

corpus::World make_set(std::size_t nvd, std::size_t pool, double rate,
                       std::uint64_t seed) {
  corpus::WorldConfig config;
  config.repos = 40;
  config.nvd_security = nvd;
  config.wild_pool = pool;
  config.wild_security_rate = rate;
  config.keep_nvd_snapshots = false;  // not needed here; saves memory
  config.seed = seed;
  return corpus::build_world(config);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(
      "Table II — wild-based dataset construction (RQ1)", argc, argv);
  const double scale = session.scale();

  const std::size_t nvd_size = bench::scaled(800, scale);
  const std::size_t set1_size = bench::scaled(20000, scale);
  const std::size_t set23_size = bench::scaled(40000, scale);
  const double base_rate = 0.08;

  // Set I supplies both the NVD seed and the first wild pool so that the
  // seed's feature distribution matches the paper's collection pipeline.
  corpus::World set1 = make_set(nvd_size, set1_size, base_rate, 20210621);
  std::printf("NVD-based seed: %zu security patches (crawled from %zu CVE entries)\n",
              set1.nvd_security.size(), set1.nvd_entries.size());
  std::printf("wild base rate: %.0f%% (paper observes 6-10%%)\n\n", base_rate * 100);

  core::AugmentationLoop loop(bench::as_pointers(set1.nvd_security), set1.oracle);
  loop.set_pool(bench::as_pointers(set1.wild));

  util::Table table("Table II: security patches identified in five rounds");
  table.set_header({"Search Range", "Round", "Candidates",
                    "Verified Security Patches", "Ratio", "Paper Ratio"});
  const char* paper_ratio[5] = {"22%", "25%", "16%", "29%", "30%"};

  std::vector<core::RoundStats> all_rounds;
  auto run_round = [&](const std::string& range_label, std::size_t round_index) {
    const core::RoundStats stats = loop.run_round();
    session.add_items(stats.candidates);
    all_rounds.push_back(stats);
    table.add_row({range_label, std::to_string(round_index),
                   std::to_string(stats.candidates),
                   std::to_string(stats.verified_security),
                   util::format_percent(stats.ratio, 0),
                   paper_ratio[round_index - 1]});
  };

  // Rounds 1-3 on Set I.
  run_round("Set I: " + util::human_count(set1_size), 1);
  run_round("", 2);
  run_round("", 3);
  table.add_separator();

  // Round 4 on a fresh, larger Set II. The oracle must know the new
  // commits; each set carries its own oracle, so register Set II's truth
  // into Set I's oracle (they share the verification ledger).
  corpus::World set2 = make_set(1, set23_size, base_rate, 20210622);
  for (const corpus::CommitRecord& r : set2.wild) set1.oracle.add(r);
  loop.set_pool(bench::as_pointers(set2.wild));
  run_round("Set II: " + util::human_count(set23_size), 4);
  table.add_separator();

  corpus::World set3 = make_set(1, set23_size, base_rate, 20210623);
  for (const corpus::CommitRecord& r : set3.wild) set1.oracle.add(r);
  loop.set_pool(bench::as_pointers(set3.wild));
  run_round("Set III: " + util::human_count(set23_size), 5);

  std::printf("%s\n", table.render().c_str());

  std::size_t total_candidates = 0;
  std::size_t total_found = 0;
  for (const core::RoundStats& r : all_rounds) {
    total_candidates += r.candidates;
    total_found += r.verified_security;
  }
  std::printf("final dataset: %zu security patches (%zu NVD + %zu wild), "
              "%zu cleaned non-security patches\n",
              loop.security().size(), set1.nvd_security.size(),
              loop.wild_security().size(), loop.nonsecurity().size());
  std::printf("human verification effort: %zu candidate checks for %zu finds "
              "(%.0f%% hit rate vs %.0f%% brute force => %.0f%% effort saved)\n",
              total_candidates, total_found,
              100.0 * static_cast<double>(total_found) /
                  static_cast<double>(total_candidates),
              base_rate * 100.0,
              100.0 * (1.0 - base_rate * static_cast<double>(total_candidates) /
                                 static_cast<double>(total_found)));
  std::printf("paper: 12,073 security patches total (4076 NVD + 7997 wild), "
              "23,742 non-security; ~66%% effort reduction\n");
  return 0;
}
