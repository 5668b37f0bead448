#include "corpus/world.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "diff/render.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace patchdb::corpus {

namespace {

std::string draw_cve_id(util::Rng& rng, std::size_t serial, int* year_out) {
  const int year = 1999 + static_cast<int>(rng.index(21));
  if (year_out != nullptr) *year_out = year;
  return "CVE-" + std::to_string(year) + "-" + std::to_string(10000 + serial);
}

}  // namespace

World build_world(const WorldConfig& config) {
  if (config.repos == 0) throw std::invalid_argument("build_world: repos == 0");
  // The stand-in for the NVD and GitHub crawl (DESIGN §2): in memory, so
  // its time is generation, not network I/O.
  PATCHDB_TRACE_SPAN("corpus.build_world");
  World world;
  world.config = config;

  util::Rng rng(config.seed);
  world.repo_names.reserve(config.repos);
  for (std::size_t i = 0; i < config.repos; ++i) {
    world.repo_names.push_back(draw_repo_name(rng) + "_" + std::to_string(i));
  }

  // ------------------------------------------------------------------
  // 1. Fabricate the NVD-side security commits (these are what the CVE
  //    entries will reference) and the wild pool, in parallel.
  // ------------------------------------------------------------------
  CommitOptions nvd_commit = config.commit;
  nvd_commit.keep_snapshots = config.keep_nvd_snapshots;
  CommitOptions wild_commit = config.commit;
  wild_commit.keep_snapshots = config.keep_wild_snapshots;
  // Silent wild fixes frequently bundle unrelated cleanups; NVD-indexed
  // fixes are minimal (see CommitOptions::bundle_cleanup_prob).
  wild_commit.bundle_cleanup_prob = 0.5;
  // 61% of real security patches never mention their security impact
  // (paper Sec. I, citing [35]) — the wild side is euphemized at exactly
  // that rate; NVD-referenced fixes keep (and below, enrich) their
  // descriptive messages.
  wild_commit.euphemize_prob = 0.61;

  // Security-type mixes (Fig. 6 shapes).
  const TypeDistribution nvd_types = nvd_type_distribution();
  const TypeDistribution wild_types = wild_type_distribution();

  std::vector<CommitRecord> nvd_commits(config.nvd_security);
  std::vector<std::uint64_t> nvd_seeds(config.nvd_security);
  for (auto& s : nvd_seeds) s = rng();
  util::default_pool().parallel_for(
      config.nvd_security, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          util::Rng local(nvd_seeds[i]);
          const std::size_t type_idx =
              local.weighted(std::span(nvd_types.data(), nvd_types.size()));
          const PatchType type = security_types()[type_idx];
          const std::string& repo =
              world.repo_names[local.index(world.repo_names.size())];
          nvd_commits[i] = make_commit(local, repo, type, nvd_commit);
        }
      });

  world.wild.resize(config.wild_pool);
  std::vector<std::uint64_t> wild_seeds(config.wild_pool);
  for (auto& s : wild_seeds) s = rng();
  util::default_pool().parallel_for(
      config.wild_pool, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          util::Rng local(wild_seeds[i]);
          const PatchType type =
              draw_patch_type(local, wild_types, config.wild_security_rate);
          const std::string& repo =
              world.repo_names[local.index(world.repo_names.size())];
          world.wild[i] = make_commit(local, repo, type, wild_commit);
        }
      });
  PATCHDB_COUNTER_ADD("corpus.commits_built", config.nvd_security + config.wild_pool);

  // ------------------------------------------------------------------
  // 2. Register ground truth. Only the NVD crawler reads the simulated
  //    web, so only NVD-side pages are published, in step 3 (after CVE
  //    ids exist, so the referenced commit messages can mention them the
  //    way maintainers do).
  // ------------------------------------------------------------------
  for (const CommitRecord& record : nvd_commits) world.oracle.add(record);
  for (const CommitRecord& record : world.wild) world.oracle.add(record);

  // ------------------------------------------------------------------
  // 3. Build the NVD index with injected dirt, then crawl it.
  // ------------------------------------------------------------------
  std::unordered_map<std::string, CommitRecord*> by_hash;
  for (CommitRecord& record : nvd_commits) {
    by_hash[record.patch.commit] = &record;
  }

  for (std::size_t i = 0; i < nvd_commits.size(); ++i) {
    CommitRecord& record = nvd_commits[i];
    NvdEntry entry;
    entry.cve_id = draw_cve_id(rng, i, &entry.year);

    // Maintainers of CVE-tracked fixes usually say so in the message.
    if (rng.chance(0.55)) {
      record.patch.message += "\n\nFixes " + entry.cve_id;
    } else if (rng.chance(0.3)) {
      record.patch.message = "security: " + record.patch.message;
    }
    world.remote.put(
        github_commit_url(record.repo, record.patch.commit) + ".patch",
        diff::render_patch(record.patch));
    entry.cwe = cwe_for_type(static_cast<int>(record.truth.type));
    // CVSS base scores cluster by fix pattern: memory-safety bugs skew
    // high, validation/logic issues mid-range.
    const bool memory_safety = record.truth.type == PatchType::kBoundCheck ||
                               record.truth.type == PatchType::kNullCheck ||
                               record.truth.type == PatchType::kMoveStatement;
    const double base = memory_safety ? 7.5 : 5.5;
    entry.cvss = std::min(10.0, std::max(1.0, rng.normal(base, 1.2)));
    entry.references.push_back("https://seclists.example.org/advisory/" +
                               std::to_string(i));

    if (rng.chance(config.entry_missing_link_prob)) {
      // Entry indexed without any patch link: unreachable by the crawler.
      world.nvd_entries.push_back(std::move(entry));
      continue;
    }

    std::string url = github_commit_url(record.repo, record.patch.commit);
    if (rng.chance(config.wrong_link_prob)) {
      // Wrong link: points at a version-bump page instead of the fix.
      CommitRecord bump = make_version_bump_commit(rng, record.repo);
      PATCHDB_COUNTER_ADD("corpus.commits_built", 1);
      url = github_commit_url(bump.repo, bump.patch.commit);
      world.remote.put(url + ".patch", diff::render_patch(bump.patch));
      world.oracle.add(bump);
    } else if (rng.chance(config.dead_link_prob)) {
      // Dead link: never published on the remote.
      url = github_commit_url(record.repo, "deadbeef" + std::to_string(i));
    }
    entry.references.push_back(url);
    entry.patch_tagged.push_back(url);
    world.nvd_entries.push_back(std::move(entry));
  }

  NvdCrawler crawler(world.remote);
  std::vector<CrawledPatch> crawled = crawler.crawl(world.nvd_entries);
  world.crawl_stats = crawler.stats();

  // Keep the crawled form (post C/C++ filter) but reattach snapshots and
  // ground truth from the fabricated record. Wrong-link pages yield
  // version-bump commits; the paper keeps them (up to 1% noise), and so
  // do we — their truth says non-security. Each entry links its own
  // commit, so every fabricated record is reattached at most once and
  // its snapshots move.
  world.nvd_security.reserve(crawled.size());
  for (CrawledPatch& cp : crawled) {
    CommitRecord record;
    record.patch = std::move(cp.patch);
    const auto it = by_hash.find(record.patch.commit);
    if (it != by_hash.end()) {
      record.truth = it->second->truth;
      record.repo = it->second->repo;
      record.snapshots = std::move(it->second->snapshots);
    } else {
      record.truth = world.oracle.truth(record.patch.commit);
    }
    world.nvd_security.push_back(std::move(record));
  }

  return world;
}

}  // namespace patchdb::corpus
