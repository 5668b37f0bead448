// End-to-end simulated world: repositories, an NVD with CVE entries and
// patch hyperlinks, a remote store serving `.patch` pages, a wild commit
// pool with a 6-10% silent-security rate, and the ground-truth oracle.
// Every experiment bench builds one of these at its chosen scale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/nvd.h"
#include "corpus/oracle.h"
#include "corpus/repo.h"
#include "corpus/taxonomy.h"

namespace patchdb::corpus {

struct WorldConfig {
  /// Number of simulated repositories (paper: 313).
  std::size_t repos = 40;

  /// Security patches reachable from NVD entries (paper: 4076).
  std::size_t nvd_security = 800;

  /// Size of the unlabeled wild pool (paper: 100K-200K drawn from 6M).
  std::size_t wild_pool = 20000;

  /// Fraction of wild commits that are silent security patches
  /// (paper observes 6-10%).
  double wild_security_rate = 0.08;

  /// Collection dirt rates.
  double entry_missing_link_prob = 0.25;  // CVE entries with no patch link
  double dead_link_prob = 0.02;           // links that 404
  double wrong_link_prob = 0.01;          // links to version-bump pages

  /// Keep BEFORE/AFTER file snapshots on these sets (synthesis needs them).
  bool keep_nvd_snapshots = true;
  bool keep_wild_snapshots = false;

  std::uint64_t seed = 42;
};

/// The two commit shapes build_world fabricates, each keeping snapshots
/// as `config` asks. An NVD-referenced fix is minimal and says what it
/// fixes. A silent wild fix bundles an unrelated cleanup half the time,
/// and 61% of them hide their security impact behind a euphemism.
CommitOptions nvd_commit_options(const WorldConfig& config);
CommitOptions wild_commit_options(const WorldConfig& config);

struct World {
  WorldConfig config;

  /// Verified security patches as collected through the NVD pipeline
  /// (already filtered to C/C++; snapshots per keep_nvd_snapshots).
  std::vector<CommitRecord> nvd_security;

  /// The unlabeled wild pool (mixed security/non-security).
  std::vector<CommitRecord> wild;

  /// Collection artifacts: the simulated NVD, web, and what the crawler
  /// reported while building nvd_security.
  std::vector<NvdEntry> nvd_entries;
  RemoteStore remote;
  CrawlStats crawl_stats;

  Oracle oracle;

  std::vector<std::string> repo_names;
};

/// Build the world: fabricate commits, publish them on the simulated
/// web, index a subset in the NVD, run the crawler, and register all
/// ground truth with the oracle.
World build_world(const WorldConfig& config);

}  // namespace patchdb::corpus
