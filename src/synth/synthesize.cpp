#include "synth/synthesize.h"

#include <algorithm>
#include <string_view>

#include "diff/myers.h"
#include "diff/render.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace patchdb::synth {

namespace {

/// 1-based changed-line ranges of one version of a file, derived from the
/// hunks: old-side lines with removals (BEFORE) or new-side lines with
/// additions (AFTER).
std::vector<std::pair<std::size_t, std::size_t>> changed_ranges(
    const diff::FileDiff& fd, bool after_version) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (const diff::Hunk& hunk : fd.hunks) {
    if (after_version) {
      if (hunk.new_count == 0) continue;
      ranges.emplace_back(hunk.new_start, hunk.new_start + hunk.new_count - 1);
    } else {
      if (hunk.old_count == 0) continue;
      ranges.emplace_back(hunk.old_start, hunk.old_start + hunk.old_count - 1);
    }
  }
  return ranges;
}

struct Site {
  std::size_t snapshot = 0;  // index into the record's snapshots
  bool after_version = true;
  std::size_t if_line = 0;
  std::string condition;
};

/// Views of one snapshot's two versions.
struct VersionViews {
  std::vector<std::string_view> before;
  std::vector<std::string_view> after;
};

}  // namespace

std::vector<SyntheticPatch> synthesize(const corpus::CommitRecord& record,
                                       const SynthesisOptions& options,
                                       std::uint64_t seed) {
  std::vector<SyntheticPatch> out;
  if (record.snapshots.empty()) return out;

  // ---- Step 1+2 (paper): parse both file versions, collect the `if`
  // statements whose extent intersects the patch's changed lines.
  std::vector<Site> sites;
  for (std::size_t f = 0; f < record.snapshots.size(); ++f) {
    const corpus::FileSnapshot& snapshot = record.snapshots[f];
    const diff::FileDiff* fd = nullptr;
    for (const diff::FileDiff& candidate : record.patch.files) {
      const std::string& path =
          candidate.new_path.empty() ? candidate.old_path : candidate.new_path;
      if (path == snapshot.path) {
        fd = &candidate;
        break;
      }
    }
    if (fd == nullptr) continue;

    for (const bool after_version : {false, true}) {
      const std::vector<std::string>& lines =
          after_version ? snapshot.after : snapshot.before;
      const lang::ParsedFile parsed = lang::parse_file(lines);
      const auto ranges = changed_ranges(*fd, after_version);
      for (const auto& [first, last] : ranges) {
        for (const lang::IfStatementInfo* info :
             lang::ifs_touching(parsed, first, last)) {
          // Only single-line conditions are rewriteable (Fig. 5 templates
          // substitute the whole condition in place).
          if (info->cond_begin_line != info->if_line ||
              info->cond_end_line != info->if_line || info->condition.empty()) {
            continue;
          }
          sites.push_back(Site{f, after_version, info->if_line, info->condition});
        }
      }
    }
  }
  if (sites.empty()) return out;

  // Dedupe sites that multiple overlapping ranges discovered twice.
  std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
    if (a.snapshot != b.snapshot) return a.snapshot < b.snapshot;
    if (a.after_version != b.after_version) return a.after_version < b.after_version;
    return a.if_line < b.if_line;
  });
  sites.erase(std::unique(sites.begin(), sites.end(),
                          [](const Site& a, const Site& b) {
                            return a.snapshot == b.snapshot &&
                                   a.after_version == b.after_version &&
                                   a.if_line == b.if_line;
                          }),
              sites.end());

  // ---- Step 3: enumerate (site, variant) pairs, sample down to the cap,
  // apply each rewrite and re-diff.
  struct Job {
    std::size_t site;
    IfVariant variant;
  };
  std::vector<Job> jobs;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    for (IfVariant v : all_variants()) jobs.push_back(Job{s, v});
  }
  util::Rng rng(seed);
  rng.shuffle(jobs);
  if (options.max_per_patch > 0 && jobs.size() > options.max_per_patch) {
    jobs.resize(options.max_per_patch);
  }

  // Each version's line views, built once: a job copies the views of
  // the version it rewrites, with the rewritten lines spliced in.
  std::vector<VersionViews> versions;
  versions.reserve(record.snapshots.size());
  for (const corpus::FileSnapshot& snapshot : record.snapshots) {
    versions.push_back({diff::line_views(snapshot.before), diff::line_views(snapshot.after)});
  }

  for (const Job& job : jobs) {
    const Site& site = sites[job.site];
    const std::vector<std::string_view>& original =
        site.after_version ? versions[site.snapshot].after : versions[site.snapshot].before;
    if (site.if_line == 0 || site.if_line > original.size()) continue;
    const auto at = original.begin() + static_cast<std::ptrdiff_t>(site.if_line - 1);
    const std::vector<std::string> replacement =
        apply_variant(*at, site.condition, job.variant);
    if (replacement.empty()) continue;
    std::vector<std::string_view> mutated;
    mutated.reserve(original.size() + replacement.size() - 1);
    mutated.insert(mutated.end(), original.begin(), at);
    mutated.insert(mutated.end(), replacement.begin(), replacement.end());
    mutated.insert(mutated.end(), at + 1, original.end());

    SyntheticPatch synthetic;
    synthetic.origin_commit = record.patch.commit;
    synthetic.variant = job.variant;
    synthetic.modified_after = site.after_version;
    synthetic.truth = record.truth;

    diff::Patch patch;
    patch.author = record.patch.author;
    patch.date = record.patch.date;
    patch.message = record.patch.message;
    // Re-diff the (possibly mutated) version pair for every touched file.
    for (std::size_t f = 0; f < record.snapshots.size(); ++f) {
      const bool is_target = f == site.snapshot;
      const std::vector<std::string_view>& before =
          (is_target && !site.after_version) ? mutated : versions[f].before;
      const std::vector<std::string_view>& after =
          (is_target && site.after_version) ? mutated : versions[f].after;
      diff::FileDiff fd = diff::diff_file(record.snapshots[f].path, before, after);
      if (!fd.hunks.empty()) patch.files.push_back(std::move(fd));
    }
    if (patch.files.empty()) continue;
    patch.commit = util::commit_id(diff::render_file_diffs(patch.files) +
                                   synthetic.origin_commit +
                                   std::to_string(static_cast<int>(job.variant)));
    synthetic.patch = std::move(patch);
    out.push_back(std::move(synthetic));
  }
  return out;
}

std::vector<SyntheticPatch> synthesize_all(
    std::span<const corpus::CommitRecord> records,
    const SynthesisOptions& options, std::uint64_t seed) {
  PATCHDB_TRACE_SPAN("synth.all");
  PATCHDB_COUNTER_ADD("synth.records", records.size());
  std::vector<std::vector<SyntheticPatch>> per_record(records.size());
  util::Rng rng(seed);
  std::vector<std::uint64_t> seeds(records.size());
  for (auto& s : seeds) s = rng();

  util::default_pool().parallel_for(
      records.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          per_record[i] = synthesize(records[i], options, seeds[i]);
        }
      });

  std::vector<SyntheticPatch> out;
  for (auto& chunk : per_record) {
    for (auto& p : chunk) out.push_back(std::move(p));
  }
  PATCHDB_COUNTER_ADD("synth.patches", out.size());
  return out;
}

}  // namespace patchdb::synth
