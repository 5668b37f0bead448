#include "diff/fuzz_apply.h"

#include <algorithm>

namespace patchdb::diff {

namespace {

/// The old-side pattern of a hunk with `fuzz` context lines dropped from
/// each edge: what must match the file for the hunk to apply.
struct HunkPattern {
  std::vector<const std::string*> old_lines;  // context + removed, in order
  std::size_t leading_dropped = 0;            // context lines cut at the top
};

HunkPattern old_pattern(const Hunk& hunk, std::size_t fuzz) {
  HunkPattern p;
  // Identify leading/trailing context runs.
  std::size_t lead = 0;
  while (lead < hunk.lines.size() && hunk.lines[lead].kind == LineKind::kContext) {
    ++lead;
  }
  std::size_t trail = 0;
  while (trail < hunk.lines.size() &&
         hunk.lines[hunk.lines.size() - 1 - trail].kind == LineKind::kContext) {
    ++trail;
  }
  const std::size_t drop_lead = std::min(fuzz, lead);
  const std::size_t drop_trail = std::min(fuzz, trail);
  p.leading_dropped = drop_lead;

  for (std::size_t i = drop_lead; i < hunk.lines.size() - drop_trail; ++i) {
    if (hunk.lines[i].kind != LineKind::kAdded) {
      p.old_lines.push_back(&hunk.lines[i].text);
    }
  }
  return p;
}

bool matches_at(const std::vector<std::string>& lines, std::size_t start,
                const HunkPattern& pattern) {
  if (start + pattern.old_lines.size() > lines.size()) return false;
  for (std::size_t i = 0; i < pattern.old_lines.size(); ++i) {
    if (lines[start + i] != *pattern.old_lines[i]) return false;
  }
  return true;
}

/// Search the stated position first, then alternate +/-1, +/-2, ... up
/// to kMaxOffset.
std::optional<std::size_t> locate(const std::vector<std::string>& lines,
                                  std::size_t stated, const HunkPattern& pattern) {
  if (matches_at(lines, stated, pattern)) return stated;
  for (std::size_t delta = 1; delta <= kMaxOffset; ++delta) {
    if (stated + delta <= lines.size() &&
        matches_at(lines, stated + delta, pattern)) {
      return stated + delta;
    }
    if (stated >= delta && matches_at(lines, stated - delta, pattern)) {
      return stated - delta;
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<std::string> apply_with_fuzz(const std::vector<std::string>& lines,
                                         const FileDiff& fd, FuzzReport& report) {
  std::vector<std::string> current = lines;
  // Track the cumulative line drift introduced by earlier hunks so later
  // stated positions stay meaningful.
  std::ptrdiff_t drift = 0;

  for (std::size_t h = 0; h < fd.hunks.size(); ++h) {
    const Hunk& hunk = fd.hunks[h];
    const std::ptrdiff_t stated_raw =
        static_cast<std::ptrdiff_t>(hunk.old_count == 0 ? hunk.old_start
                                                        : hunk.old_start - 1) +
        drift;
    const std::size_t stated = static_cast<std::size_t>(std::max<std::ptrdiff_t>(
        0, std::min<std::ptrdiff_t>(stated_raw,
                                    static_cast<std::ptrdiff_t>(current.size()))));

    bool placed = false;
    for (std::size_t fuzz = 0; fuzz <= kMaxFuzz && !placed; ++fuzz) {
      const HunkPattern pattern = old_pattern(hunk, fuzz);
      const std::optional<std::size_t> at =
          locate(current, stated + (fuzz == 0 ? 0 : pattern.leading_dropped),
                 pattern);
      if (!at.has_value()) continue;

      // Rebuild the region: replace the matched old lines with the
      // hunk's new-side lines (minus the dropped edges' context, which
      // stays as-is in the file).
      std::vector<std::string> replacement;
      std::size_t lead_seen = 0;
      std::size_t trail_context = 0;
      // Count trailing context to know what was dropped at the bottom.
      {
        std::size_t trail = 0;
        while (trail < hunk.lines.size() &&
               hunk.lines[hunk.lines.size() - 1 - trail].kind == LineKind::kContext) {
          ++trail;
        }
        trail_context = std::min(fuzz, trail);
      }
      for (std::size_t i = 0; i < hunk.lines.size() - trail_context; ++i) {
        const Line& line = hunk.lines[i];
        if (lead_seen < pattern.leading_dropped) {
          // dropped leading context: not part of the replacement
          if (line.kind == LineKind::kContext) {
            ++lead_seen;
            continue;
          }
        }
        if (line.kind != LineKind::kRemoved) replacement.push_back(line.text);
      }

      const auto begin = current.begin() + static_cast<std::ptrdiff_t>(*at);
      const auto end = begin + static_cast<std::ptrdiff_t>(pattern.old_lines.size());
      const std::ptrdiff_t before = static_cast<std::ptrdiff_t>(current.size());
      current.erase(begin, end);
      current.insert(current.begin() + static_cast<std::ptrdiff_t>(*at),
                     replacement.begin(), replacement.end());
      drift += static_cast<std::ptrdiff_t>(current.size()) - before;

      ++report.hunks_applied;
      if (*at != stated) {
        ++report.hunks_offset;
        report.notes.push_back("hunk " + std::to_string(h + 1) + " applied at " +
                               std::to_string(*at + 1) + " (stated " +
                               std::to_string(stated + 1) + ")");
      }
      if (fuzz > 0) {
        ++report.hunks_fuzzed;
        report.notes.push_back("hunk " + std::to_string(h + 1) + " needed fuzz " +
                               std::to_string(fuzz));
      }
      placed = true;
    }
    if (!placed) {
      ++report.hunks_failed;
      report.notes.push_back("hunk " + std::to_string(h + 1) + " FAILED");
    }
  }
  return current;
}

}  // namespace patchdb::diff
