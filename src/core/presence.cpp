#include "core/presence.h"

namespace patchdb::core {

namespace {

/// One side of a hunk as concrete lines: context plus the given kind.
std::vector<std::string> hunk_image(const diff::Hunk& hunk, diff::LineKind kept) {
  std::vector<std::string> out;
  for (const diff::Line& line : hunk.lines) {
    if (line.kind == diff::LineKind::kContext || line.kind == kept) {
      out.push_back(line.text);
    }
  }
  return out;
}

/// Does `needle` occur as a contiguous run in `haystack` within
/// diff::kMaxOffset lines of `around`?
bool contains_run(const std::vector<std::string>& haystack,
                  const std::vector<std::string>& needle, std::size_t around) {
  if (needle.empty()) return false;
  const auto matches_at = [&](std::size_t start) {
    if (start + needle.size() > haystack.size()) return false;
    for (std::size_t i = 0; i < needle.size(); ++i) {
      if (haystack[start + i] != needle[i]) return false;
    }
    return true;
  };
  if (matches_at(around)) return true;
  for (std::size_t delta = 1; delta <= diff::kMaxOffset; ++delta) {
    if (around + delta <= haystack.size() && matches_at(around + delta)) {
      return true;
    }
    if (around >= delta && matches_at(around - delta)) return true;
  }
  return false;
}

}  // namespace

const char* presence_name(Presence p) {
  switch (p) {
    case Presence::kPatched: return "patched";
    case Presence::kVulnerable: return "vulnerable";
    case Presence::kBoth: return "partial/ambiguous";
    case Presence::kUnknown: return "unknown";
  }
  return "?";
}

PresenceReport test_presence(const std::vector<std::string>& file_lines,
                             const diff::FileDiff& fd) {
  PresenceReport report;
  for (const diff::Hunk& hunk : fd.hunks) {
    const std::vector<std::string> pre = hunk_image(hunk, diff::LineKind::kRemoved);
    const std::vector<std::string> post = hunk_image(hunk, diff::LineKind::kAdded);
    const std::size_t around = hunk.old_start > 0 ? hunk.old_start - 1 : 0;

    const bool pre_found = contains_run(file_lines, pre, around);
    const bool post_found = contains_run(file_lines, post, around);

    if (post_found && !pre_found) {
      ++report.hunks_patched;
    } else if (pre_found && !post_found) {
      ++report.hunks_vulnerable;
    } else if (pre_found && post_found) {
      // Identical pre/post images (pure-move hunks can do this) — count
      // as unknown rather than guessing.
      ++report.hunks_unknown;
    } else {
      ++report.hunks_unknown;
    }
  }

  if (report.hunks_patched > 0 && report.hunks_vulnerable == 0) {
    report.verdict = Presence::kPatched;
  } else if (report.hunks_vulnerable > 0 && report.hunks_patched == 0) {
    report.verdict = Presence::kVulnerable;
  } else if (report.hunks_patched > 0 && report.hunks_vulnerable > 0) {
    report.verdict = Presence::kBoth;
  } else {
    report.verdict = Presence::kUnknown;
  }
  return report;
}

}  // namespace patchdb::core
