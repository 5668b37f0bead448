// Fuzzy patch application, GNU-patch style. Real `.patch` files often
// target a slightly different version of the file than the one at hand:
// line numbers drift, or the outermost context lines changed. The fuzzy
// applier relocates each hunk within +/- kMaxOffset lines of its stated
// position and, failing that, retries with up to kMaxFuzz context
// lines ignored at each hunk edge — the tolerance the collection
// pipeline needs when a crawled patch does not match the checkout.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "diff/patch.h"

namespace patchdb::diff {

/// Search radius, in lines, around a hunk's stated position.
inline constexpr std::size_t kMaxOffset = 50;
/// Context lines a hunk may ignore at each edge.
inline constexpr std::size_t kMaxFuzz = 2;

struct FuzzReport {
  std::size_t hunks_applied = 0;
  std::size_t hunks_offset = 0;   // applied away from the stated position
  std::size_t hunks_fuzzed = 0;   // applied with reduced context
  std::size_t hunks_failed = 0;   // skipped entirely
  std::vector<std::string> notes;

  bool clean() const noexcept {
    return hunks_offset == 0 && hunks_fuzzed == 0 && hunks_failed == 0;
  }
};

/// Apply as much of `fd` as possible to `lines`; returns the patched
/// content plus a report. Unlike apply_file_diff this never throws on
/// mismatch — failed hunks are recorded and skipped.
std::vector<std::string> apply_with_fuzz(const std::vector<std::string>& lines,
                                         const FileDiff& fd, FuzzReport& report);

}  // namespace patchdb::diff
