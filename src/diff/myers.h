// Myers O(ND) diff between two line sequences, emitted as unified-diff
// hunks with git's three lines of context. The corpus simulator generates
// commits by mutating source files and diffing old vs new — exactly how
// git produces the patches the paper downloads.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "diff/patch.h"

namespace patchdb::diff {

/// Context lines kept around each change, like git.
inline constexpr std::size_t kContextLines = 3;

/// Compute hunks turning `old_lines` into `new_lines`. Empty result means
/// the files are identical. The lines are views: only the lines a hunk
/// keeps are copied, into that hunk. The greedy search records just the
/// live diagonals `-d..d` of each step, so its trace costs O(D²) for D
/// edits whatever the file lengths.
std::vector<Hunk> diff_lines(std::span<const std::string_view> old_lines,
                             std::span<const std::string_view> new_lines);

/// Convenience: build a whole FileDiff (kModify, or kCreate/kDelete when
/// one side is empty) for a path.
FileDiff diff_file(const std::string& path, std::span<const std::string_view> old_lines,
                   std::span<const std::string_view> new_lines);

/// Views of owned lines, for diffing them. The views live as long as
/// `lines` is neither modified nor destroyed.
std::vector<std::string_view> line_views(const std::vector<std::string>& lines);
std::vector<std::string_view> line_views(const std::vector<std::string>&&) = delete;

}  // namespace patchdb::diff
