#include "diff/myers.h"

#include <algorithm>
#include <cstddef>

namespace patchdb::diff {

namespace {

enum class EditKind { kKeep, kRemove, kAdd };

struct Edit {
  EditKind kind;
  std::size_t index;  // index into old (kKeep/kRemove) or new (kAdd)
};

/// Myers greedy O((N+M)D) edit script. `v[k]` is the furthest x on
/// diagonal k. Step d reads only diagonals -(d-1)..d-1 of step d-1, so
/// after each step that does not reach the end, the window `v[-d..d]` is
/// appended to one flat trace: step d's window starts at d², and its
/// diagonal k sits at d² + d + k. The backtrack reads the same values the
/// full copies of `v` held, so the script is the same.
std::vector<Edit> edit_script(std::span<const std::string_view> a,
                              std::span<const std::string_view> b) {
  const auto n = static_cast<std::ptrdiff_t>(a.size());
  const auto m = static_cast<std::ptrdiff_t>(b.size());
  const std::ptrdiff_t max_d = n + m;
  if (max_d == 0) return {};

  std::vector<std::ptrdiff_t> v(static_cast<std::size_t>(2 * max_d + 1), 0);
  const auto at = [&v, max_d](std::ptrdiff_t k) -> std::ptrdiff_t& {
    return v[static_cast<std::size_t>(k + max_d)];
  };
  std::vector<std::ptrdiff_t> trace;
  const auto traced = [&trace](std::ptrdiff_t d, std::ptrdiff_t k) {
    return trace[static_cast<std::size_t>(d * d + d + k)];
  };

  std::ptrdiff_t final_d = -1;
  for (std::ptrdiff_t d = 0; d <= max_d && final_d < 0; ++d) {
    for (std::ptrdiff_t k = -d; k <= d; k += 2) {
      std::ptrdiff_t x = (k == -d || (k != d && at(k - 1) < at(k + 1)))
                             ? at(k + 1)      // move down (insert from b)
                             : at(k - 1) + 1;  // move right (delete from a)
      std::ptrdiff_t y = x - k;
      while (x < n && y < m &&
             a[static_cast<std::size_t>(x)] == b[static_cast<std::size_t>(y)]) {
        ++x;
        ++y;
      }
      at(k) = x;
      if (x >= n && y >= m) {
        final_d = d;
        break;
      }
    }
    if (final_d < 0) trace.insert(trace.end(), &at(-d), &at(d) + 1);
  }

  // Backtrack through the trace to recover the script: each of the D
  // edits, plus the (N + M - D) / 2 keeps.
  std::vector<Edit> script;
  script.reserve(static_cast<std::size_t>((n + m + final_d) / 2));
  std::ptrdiff_t x = n;
  std::ptrdiff_t y = m;
  for (std::ptrdiff_t d = final_d; d > 0; --d) {
    const std::ptrdiff_t k = x - y;
    const std::ptrdiff_t prev_k =
        (k == -d || (k != d && traced(d - 1, k - 1) < traced(d - 1, k + 1)))
            ? k + 1
            : k - 1;
    const std::ptrdiff_t prev_x = traced(d - 1, prev_k);
    const std::ptrdiff_t prev_y = prev_x - prev_k;

    // Snake (diagonal keeps) back to the branch point.
    while (x > prev_x && y > prev_y) {
      script.push_back(Edit{EditKind::kKeep, static_cast<std::size_t>(x - 1)});
      --x;
      --y;
    }
    if (x == prev_x) {
      script.push_back(Edit{EditKind::kAdd, static_cast<std::size_t>(y - 1)});
      --y;
    } else {
      script.push_back(Edit{EditKind::kRemove, static_cast<std::size_t>(x - 1)});
      --x;
    }
  }
  while (x > 0 && y > 0) {
    script.push_back(Edit{EditKind::kKeep, static_cast<std::size_t>(x - 1)});
    --x;
    --y;
  }
  while (x > 0) {
    script.push_back(Edit{EditKind::kRemove, static_cast<std::size_t>(x - 1)});
    --x;
  }
  while (y > 0) {
    script.push_back(Edit{EditKind::kAdd, static_cast<std::size_t>(y - 1)});
    --y;
  }
  std::reverse(script.begin(), script.end());
  return script;
}

}  // namespace

std::vector<Hunk> diff_lines(std::span<const std::string_view> old_lines,
                             std::span<const std::string_view> new_lines) {
  const std::vector<Edit> script = edit_script(old_lines, new_lines);

  // Group the script into hunks: runs of changes separated by more than
  // 2*kContextLines keep-lines. Walk the script tracking both line counters.
  std::vector<Hunk> hunks;
  std::size_t i = 0;
  std::size_t old_line = 0;  // 0-based, lines consumed from old
  std::size_t new_line = 0;

  while (i < script.size()) {
    // Skip keeps to the next change.
    while (i < script.size() && script[i].kind == EditKind::kKeep) {
      ++old_line;
      ++new_line;
      ++i;
    }
    if (i >= script.size()) break;

    // The hunk ends kContextLines keeps into the first run of keeps that
    // reaches the end of the script or is longer than 2*kContextLines; shorter
    // runs are absorbed. Every edit in [i, end) is one line of the hunk.
    std::size_t end = i;
    while (end < script.size()) {
      if (script[end].kind != EditKind::kKeep) {
        ++end;
        continue;
      }
      std::size_t run = 0;
      while (end + run < script.size() && script[end + run].kind == EditKind::kKeep) {
        ++run;
      }
      if (end + run >= script.size() || run > 2 * kContextLines) {
        end += std::min(kContextLines, run);
        break;
      }
      end += run;
    }

    // Begin the hunk kContextLines lines before the change.
    Hunk hunk;
    const std::size_t lead = std::min(kContextLines, old_line);
    const std::size_t h_old = old_line - lead;
    const std::size_t h_new = new_line - lead;
    hunk.lines.reserve(lead + (end - i));
    for (std::size_t c = 0; c < lead; ++c) {
      hunk.lines.push_back(Line{LineKind::kContext, std::string(old_lines[h_old + c])});
    }
    for (; i < end; ++i) {
      const Edit& e = script[i];
      if (e.kind == EditKind::kKeep) {
        hunk.lines.push_back(Line{LineKind::kContext, std::string(old_lines[old_line])});
        ++old_line;
        ++new_line;
      } else if (e.kind == EditKind::kRemove) {
        hunk.lines.push_back(Line{LineKind::kRemoved, std::string(old_lines[e.index])});
        ++old_line;
      } else {
        hunk.lines.push_back(Line{LineKind::kAdded, std::string(new_lines[e.index])});
        ++new_line;
      }
    }

    hunk.old_count = old_line - h_old;
    hunk.new_count = new_line - h_new;
    // git's convention: a hunk with zero old lines anchors at the previous
    // line number (old_start is "insert after").
    hunk.old_start = hunk.old_count == 0 ? h_old : h_old + 1;
    hunk.new_start = hunk.new_count == 0 ? h_new : h_new + 1;
    hunks.push_back(std::move(hunk));
  }
  return hunks;
}

FileDiff diff_file(const std::string& path, std::span<const std::string_view> old_lines,
                   std::span<const std::string_view> new_lines) {
  FileDiff fd;
  fd.old_path = path;
  fd.new_path = path;
  if (old_lines.empty() && !new_lines.empty()) fd.change = ChangeKind::kCreate;
  if (!old_lines.empty() && new_lines.empty()) fd.change = ChangeKind::kDelete;
  fd.hunks = diff_lines(old_lines, new_lines);
  return fd;
}

std::vector<std::string_view> line_views(const std::vector<std::string>& lines) {
  return {lines.begin(), lines.end()};
}

}  // namespace patchdb::diff
