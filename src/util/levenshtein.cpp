#include "util/levenshtein.h"

#include <algorithm>
#include <vector>

namespace patchdb::util {

std::size_t levenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return a.size();

  // Single-row DP over the shorter string.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;

  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev_diag = row[0];  // dp[i-1][0]
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t prev_row = row[j];  // dp[i-1][j]
      const std::size_t subst = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
      prev_diag = prev_row;
    }
  }
  return row[b.size()];
}

}  // namespace patchdb::util
