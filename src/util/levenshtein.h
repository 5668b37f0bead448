// Levenshtein (edit) distance between strings. Used by the Table I
// feature extractor (features 49-54: mean/min/max edit distance between
// the removed and added text of each hunk, before and after token
// abstraction).
#pragma once

#include <cstddef>
#include <string_view>

namespace patchdb::util {

/// Classic O(|a|*|b|) time, O(min) space edit distance with unit costs.
std::size_t levenshtein(std::string_view a, std::string_view b);

}  // namespace patchdb::util
