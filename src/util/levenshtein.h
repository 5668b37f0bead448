// Levenshtein (edit) distance between strings. Used by the Table I
// feature extractor (features 49-54: mean/min/max edit distance between
// the removed and added text of each hunk, before and after token
// abstraction).
#pragma once

#include <cstddef>
#include <string_view>

namespace patchdb::util {

/// Edit distance with unit costs, over bytes. After trimming the common
/// prefix and suffix (exact for unit costs), it runs Myers' bit-vector
/// algorithm (G. Myers, J. ACM 46(3), 1999) in Hyyrö's global-distance
/// form: the shorter string is the pattern, one 64-bit word holds 64 of
/// its rows, and longer patterns are split into blocks of 64 that pass
/// the horizontal delta down. Cost O(ceil(m/64) * n) for pattern length
/// m and text length n, plus a 256-entry match table per word. The
/// result is exactly the classic dynamic program's, which the tests keep
/// as the oracle.
std::size_t levenshtein(std::string_view a, std::string_view b);

}  // namespace patchdb::util
