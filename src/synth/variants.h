// The eight `if`-statement control-flow variants of Fig. 5. Each variant
// rewrites one `if (COND)` into a semantically equivalent form (guard
// constant, hoisted boolean, or flag variable), optionally preceded by
// setup statements. Applying a variant to the BEFORE or AFTER version of
// a patched file and re-diffing yields a synthetic patch (Section III-C).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace patchdb::synth {

enum class IfVariant : int {
  kOrZero = 1,        // const int _SYS_ZERO = 0;  if (_SYS_ZERO || COND)
  kAndOne = 2,        // const int _SYS_ONE = 1;   if (_SYS_ONE && COND)
  kHoistEq = 3,       // int _SYS_STMT = (COND);   if (1 == _SYS_STMT)
  kHoistNegate = 4,   // int _SYS_STMT = !(COND);  if (!_SYS_STMT)
  kFlagSet = 5,       // _SYS_VAL=0; if (COND) _SYS_VAL=1;  if (_SYS_VAL)
  kFlagClear = 6,     // _SYS_VAL=1; if (COND) _SYS_VAL=0;  if (!_SYS_VAL)
  kFlagAnd = 7,       // flag-set form, then if (_SYS_VAL && COND)
  kFlagOrNot = 8,     // flag-clear form, then if (!_SYS_VAL || COND)
};

inline constexpr std::size_t kVariantCount = 8;

/// All eight variants in Fig. 5 order.
std::array<IfVariant, kVariantCount> all_variants();

const char* variant_name(IfVariant variant);

struct VariantRewrite {
  /// Setup statements inserted immediately before the `if` line (already
  /// carrying the same indentation).
  std::vector<std::string> setup;
  /// Replacement text for the `if (...)` head (indentation included).
  std::string new_if_head;
};

/// Build the rewrite for `if (condition)` with the given indentation.
/// `condition` is the raw text between the parentheses.
VariantRewrite rewrite_if(IfVariant variant, const std::string& condition,
                          const std::string& indent);

/// Apply a variant to `line`, a single-line `if` head whose condition is
/// `condition`: the lines that replace it in its file, the setup
/// statements and then the rewritten head followed by the rest of
/// `line`. Empty when `line` does not look like the expected `if` head.
std::vector<std::string> apply_variant(std::string_view line, const std::string& condition,
                                       IfVariant variant);

}  // namespace patchdb::synth
