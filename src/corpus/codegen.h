// Synthetic C code generator. The simulated repositories (DESIGN.md's
// substitution for the paper's 313 real C/C++ projects) are built from
// plausible generated functions: buffer handling, pointer walks, parsing
// loops, state updates. The mutation templates in mutate.h construct the
// BEFORE/AFTER versions of one function; everything around it comes from
// here.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace patchdb::corpus {

/// Names drawn for one generated function; the mutation templates weave
/// the same names into both versions so the diff stays minimal.
struct FunctionContext {
  std::string func_name;
  std::string buf;      // a stack buffer
  std::string ptr;      // a pointer parameter
  std::string idx;      // loop/index variable
  std::string len;      // length parameter
  std::string val;      // a scalar local
  std::string tmp;      // second scalar local
  std::string callee1;  // helper function names this function calls
  std::string callee2;
  std::string field;    // struct field accessed through ptr
  int buf_size = 64;
};

/// Draw a fresh, internally consistent context.
FunctionContext draw_context(util::Rng& rng);

/// `n` plausible filler statements (assignments, calls, conditionals)
/// touching the context's variables. One string per line, no indent.
std::vector<std::string> filler_statements(util::Rng& rng, const FunctionContext& ctx,
                                           std::size_t n);

/// Wrap body statements in a full function definition:
/// `static int <name>(struct <field>_ctx *<ptr>, size_t <len>) { ... }`.
/// The body is `body_parts` joined in order, so callers splice a body
/// without building it first. Non-empty body lines get one level of
/// indentation.
std::vector<std::string> make_function(
    const FunctionContext& ctx,
    std::initializer_list<std::span<const std::string>> body_parts);

/// A complete file: include block, a couple of declarations, then the
/// given functions separated by blank lines. The lines are views: of the
/// functions' lines, which must outlive the file, and of static text.
std::vector<std::string_view> make_file(
    util::Rng& rng, std::span<const std::span<const std::string>> functions);

/// Random identifiers for repositories/files.
std::string draw_repo_name(util::Rng& rng);
std::string draw_file_name(util::Rng& rng);

}  // namespace patchdb::corpus
