#include "feature/features.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>

#include "analysis/analyze.h"
#include "lang/abstract.h"
#include "lang/lexer.h"
#include "lang/taxonomy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/levenshtein.h"
#include "util/thread_pool.h"

namespace patchdb::feature {

namespace {

constexpr std::array<std::string_view, kFeatureCount> kNames = {
    "changed_lines",
    "hunks",
    "added_lines", "removed_lines", "total_lines", "net_lines",
    "added_chars", "removed_chars", "total_chars", "net_chars",
    "added_ifs", "removed_ifs", "total_ifs", "net_ifs",
    "added_loops", "removed_loops", "total_loops", "net_loops",
    "added_calls", "removed_calls", "total_calls", "net_calls",
    "added_arith_ops", "removed_arith_ops", "total_arith_ops", "net_arith_ops",
    "added_rel_ops", "removed_rel_ops", "total_rel_ops", "net_rel_ops",
    "added_logic_ops", "removed_logic_ops", "total_logic_ops", "net_logic_ops",
    "added_bit_ops", "removed_bit_ops", "total_bit_ops", "net_bit_ops",
    "added_mem_ops", "removed_mem_ops", "total_mem_ops", "net_mem_ops",
    "added_vars", "removed_vars", "total_vars", "net_vars",
    "total_modified_funcs", "net_modified_funcs",
    "lev_mean_raw", "lev_min_raw", "lev_max_raw",
    "lev_mean_abs", "lev_min_abs", "lev_max_abs",
    "same_hunks_raw", "same_hunks_abs",
    "affected_files", "affected_files_pct",
    "affected_funcs", "affected_funcs_pct",
};

constexpr std::array<std::string_view, kSemanticFeatureCount> kSemanticNames = {
    "sem_resolved_diags",
    "sem_introduced_diags",
    "sem_net_unchecked_alloc",
    "sem_net_missing_bounds",
    "sem_net_use_after_free",
    "sem_net_int_overflow",
    "sem_net_null_guard",
    "sem_net_uninit_use",
    "sem_net_format_string",
    "sem_cfg_net_blocks",
    "sem_cfg_net_edges",
    "sem_cfg_net_cyclomatic",
};

constexpr std::array<std::string_view, kInterprocFeatureCount> kInterprocNames = {
    "ip_resolved_diags",
    "ip_introduced_diags",
    "ip_resolved_delta",
    "ip_introduced_delta",
    "ip_net_call_edges",
    "ip_changed_fan_in",
    "ip_changed_fan_out",
    "ip_summary_changes",
};

/// Write the added/removed/total/net quad for one syntactic category.
void write_quad(std::span<double> v, std::size_t base, double added, double removed) {
  v[base] = added;
  v[base + 1] = removed;
  v[base + 2] = added + removed;
  v[base + 3] = added - removed;
}

/// The removed or the added side of a patch, one hunk at a time. Each
/// hunk side's lines are appended once to `joined`, the hunk sides each
/// followed by '\n', and the new slice is lexed where it lies: its tokens
/// feed the abstraction, and appended in hunk order they are the tokens
/// of `joined`, which count_syntax reads. When a hunk side ends open
/// (lexer.h), `joined` is lexed as a whole instead.
struct Side {
  std::string joined;
  std::vector<lang::Token> tokens;
  bool open = false;
  std::size_t lines = 0;
  std::size_t begin = 0;  // the last hunk side is joined[begin, end)
  std::size_t end = 0;

  /// Append the lines of `kind` in `hunk`; returns their abstracted text.
  std::string add(const diff::Hunk& hunk, diff::LineKind kind) {
    begin = joined.size();
    const std::size_t lines_before = lines;
    for (const diff::Line& line : hunk.lines) {
      if (line.kind != kind) continue;
      if (lines != lines_before) joined += '\n';
      joined += line.text;
      ++lines;
    }
    end = joined.size();
    bool ends_open = false;
    std::vector<lang::Token> hunk_tokens = lang::lex(text(), ends_open);
    joined += '\n';
    open = open || ends_open;
    std::string abstracted = lang::abstract_code(hunk_tokens);
    tokens.insert(tokens.end(), std::make_move_iterator(hunk_tokens.begin()),
                  std::make_move_iterator(hunk_tokens.end()));
    return abstracted;
  }

  /// The last hunk side, its lines joined by '\n'; valid until the next
  /// add.
  std::string_view text() const {
    return std::string_view(joined).substr(begin, end - begin);
  }

  lang::SyntaxCounts counts() const {
    if (open) return lang::count_syntax(joined);
    return lang::count_syntax(tokens);
  }
};

/// Mean, min and max of per-hunk distances, kept as they arrive: the
/// total is summed in hunk order.
struct Running {
  std::size_t count = 0;
  double total = 0.0;
  double lo = std::numeric_limits<double>::max();
  double hi = 0.0;

  void add(std::size_t distance) {
    const double d = static_cast<double>(distance);
    ++count;
    total += d;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }

  /// v[base, base + 3): mean, min, max; left 0 without a distance.
  void write(std::span<double> v, std::size_t base) const {
    if (count == 0) return;
    v[base] = total / static_cast<double>(count);
    v[base + 1] = lo;
    v[base + 2] = hi;
  }
};

/// A touched function, known by the text `path + "::" + section`, which
/// is never built: keys order as below, by that text.
struct FunctionKey {
  std::string_view path;
  std::string_view section;

  std::size_t size() const { return path.size() + 2 + section.size(); }

  /// Byte k of the text.
  char operator[](std::size_t k) const {
    if (k < path.size()) return path[k];
    k -= path.size();
    return k < 2 ? ':' : section[k - 2];
  }

  /// Shorter texts first, then byte by byte: two keys are equivalent
  /// exactly when their texts are equal.
  friend bool operator<(const FunctionKey& a, const FunctionKey& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k] != b[k]) return a[k] < b[k];
    }
    return false;
  }
};

/// Distinct keys among `keys` (reordered).
std::size_t count_distinct(std::vector<FunctionKey>& keys) {
  std::sort(keys.begin(), keys.end());
  std::size_t distinct = keys.empty() ? 0 : 1;
  for (std::size_t i = 1; i < keys.size(); ++i) distinct += keys[i - 1] < keys[i];
  return distinct;
}

/// Table I dimensions 0-59 of `patch` into v[0, 60), in one pass over its
/// hunks.
void write_syntactic(const diff::Patch& patch, std::span<double> v) {
  Side added_side;
  Side removed_side;
  std::size_t hunks = 0;
  std::size_t added_chars = 0;
  std::size_t removed_chars = 0;

  Running lev_raw;
  Running lev_abs;
  std::size_t same_raw = 0;
  std::size_t same_abs = 0;

  // The section line is the enclosing function signature: distinct
  // (file, section) texts count the touched functions.
  std::vector<FunctionKey> touched_functions;
  std::size_t sectionless_hunks = 0;

  for (const diff::FileDiff& fd : patch.files) {
    for (const diff::Hunk& hunk : fd.hunks) {
      ++hunks;
      const std::string removed_abs = removed_side.add(hunk, diff::LineKind::kRemoved);
      const std::string added_abs = added_side.add(hunk, diff::LineKind::kAdded);
      const std::string_view removed = removed_side.text();
      const std::string_view added = added_side.text();
      added_chars += added.size();
      removed_chars += removed.size();

      if (!(removed.empty() && added.empty())) {
        lev_raw.add(util::levenshtein(removed, added));
        lev_abs.add(util::levenshtein(removed_abs, added_abs));
        if (removed == added) ++same_raw;
        if (removed_abs == added_abs) ++same_abs;
      }

      if (!hunk.section.empty()) {
        touched_functions.push_back({fd.new_path, hunk.section});
      } else {
        ++sectionless_hunks;
      }
    }
  }

  const lang::SyntaxCounts added = added_side.counts();
  const lang::SyntaxCounts removed = removed_side.counts();

  const double added_lines = static_cast<double>(added_side.lines);
  const double removed_lines = static_cast<double>(removed_side.lines);

  v[0] = added_lines + removed_lines;
  v[1] = static_cast<double>(hunks);
  write_quad(v, 2, added_lines, removed_lines);
  write_quad(v, 6, static_cast<double>(added_chars), static_cast<double>(removed_chars));
  write_quad(v, 10, static_cast<double>(added.if_statements),
             static_cast<double>(removed.if_statements));
  write_quad(v, 14, static_cast<double>(added.loops), static_cast<double>(removed.loops));
  write_quad(v, 18, static_cast<double>(added.function_calls),
             static_cast<double>(removed.function_calls));
  write_quad(v, 22, static_cast<double>(added.arithmetic_ops),
             static_cast<double>(removed.arithmetic_ops));
  write_quad(v, 26, static_cast<double>(added.relational_ops),
             static_cast<double>(removed.relational_ops));
  write_quad(v, 30, static_cast<double>(added.logical_ops),
             static_cast<double>(removed.logical_ops));
  write_quad(v, 34, static_cast<double>(added.bitwise_ops),
             static_cast<double>(removed.bitwise_ops));
  write_quad(v, 38, static_cast<double>(added.memory_ops),
             static_cast<double>(removed.memory_ops));
  write_quad(v, 42, static_cast<double>(added.variables),
             static_cast<double>(removed.variables));

  const double total_funcs =
      static_cast<double>(count_distinct(touched_functions) + sectionless_hunks);
  v[46] = total_funcs;
  v[47] = static_cast<double>(added.function_defs) -
          static_cast<double>(removed.function_defs);

  lev_raw.write(v, 48);
  lev_abs.write(v, 51);
  v[54] = static_cast<double>(same_raw);
  v[55] = static_cast<double>(same_abs);

  // Within-patch fractions (features.h): files that carry hunks, and
  // touched functions per hunk.
  const double files = static_cast<double>(patch.files.size());
  double with_hunks = 0.0;
  for (const diff::FileDiff& fd : patch.files) with_hunks += !fd.hunks.empty();
  v[56] = files;
  v[57] = files > 0.0 ? with_hunks / files : 0.0;
  v[58] = total_funcs;
  v[59] = v[1] > 0.0 ? total_funcs / v[1] : 0.0;
}

/// Semantic dimensions 60-71 of `patch` into v[60, 72).
void write_semantic(const diff::Patch& patch, std::span<double> v) {
  const analysis::PatchAnalysis pa = analysis::analyze_patch(patch);
  v[60] = static_cast<double>(pa.resolved.size());
  v[61] = static_cast<double>(pa.introduced.size());
  for (std::size_t c = 0; c < analysis::kCheckerCount; ++c) {
    v[62 + c] = static_cast<double>(pa.resolved_by_checker[c]) -
                static_cast<double>(pa.introduced_by_checker[c]);
  }
  v[69] = static_cast<double>(pa.net_blocks);
  v[70] = static_cast<double>(pa.net_edges);
  v[71] = static_cast<double>(pa.net_cyclomatic);
}

/// Interprocedural dimensions 72-79 of `patch` into v[72, 80); reads the
/// intraprocedural counts already at v[60] and v[61].
void write_interproc(const diff::Patch& patch, std::span<double> v) {
  const analysis::PatchAnalysis ip =
      analysis::analyze_patch(patch, analysis::AnalyzeOptions{.interproc = true});
  v[72] = static_cast<double>(ip.resolved.size());
  v[73] = static_cast<double>(ip.introduced.size());
  // What only the cross-function view can see: interprocedural counts
  // minus the intraprocedural ones already sitting at dims 60/61.
  v[74] = v[72] - v[60];
  v[75] = v[73] - v[61];
  v[76] = static_cast<double>(ip.net_call_edges);
  v[77] = static_cast<double>(ip.changed_fan_in);
  v[78] = static_cast<double>(ip.changed_fan_out);
  v[79] = static_cast<double>(ip.summary_changes);
}

/// Fill the zeroed `row` of `patch`. Its width, feature_dims(space), picks
/// the space: each space extends the one before it.
void write_row(const diff::Patch& patch, std::span<double> row) {
  write_syntactic(patch, row);
  if (row.size() >= kExtendedFeatureCount) write_semantic(patch, row);
  if (row.size() >= kInterprocExtendedFeatureCount) write_interproc(patch, row);
}

}  // namespace

std::span<const std::string_view> feature_names(FeatureSpace space) {
  static const std::array<std::string_view, kInterprocExtendedFeatureCount> kAll =
      [] {
        std::array<std::string_view, kInterprocExtendedFeatureCount> all{};
        std::copy(kNames.begin(), kNames.end(), all.begin());
        std::copy(kSemanticNames.begin(), kSemanticNames.end(),
                  all.begin() + kFeatureCount);
        std::copy(kInterprocNames.begin(), kInterprocNames.end(),
                  all.begin() + kExtendedFeatureCount);
        return all;
      }();
  return std::span<const std::string_view>(kAll).first(feature_dims(space));
}

FeatureVector extract(const diff::Patch& patch) {
  FeatureVector v{};
  write_row(patch, v);
  return v;
}

std::vector<double> extract(const diff::Patch& patch, FeatureSpace space) {
  std::vector<double> row(feature_dims(space), 0.0);
  write_row(patch, row);
  return row;
}

FeatureMatrix extract_all(std::span<const diff::Patch* const> patches,
                          FeatureSpace space) {
  PATCHDB_TRACE_SPAN("feature.extract_all");
  PATCHDB_COUNTER_ADD("feature.rows_extracted", patches.size());
  FeatureMatrix matrix(patches.size(), feature_dims(space));
  util::default_pool().parallel_for(
      patches.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          write_row(*patches[i], matrix[i]);
        }
      });
  return matrix;
}

}  // namespace patchdb::feature
