#include "corpus/repo.h"

#include <array>
#include <span>
#include <string_view>

#include "diff/myers.h"
#include "diff/render.h"
#include "util/hash.h"

namespace patchdb::corpus {

namespace {

constexpr std::array<std::string_view, 10> kAuthors = {
    "Alex Chen <alex@example.org>",      "Priya Natarajan <priya@example.org>",
    "Sam Okafor <sam@example.org>",      "Lena Fischer <lena@example.org>",
    "Marco Rossi <marco@example.org>",   "Yuki Tanaka <yuki@example.org>",
    "Dana Whitfield <dana@example.org>", "Omar Haddad <omar@example.org>",
    "Ingrid Sol <ingrid@example.org>",   "Pavel Novak <pavel@example.org>",
};

constexpr std::array<std::string_view, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
};

std::string draw_date(util::Rng& rng) {
  const int year = 1999 + static_cast<int>(rng.index(21));  // 1999..2019
  const auto month = kMonths[rng.index(kMonths.size())];
  const int day = 1 + static_cast<int>(rng.index(28));
  const int hour = static_cast<int>(rng.index(24));
  const int minute = static_cast<int>(rng.index(60));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*s %d %02d:%02d:00 %d +0000",
                static_cast<int>(month.size()), month.data(), day, hour, minute,
                year);
  return buf;
}

/// One touched C file: neighbors + the mutated target function. Each
/// function is built once and owned here; both versions of the file are
/// views of their lines (and of make_file's static text).
struct BuiltFile {
  std::string path;
  std::vector<std::vector<std::string>> functions;
  std::vector<std::string_view> before;
  std::vector<std::string_view> after;
};

BuiltFile build_target_file(util::Rng& rng, PatchType type,
                            const CommitOptions& options, std::string* message) {
  const FunctionContext ctx = draw_context(rng);
  MutationResult mutation = make_mutation(rng, ctx, type);
  if (message != nullptr && message->empty()) *message = std::move(mutation.message);

  // One to three neighbor functions around the target.
  const std::size_t neighbors = 1 + rng.index(3);

  BuiltFile file;
  // The target's two versions, one function per neighbor and at most one
  // bundled cleanup: reserved, so no function moves once viewed.
  file.functions.reserve(neighbors + 3);
  const auto& target_before = file.functions.emplace_back(std::move(mutation.before));
  const auto& target_after = file.functions.emplace_back(std::move(mutation.after));
  std::vector<std::span<const std::string>> before_funcs;
  std::vector<std::span<const std::string>> after_funcs;
  before_funcs.reserve(neighbors + 1);
  after_funcs.reserve(neighbors + 1);
  const std::size_t target_slot = neighbors == 0 ? 0 : rng.index(neighbors + 1);
  const bool bundle = is_security_type(type) && neighbors > 0 &&
                      rng.chance(options.bundle_cleanup_prob);
  bool bundled = false;
  for (std::size_t slot = 0; slot <= neighbors; ++slot) {
    if (slot == target_slot) {
      before_funcs.push_back(target_before);
      after_funcs.push_back(target_after);
    } else {
      const FunctionContext other = draw_context(rng);
      const std::vector<std::string> body =
          filler_statements(rng, other, 3 + rng.index(5));
      const auto& fn = file.functions.emplace_back(make_function(other, {body}));
      before_funcs.push_back(fn);
      if (bundle && !bundled) {
        // Unrelated drive-by cleanup riding along with the fix.
        const std::vector<std::string> extra =
            filler_statements(rng, other, 1 + rng.index(2));
        const std::span<const std::string> lines(body);
        const std::size_t at = rng.index(body.size() + 1);
        after_funcs.push_back(file.functions.emplace_back(
            make_function(other, {lines.first(at), extra, lines.subspan(at)})));
        bundled = true;
      } else {
        after_funcs.push_back(fn);
      }
    }
  }

  file.path = draw_file_name(rng);
  // One rng must shape both versions identically outside the mutation, so
  // generate the file wrapper once and splice.
  util::Rng wrapper_rng(rng());
  util::Rng wrapper_rng_copy = wrapper_rng;
  file.before = make_file(wrapper_rng, before_funcs);
  file.after = make_file(wrapper_rng_copy, after_funcs);
  return file;
}

}  // namespace

PatchType draw_patch_type(util::Rng& rng, const TypeDistribution& dist,
                          double security_prob) {
  if (rng.chance(security_prob)) {
    const std::size_t idx = rng.weighted(std::span(dist.data(), dist.size()));
    return security_types()[idx];
  }
  // Non-security mix modeled on what GitHub histories actually contain:
  // features/refactors dominate, but a substantial share of commits are
  // defensive hardening that reads exactly like a security fix. The 18%
  // defensive share calibrates the nearest-link candidate precision into
  // the paper's 22-30% band (Table II) at an 8% security base rate.
  static constexpr double kNonSecWeights[] = {
      0.16,  // kNewFeature
      0.15,  // kRefactor
      0.11,  // kPerfFix
      0.14,  // kLogicBugFix
      0.10,  // kStyle
      0.12,  // kDocs
      0.22,  // kDefensive
  };
  const auto kinds = nonsecurity_types();
  static_assert(std::size(kNonSecWeights) == 7);
  return kinds[rng.weighted(kNonSecWeights)];
}

CommitRecord make_commit(util::Rng& rng, const std::string& repo_name,
                         PatchType type, const CommitOptions& options) {
  CommitRecord record;
  record.repo = repo_name;
  record.truth.is_security = is_security_type(type);
  record.truth.type = type;

  std::string message;
  std::vector<BuiltFile> files;
  files.push_back(build_target_file(rng, type, options, &message));
  if (rng.chance(options.multi_file_prob)) {
    files.push_back(build_target_file(rng, type, options, nullptr));
  }

  diff::Patch& patch = record.patch;
  patch.message = message;
  patch.author = std::string(kAuthors[rng.index(kAuthors.size())]);
  patch.date = draw_date(rng);

  for (const BuiltFile& file : files) {
    diff::FileDiff fd = diff::diff_file(file.path, file.before, file.after);
    // Stamp hunk sections with the enclosing function name like git does;
    // cheap approximation: use the first function signature above the hunk.
    for (diff::Hunk& hunk : fd.hunks) {
      for (std::size_t line = std::min(hunk.old_start, file.before.size());
           line-- > 0;) {
        const std::string_view text = file.before[line];
        if (text.starts_with("static ")) {
          hunk.section = text;
          break;
        }
      }
    }
    patch.files.push_back(std::move(fd));
    if (options.keep_snapshots) {
      record.snapshots.push_back(
          FileSnapshot{file.path, {file.before.begin(), file.before.end()},
                       {file.after.begin(), file.after.end()}});
    }
  }

  if (rng.chance(options.noise_file_prob)) {
    // Companion documentation change the C/C++ filter must strip.
    diff::FileDiff doc;
    doc.old_path = "ChangeLog";
    doc.new_path = "ChangeLog";
    diff::Hunk hunk;
    hunk.old_start = 1;
    hunk.old_count = 1;
    hunk.new_start = 1;
    hunk.new_count = 2;
    hunk.lines.push_back(diff::Line{diff::LineKind::kAdded, "* " + message});
    hunk.lines.push_back(
        diff::Line{diff::LineKind::kContext, "* previous release notes"});
    doc.hunks.push_back(std::move(hunk));
    patch.files.push_back(std::move(doc));
  }

  if (record.truth.is_security && rng.chance(options.euphemize_prob)) {
    // Euphemisms deliberately reuse the vocabulary of ordinary
    // maintenance commits, as real silent fixes do — a text miner must
    // not be able to separate them lexically.
    static constexpr std::array<std::string_view, 8> kEuphemisms = {
        "fix corner case", "improve error handling", "minor cleanup",
        "simplify logic", "fix rare crash", "code cleanup",
        "fix regression from earlier refactor", "address intermittent failure",
    };
    patch.message = std::string(kEuphemisms[rng.index(kEuphemisms.size())]);
    if (rng.chance(0.6)) {
      // often still naming the touched function, like every other commit
      const std::size_t in_pos = patch.message.size();
      (void)in_pos;
      patch.message += " in " + (message.empty() ? "core" : message.substr(
                                     message.find_last_of(' ') + 1));
    }
  }

  std::string content = diff::render_file_diffs(patch.files);
  content += patch.message;
  content += util::to_hex(rng());
  patch.commit = util::commit_id(content);
  return record;
}

CommitRecord make_version_bump_commit(util::Rng& rng,
                                      const std::string& repo_name) {
  CommitRecord record;
  record.repo = repo_name;
  record.truth.is_security = false;
  record.truth.type = PatchType::kNewFeature;

  diff::Patch& patch = record.patch;
  patch.message = "release: import version " + std::to_string(1 + rng.index(9)) +
                  "." + std::to_string(rng.index(20));
  patch.author = std::string(kAuthors[rng.index(kAuthors.size())]);
  patch.date = draw_date(rng);

  // A pile of unrelated whole-function changes across many files.
  const std::size_t n_files = 6 + rng.index(8);
  for (std::size_t i = 0; i < n_files; ++i) {
    const FunctionContext ctx = draw_context(rng);
    const std::vector<std::string> old_fn =
        make_function(ctx, {filler_statements(rng, ctx, 4 + rng.index(4))});
    const std::vector<std::string> new_fn =
        make_function(ctx, {filler_statements(rng, ctx, 4 + rng.index(6))});
    patch.files.push_back(diff::diff_file(draw_file_name(rng), diff::line_views(old_fn),
                                          diff::line_views(new_fn)));
  }
  patch.commit = util::commit_id(diff::render_file_diffs(patch.files) +
                                 patch.message + util::to_hex(rng()));
  return record;
}

}  // namespace patchdb::corpus
