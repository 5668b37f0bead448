// Patch presence testing — the paper's headline downstream use case
// (Section V-A.1): "The presence of such patches can be tested in the
// downstream software". Given a file from a (possibly diverged)
// downstream tree and a security patch touching it, decide whether the
// fix is already applied. The test matches the patch's post-image
// (context + added lines) and pre-image (context + removed lines)
// against the file with the fuzzy locator, so downstream drift within
// the usual limits does not break the verdict.
#pragma once

#include <string>
#include <vector>

#include "diff/fuzz_apply.h"
#include "diff/patch.h"

namespace patchdb::core {

enum class Presence {
  kPatched,     // post-image found, pre-image not
  kVulnerable,  // pre-image found, post-image not
  kBoth,        // hunks disagree or both images found (partial backport)
  kUnknown,     // neither image locatable (too much drift)
};

const char* presence_name(Presence p);

struct PresenceReport {
  Presence verdict = Presence::kUnknown;
  std::size_t hunks_patched = 0;
  std::size_t hunks_vulnerable = 0;
  std::size_t hunks_unknown = 0;
};

/// Test one file's hunks against downstream content.
PresenceReport test_presence(const std::vector<std::string>& file_lines,
                             const diff::FileDiff& fd);

}  // namespace patchdb::core
