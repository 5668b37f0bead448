// Human-readable rendering of a PatchAnalysis: the `patchdb analyze`
// output. Kept separate from analyze.h so library users embedding the
// analyzer do not pull in the table renderer.
#pragma once

#include <string>

#include "analysis/analyze.h"

namespace patchdb::analysis {

struct ReportOptions {
  bool show_unchanged = false;  // also list diagnostics present on both sides
};

std::string render_report(const PatchAnalysis& analysis,
                          const ReportOptions& options = {});

}  // namespace patchdb::analysis
