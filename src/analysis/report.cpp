#include "analysis/report.h"

#include <map>

#include "util/table.h"

namespace patchdb::analysis {

namespace {

std::map<std::size_t, std::size_t> count_by_checker(
    const std::vector<Diagnostic>& diagnostics) {
  std::map<std::size_t, std::size_t> counts;
  for (const Diagnostic& d : diagnostics) {
    ++counts[static_cast<std::size_t>(d.checker)];
  }
  return counts;
}

void append_diagnostic_lines(std::string& out, const std::vector<Diagnostic>& list,
                             std::string_view marker) {
  for (const Diagnostic& d : list) {
    out += "  ";
    out += marker;
    out += ' ';
    out += checker_name(d.checker);
    out += "  ";
    out += d.function;
    out += ':';
    out += std::to_string(d.line);
    out += "  ";
    out += d.message;
    out += '\n';
  }
}

}  // namespace

std::string render_report(const PatchAnalysis& analysis, const ReportOptions& options) {
  std::string out;

  util::Table table("semantic checker diff (BEFORE -> AFTER)");
  table.set_header({"Checker", "Before", "After", "Resolved", "Introduced"});
  const auto before = count_by_checker(analysis.before.diagnostics);
  const auto after = count_by_checker(analysis.after.diagnostics);
  for (const CheckerInfo& info : checkers()) {
    const std::size_t c = static_cast<std::size_t>(info.id);
    const auto count_in = [c](const std::map<std::size_t, std::size_t>& counts) {
      const auto it = counts.find(c);
      return it == counts.end() ? std::size_t{0} : it->second;
    };
    table.add_row({std::string(info.name), std::to_string(count_in(before)),
                   std::to_string(count_in(after)),
                   std::to_string(analysis.resolved_by_checker[c]),
                   std::to_string(analysis.introduced_by_checker[c])});
  }
  out += table.render();

  out += "  control flow: ";
  out += std::to_string(analysis.before.cfgs.size());
  out += " -> ";
  out += std::to_string(analysis.after.cfgs.size());
  out += " functions, ";
  out += std::to_string(analysis.before.blocks);
  out += " -> ";
  out += std::to_string(analysis.after.blocks);
  out += " blocks, ";
  out += std::to_string(analysis.before.edges);
  out += " -> ";
  out += std::to_string(analysis.after.edges);
  out += " edges, cyclomatic ";
  out += std::to_string(analysis.before.cyclomatic);
  out += " -> ";
  out += std::to_string(analysis.after.cyclomatic);
  out += '\n';

  if (analysis.interproc) {
    out += "  call graph: ";
    out += std::to_string(analysis.before.interproc.call_edges);
    out += " -> ";
    out += std::to_string(analysis.after.interproc.call_edges);
    out += " edges (";
    if (analysis.net_call_edges >= 0) out += '+';
    out += std::to_string(analysis.net_call_edges);
    out += "), ";
    out += std::to_string(analysis.before.interproc.sccs);
    out += " -> ";
    out += std::to_string(analysis.after.interproc.sccs);
    out += " sccs (";
    out += std::to_string(analysis.after.interproc.recursive_sccs);
    out += " recursive), ";
    out += std::to_string(analysis.before.interproc.unresolved_calls);
    out += " -> ";
    out += std::to_string(analysis.after.interproc.unresolved_calls);
    out += " unresolved calls\n";
    out += "  summaries: ";
    out += std::to_string(analysis.before.interproc.flagged_summaries);
    out += " -> ";
    out += std::to_string(analysis.after.interproc.flagged_summaries);
    out += " flagged, ";
    out += std::to_string(analysis.summary_changes);
    out += " changed by the patch; changed functions carry fan-in ";
    out += std::to_string(analysis.changed_fan_in);
    out += ", fan-out ";
    out += std::to_string(analysis.changed_fan_out);
    out += '\n';
  }

  if (!analysis.resolved.empty()) {
    out += "resolved by this patch:\n";
    append_diagnostic_lines(out, analysis.resolved, "-");
  }
  if (!analysis.introduced.empty()) {
    out += "introduced by this patch:\n";
    append_diagnostic_lines(out, analysis.introduced, "+");
  }
  if (analysis.resolved.empty() && analysis.introduced.empty()) {
    out += "no checker-visible change between BEFORE and AFTER\n";
  }

  if (options.show_unchanged) {
    out += "still present after the patch:\n";
    std::map<std::string, bool> introduced_keys;
    for (const Diagnostic& d : analysis.introduced) introduced_keys[d.key()] = true;
    std::vector<Diagnostic> unchanged;
    for (const Diagnostic& d : analysis.after.diagnostics) {
      if (introduced_keys.find(d.key()) == introduced_keys.end()) {
        unchanged.push_back(d);
      }
    }
    append_diagnostic_lines(out, unchanged, "=");
  }

  return out;
}

}  // namespace patchdb::analysis
