#include "analysis/analyze.h"

#include <map>
#include <set>
#include <utility>

#include "analysis/callgraph.h"
#include "analysis/summary.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace patchdb::analysis {

namespace {

/// Multiset of diagnostic keys -> representative diagnostic + count.
struct KeyedDiagnostics {
  std::map<std::string, std::pair<Diagnostic, std::size_t>> by_key;

  explicit KeyedDiagnostics(const std::vector<Diagnostic>& diagnostics) {
    for (const Diagnostic& d : diagnostics) {
      auto [it, inserted] = by_key.try_emplace(d.key(), d, 0u);
      ++it->second.second;
    }
  }
};

void diff_reports(const FileReport& before, const FileReport& after,
                  PatchAnalysis& out) {
  const KeyedDiagnostics b(before.diagnostics);
  const KeyedDiagnostics a(after.diagnostics);

  for (const auto& [key, entry] : b.by_key) {
    const auto it = a.by_key.find(key);
    const std::size_t after_count = it == a.by_key.end() ? 0 : it->second.second;
    if (entry.second > after_count) {
      const std::size_t n = entry.second - after_count;
      out.resolved_by_checker[static_cast<std::size_t>(entry.first.checker)] += n;
      out.resolved.push_back(entry.first);
    }
  }
  for (const auto& [key, entry] : a.by_key) {
    const auto it = b.by_key.find(key);
    const std::size_t before_count = it == b.by_key.end() ? 0 : it->second.second;
    if (entry.second > before_count) {
      const std::size_t n = entry.second - before_count;
      out.introduced_by_checker[static_cast<std::size_t>(entry.first.checker)] += n;
      out.introduced.push_back(entry.first);
    }
  }

  out.net_blocks = static_cast<long>(after.blocks) - static_cast<long>(before.blocks);
  out.net_edges = static_cast<long>(after.edges) - static_cast<long>(before.edges);
  out.net_cyclomatic =
      static_cast<long>(after.cyclomatic) - static_cast<long>(before.cyclomatic);
}

/// Function name -> concatenated body text (first definition wins), the
/// cheap identity used to decide which functions the patch changed.
std::map<std::string, std::string> function_texts(const FileReport& report) {
  std::map<std::string, std::string> out;
  for (const Cfg& cfg : report.cfgs) {
    std::string text;
    for (const BasicBlock& block : cfg.blocks) {
      for (const Statement& stmt : block.statements) {
        text += stmt.text();
        text += '\n';
      }
    }
    out.try_emplace(cfg.function, std::move(text));
  }
  return out;
}

void diff_interproc(const FileReport& before, const FileReport& after,
                    PatchAnalysis& out) {
  out.interproc = true;
  out.net_call_edges = static_cast<long>(after.interproc.call_edges) -
                       static_cast<long>(before.interproc.call_edges);

  std::set<std::string> names;
  for (const auto& [name, sig] : before.interproc.summary_signatures) {
    names.insert(name);
  }
  for (const auto& [name, sig] : after.interproc.summary_signatures) {
    names.insert(name);
  }
  const auto signature_in = [](const InterprocStats& stats, const std::string& name)
      -> const std::string* {
    const auto it = stats.summary_signatures.find(name);
    return it == stats.summary_signatures.end() ? nullptr : &it->second;
  };
  static const std::string kMissing;
  for (const std::string& name : names) {
    const std::string* b = signature_in(before.interproc, name);
    const std::string* a = signature_in(after.interproc, name);
    out.summary_changes += (b == nullptr ? kMissing : *b) !=
                           (a == nullptr ? kMissing : *a);
  }

  // Changed functions: body text differs between the sides (or the
  // function exists on one side only). Their call-graph context — who
  // calls them, whom they call — is the paper-adjacent fan signal. The
  // "<fragment>" pseudo-function churns with hunk framing, so it is
  // excluded.
  const std::map<std::string, std::string> texts_before = function_texts(before);
  const std::map<std::string, std::string> texts_after = function_texts(after);
  std::set<std::string> changed;
  for (const auto& [name, text] : texts_before) {
    const auto it = texts_after.find(name);
    if (it == texts_after.end() || it->second != text) changed.insert(name);
  }
  for (const auto& [name, text] : texts_after) {
    if (!texts_before.count(name)) changed.insert(name);
  }
  changed.erase("<fragment>");
  for (const std::string& name : changed) {
    const auto in_after = after.interproc.fan.find(name);
    const auto& fan = in_after != after.interproc.fan.end()
                          ? in_after->second
                          : before.interproc.fan.at(name);
    out.changed_fan_in += fan.first;
    out.changed_fan_out += fan.second;
  }
}

}  // namespace

FileReport analyze_source(std::string_view source, const AnalyzeOptions& options) {
  FileReport report;
  report.cfgs = build_cfgs(source);
  // Each function's facts are extracted once: the call graph reads them,
  // the summary sweeps and the final check solve over them.
  std::vector<FunctionFacts> facts;
  facts.reserve(report.cfgs.size());
  for (const Cfg& cfg : report.cfgs) {
    report.blocks += cfg.blocks.size();
    report.edges += cfg.edge_count();
    report.cyclomatic += cfg.cyclomatic();
    facts.push_back(facts_for(cfg));
  }

  CallGraph graph;
  SummaryTable table;
  if (options.interproc) {
    graph = build_call_graph(report.cfgs, facts);
    table = compute_summaries(report.cfgs, facts, graph);
  }
  const SummaryTable* summaries = options.interproc ? &table : nullptr;
  for (std::size_t i = 0; i < report.cfgs.size(); ++i) {
    const Cfg& cfg = report.cfgs[i];
    const DataflowResult dataflow =
        solve_dataflow(cfg, std::move(facts[i]), summaries);
    std::vector<Diagnostic> diagnostics = run_checkers(cfg, dataflow, summaries);
    report.diagnostics.insert(report.diagnostics.end(),
                              std::make_move_iterator(diagnostics.begin()),
                              std::make_move_iterator(diagnostics.end()));
  }
  if (!options.interproc) return report;

  InterprocStats& stats = report.interproc;
  stats.functions = report.cfgs.size();
  stats.call_edges = graph.edge_count();
  stats.call_sites = graph.call_sites;
  stats.unresolved_calls = graph.unresolved_calls;
  stats.sccs = graph.sccs.size();
  stats.recursive_sccs = graph.recursive_scc_count();
  stats.summary_iterations = table.iterations;
  stats.flagged_summaries = table.flagged_count();
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    // Duplicate names collapse onto their first definition, matching the
    // graph's name table.
    if (graph.index_of(graph.nodes[i].name) != i) continue;
    stats.fan[graph.nodes[i].name] = {graph.nodes[i].fan_in,
                                      graph.nodes[i].fan_out};
  }
  for (const auto& [name, summary] : table.by_function) {
    stats.summary_signatures[name] = summary.signature();
  }
  return report;
}

FileReport analyze_source(std::string_view source) {
  return analyze_source(source, AnalyzeOptions{});
}

PatchAnalysis analyze_versions(std::string_view before_source,
                               std::string_view after_source,
                               const AnalyzeOptions& options) {
  PatchAnalysis out;
  out.before = analyze_source(before_source, options);
  out.after = analyze_source(after_source, options);
  diff_reports(out.before, out.after, out);
  if (options.interproc) diff_interproc(out.before, out.after, out);
  return out;
}

PatchAnalysis analyze_versions(std::string_view before_source,
                               std::string_view after_source) {
  return analyze_versions(before_source, after_source, AnalyzeOptions{});
}

std::string reconstruct_fragment(const diff::FileDiff& file_diff, bool after) {
  std::string out;
  for (const diff::Hunk& hunk : file_diff.hunks) {
    // The section line often carries the enclosing function signature;
    // prepend it so the fragment parser can attribute the hunk.
    if (!hunk.section.empty()) {
      out += hunk.section;
      out += '\n';
    }
    for (const diff::Line& line : hunk.lines) {
      if (after && line.kind == diff::LineKind::kRemoved) continue;
      if (!after && line.kind == diff::LineKind::kAdded) continue;
      out += line.text;
      out += '\n';
    }
    out += '\n';
  }
  return out;
}

PatchAnalysis analyze_patch(const diff::Patch& patch, const AnalyzeOptions& options) {
  PATCHDB_TRACE_SPAN("analysis.patch");
  PATCHDB_COUNTER_ADD("analysis.patches", 1);
  if (options.interproc) PATCHDB_COUNTER_ADD("analysis.interproc.patches", 1);
  std::string before_source;
  std::string after_source;
  for (const diff::FileDiff& fd : patch.files) {
    const std::string& path = fd.new_path.empty() ? fd.old_path : fd.new_path;
    if (!diff::is_cpp_path(path)) continue;
    before_source += reconstruct_fragment(fd, /*after=*/false);
    after_source += reconstruct_fragment(fd, /*after=*/true);
  }
  PatchAnalysis result = analyze_versions(before_source, after_source, options);
  PATCHDB_COUNTER_ADD("analysis.diagnostics",
                      result.before.diagnostics.size() +
                          result.after.diagnostics.size());
  return result;
}

PatchAnalysis analyze_patch(const diff::Patch& patch) {
  return analyze_patch(patch, AnalyzeOptions{});
}

}  // namespace patchdb::analysis
