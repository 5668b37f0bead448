#include "analysis/callgraph.h"

#include <algorithm>

#include "obs/metrics.h"

namespace patchdb::analysis {

namespace {

/// Iterative Tarjan SCC over the call adjacency. Emission order is the
/// property the summary pass relies on: an SCC is completed only after
/// every SCC it calls into has been emitted, so the output list is
/// bottom-up (callees first).
class TarjanScc {
 public:
  explicit TarjanScc(const std::vector<std::vector<std::size_t>>& succs)
      : succs_(succs),
        index_(succs.size(), kUnvisited),
        lowlink_(succs.size(), 0),
        on_stack_(succs.size(), false) {}

  std::vector<std::vector<std::size_t>> run() {
    for (std::size_t v = 0; v < succs_.size(); ++v) {
      if (index_[v] == kUnvisited) visit(v);
    }
    return std::move(sccs_);
  }

 private:
  static constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);

  struct Frame {
    std::size_t node;
    std::size_t next_succ = 0;  // resume point into succs_[node]
  };

  void visit(std::size_t root) {
    std::vector<Frame> frames;
    frames.push_back({root});
    open(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::size_t v = frame.node;
      if (frame.next_succ < succs_[v].size()) {
        const std::size_t w = succs_[v][frame.next_succ++];
        if (index_[w] == kUnvisited) {
          open(w);
          frames.push_back({w});
        } else if (on_stack_[w]) {
          lowlink_[v] = std::min(lowlink_[v], index_[w]);
        }
        continue;
      }
      if (lowlink_[v] == index_[v]) {
        std::vector<std::size_t> scc;
        std::size_t w;
        do {
          w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          scc.push_back(w);
        } while (w != v);
        std::sort(scc.begin(), scc.end());
        sccs_.push_back(std::move(scc));
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink_[frames.back().node] =
            std::min(lowlink_[frames.back().node], lowlink_[v]);
      }
    }
  }

  void open(std::size_t v) {
    index_[v] = next_index_;
    lowlink_[v] = next_index_;
    ++next_index_;
    stack_.push_back(v);
    on_stack_[v] = true;
  }

  const std::vector<std::vector<std::size_t>>& succs_;
  std::vector<std::size_t> index_;
  std::vector<std::size_t> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<std::size_t> stack_;
  std::size_t next_index_ = 0;
  std::vector<std::vector<std::size_t>> sccs_;
};

}  // namespace

std::size_t CallGraph::edge_count() const noexcept {
  std::size_t edges = 0;
  for (const std::vector<std::size_t>& s : succs) edges += s.size();
  return edges;
}

std::size_t CallGraph::recursive_scc_count() const noexcept {
  std::size_t count = 0;
  for (const std::vector<std::size_t>& scc : sccs) {
    if (scc.size() > 1) {
      ++count;
      continue;
    }
    const std::size_t v = scc.front();
    const std::vector<std::size_t>& s = succs[v];
    count += std::find(s.begin(), s.end(), v) != s.end();
  }
  return count;
}

std::size_t CallGraph::index_of(std::string_view name) const {
  const auto it = by_name.find(std::string(name));
  return it == by_name.end() ? npos : it->second;
}

CallGraph build_call_graph(const std::vector<Cfg>& cfgs,
                           const std::vector<FunctionFacts>& facts) {
  CallGraph graph;
  graph.nodes.resize(cfgs.size());
  graph.succs.resize(cfgs.size());
  graph.preds.resize(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    graph.nodes[i].name = cfgs[i].function;
    graph.by_name.try_emplace(cfgs[i].function, i);
  }

  for (std::size_t i = 0; i < cfgs.size() && i < facts.size(); ++i) {
    for (const std::vector<StatementFacts>& block : facts[i]) {
      for (const StatementFacts& statement : block) {
        for (const std::string& callee : statement.calls) {
          const std::size_t j = graph.index_of(callee);
          if (j == CallGraph::npos) {
            ++graph.unresolved_calls;
            continue;
          }
          ++graph.call_sites;
          std::vector<std::size_t>& out = graph.succs[i];
          if (std::find(out.begin(), out.end(), j) == out.end()) {
            out.push_back(j);
            graph.preds[j].push_back(i);
          }
        }
      }
    }
  }

  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    graph.nodes[i].fan_out = graph.succs[i].size();
    graph.nodes[i].fan_in = graph.preds[i].size();
  }

  graph.sccs = TarjanScc(graph.succs).run();
  for (std::size_t c = 0; c < graph.sccs.size(); ++c) {
    for (std::size_t v : graph.sccs[c]) graph.nodes[v].scc = c;
  }

  PATCHDB_COUNTER_ADD("analysis.interproc.call_edges", graph.edge_count());
  PATCHDB_COUNTER_ADD("analysis.interproc.unresolved_calls",
                      graph.unresolved_calls);
  PATCHDB_COUNTER_ADD("analysis.interproc.sccs", graph.sccs.size());
  return graph;
}

}  // namespace patchdb::analysis
