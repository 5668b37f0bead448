// RunReport: one machine-readable snapshot of a pipeline run — the
// aggregated metrics registry, the completed trace spans, the optional
// resource timeline, and run metadata — serializable to JSON
// (round-trip tested) and renderable as human tables through
// util/table.h. Bench binaries write one per run via --metrics-out;
// those artifacts are the repo's perf trajectory.
//
// Schema: `patchdb.obs.v2`, with an optional `resource_timeline` block.
// It is the only schema a report is read or written under.
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace patchdb::obs {

inline constexpr std::string_view kReportSchemaV2 = "patchdb.obs.v2";

struct RunReport {
  /// Run identity ("table2_augmentation", "patchdb metrics", ...).
  std::string name;
  /// Wall time covered by the report, in milliseconds.
  double wall_ms = 0.0;
  /// Spans dropped to ring overflow (0 in healthy runs).
  std::uint64_t spans_dropped = 0;

  MetricsSnapshot metrics;
  std::vector<SpanRecord> spans;
  /// Periodic RSS/CPU/pool samples (empty when no sampler ran).
  /// t_us shares the spans' timebase (the tracer epoch).
  std::vector<ResourceSample> resource_timeline;

  Json to_json() const;
  static RunReport from_json(const Json& json);

  /// Human rendering: counters/gauges, histogram quantiles, and a span
  /// tree summary, as util::Table grids.
  std::string render() const;
};

/// Serialize and write `report` to `path` (pretty-printed). Throws
/// std::runtime_error on I/O failure.
void write_report_file(const RunReport& report, const std::string& path);

/// Read + parse a report file; throws JsonError / std::runtime_error on
/// malformed content. Used by `patchdb metrics --validate` and the
/// bench-smoke CI check.
RunReport read_report_file(const std::string& path);

}  // namespace patchdb::obs
