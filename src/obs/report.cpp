#include "obs/report.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "util/file.h"
#include "util/table.h"

namespace patchdb::obs {

namespace {

Json histogram_to_json(const HistogramSnapshot& h) {
  Json out = Json::object();
  out.set("count", Json(h.count));
  out.set("sum", Json(h.sum));
  if (h.count > 0) {
    out.set("min", Json(h.min));
    out.set("max", Json(h.max));
  }
  Json buckets = Json::array();
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    Json bucket = Json::object();
    if (b < h.bounds.size()) {
      bucket.set("le", Json(h.bounds[b]));
    }  // last bucket: no "le" = +inf
    bucket.set("count", Json(h.buckets[b]));
    buckets.push_back(std::move(bucket));
  }
  out.set("buckets", std::move(buckets));
  return out;
}

HistogramSnapshot histogram_from_json(const std::string& name, const Json& json) {
  HistogramSnapshot h;
  h.name = name;
  h.count = static_cast<std::uint64_t>(json.at("count").as_number());
  h.sum = json.at("sum").as_number();
  if (json.contains("min")) h.min = json.at("min").as_number();
  if (json.contains("max")) h.max = json.at("max").as_number();
  for (const Json& bucket : json.at("buckets").as_array()) {
    if (bucket.contains("le")) h.bounds.push_back(bucket.at("le").as_number());
    h.buckets.push_back(
        static_cast<std::uint64_t>(bucket.at("count").as_number()));
  }
  return h;
}

Json span_to_json(const SpanRecord& s) {
  Json out = Json::object();
  out.set("name", Json(s.name));
  out.set("thread", Json(static_cast<std::uint64_t>(s.thread_index)));
  out.set("id", Json(s.span_id));
  out.set("parent", Json(s.parent_id));
  out.set("depth", Json(static_cast<std::uint64_t>(s.depth)));
  out.set("start_us", Json(static_cast<double>(s.start_us)));
  out.set("wall_us", Json(static_cast<double>(s.wall_us)));
  out.set("cpu_us", Json(static_cast<double>(s.cpu_us)));
  return out;
}

SpanRecord span_from_json(const Json& json) {
  SpanRecord s;
  s.name = json.at("name").as_string();
  s.thread_index = static_cast<std::uint32_t>(json.at("thread").as_number());
  s.span_id = static_cast<std::uint64_t>(json.at("id").as_number());
  s.parent_id = static_cast<std::uint64_t>(json.at("parent").as_number());
  s.depth = static_cast<std::uint32_t>(json.at("depth").as_number());
  s.start_us = static_cast<std::int64_t>(json.at("start_us").as_number());
  s.wall_us = static_cast<std::int64_t>(json.at("wall_us").as_number());
  s.cpu_us = static_cast<std::int64_t>(json.at("cpu_us").as_number());
  return s;
}

Json sample_to_json(const ResourceSample& s) {
  Json out = Json::object();
  out.set("t_us", Json(static_cast<double>(s.t_us)));
  out.set("rss_bytes", Json(s.rss_bytes));
  out.set("peak_rss_bytes", Json(s.peak_rss_bytes));
  out.set("cpu_us", Json(static_cast<double>(s.cpu_us)));
  out.set("pool_threads", Json(static_cast<std::uint64_t>(s.pool_threads)));
  out.set("pool_pending", Json(static_cast<std::uint64_t>(s.pool_pending)));
  out.set("pool_running", Json(static_cast<std::uint64_t>(s.pool_running)));
  out.set("spans_dropped", Json(s.spans_dropped));
  return out;
}

ResourceSample sample_from_json(const Json& json) {
  ResourceSample s;
  s.t_us = static_cast<std::int64_t>(json.at("t_us").as_number());
  s.rss_bytes = static_cast<std::uint64_t>(json.at("rss_bytes").as_number());
  s.peak_rss_bytes =
      static_cast<std::uint64_t>(json.at("peak_rss_bytes").as_number());
  s.cpu_us = static_cast<std::int64_t>(json.at("cpu_us").as_number());
  s.pool_threads = static_cast<std::uint32_t>(json.at("pool_threads").as_number());
  s.pool_pending = static_cast<std::uint32_t>(json.at("pool_pending").as_number());
  s.pool_running = static_cast<std::uint32_t>(json.at("pool_running").as_number());
  s.spans_dropped =
      static_cast<std::uint64_t>(json.at("spans_dropped").as_number());
  return s;
}

}  // namespace

Json RunReport::to_json() const {
  Json out = Json::object();
  out.set("report", Json(name));
  out.set("schema", Json(kReportSchemaV2));
  out.set("wall_ms", Json(wall_ms));
  out.set("spans_dropped", Json(spans_dropped));

  Json counters = Json::object();
  for (const auto& [key, value] : metrics.counters) counters.set(key, Json(value));
  out.set("counters", std::move(counters));

  Json gauges = Json::object();
  for (const auto& [key, value] : metrics.gauges) gauges.set(key, Json(value));
  out.set("gauges", std::move(gauges));

  Json histograms = Json::object();
  for (const HistogramSnapshot& h : metrics.histograms) {
    histograms.set(h.name, histogram_to_json(h));
  }
  out.set("histograms", std::move(histograms));

  Json span_array = Json::array();
  for (const SpanRecord& s : spans) span_array.push_back(span_to_json(s));
  out.set("spans", std::move(span_array));

  // Optional block, omitted when empty so samplerless runs stay small.
  if (!resource_timeline.empty()) {
    Json timeline = Json::array();
    for (const ResourceSample& s : resource_timeline) {
      timeline.push_back(sample_to_json(s));
    }
    out.set("resource_timeline", std::move(timeline));
  }
  return out;
}

RunReport RunReport::from_json(const Json& json) {
  RunReport report;
  report.name = json.at("report").as_string();
  const std::string& schema = json.at("schema").as_string();
  if (schema != kReportSchemaV2) {
    throw JsonError("obs: unsupported report schema \"" + schema +
                    "\" (expected " + std::string(kReportSchemaV2) + ")");
  }
  report.wall_ms = json.at("wall_ms").as_number();
  report.spans_dropped =
      static_cast<std::uint64_t>(json.at("spans_dropped").as_number());
  for (const auto& [key, value] : json.at("counters").as_object()) {
    report.metrics.counters.emplace(
        key, static_cast<std::uint64_t>(value.as_number()));
  }
  for (const auto& [key, value] : json.at("gauges").as_object()) {
    report.metrics.gauges.emplace(key, value.as_number());
  }
  for (const auto& [key, value] : json.at("histograms").as_object()) {
    report.metrics.histograms.push_back(histogram_from_json(key, value));
  }
  for (const Json& span : json.at("spans").as_array()) {
    report.spans.push_back(span_from_json(span));
  }
  if (json.contains("resource_timeline")) {
    for (const Json& sample : json.at("resource_timeline").as_array()) {
      report.resource_timeline.push_back(sample_from_json(sample));
    }
  }
  return report;
}

std::string RunReport::render() const {
  std::string out;

  if (!metrics.counters.empty() || !metrics.gauges.empty()) {
    util::Table table("metrics — " + name);
    table.set_header({"Metric", "Kind", "Value"});
    for (const auto& [key, value] : metrics.counters) {
      table.add_row({key, "counter", std::to_string(value)});
    }
    if (!metrics.counters.empty() && !metrics.gauges.empty()) {
      table.add_separator();
    }
    for (const auto& [key, value] : metrics.gauges) {
      table.add_row({key, "gauge", util::format_double(value, 4)});
    }
    out += table.render();
  }

  if (!metrics.histograms.empty()) {
    util::Table table("histograms — " + name);
    table.set_header({"Histogram", "Count", "Mean", "p50", "p95", "Max"});
    for (const HistogramSnapshot& h : metrics.histograms) {
      table.add_row({h.name, std::to_string(h.count),
                     util::format_double(h.mean(), 3),
                     util::format_double(h.quantile(0.5), 3),
                     util::format_double(h.quantile(0.95), 3),
                     util::format_double(h.count > 0 ? h.max : 0.0, 3)});
    }
    out += table.render();
  }

  if (!spans.empty()) {
    // Aggregate by name: the span list itself can run long; the table
    // reports totals with nesting shown via the minimum recorded depth.
    struct Agg {
      std::size_t calls = 0;
      std::int64_t wall_us = 0;
      std::int64_t cpu_us = 0;
      std::uint32_t min_depth = 0xFFFFFFFF;
    };
    std::map<std::string, Agg> by_name;
    for (const SpanRecord& s : spans) {
      Agg& agg = by_name[s.name];
      ++agg.calls;
      agg.wall_us += s.wall_us;
      agg.cpu_us += s.cpu_us;
      agg.min_depth = std::min(agg.min_depth, s.depth);
    }
    std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.wall_us > b.second.wall_us;
    });
    util::Table table("spans — " + name);
    table.set_header({"Span", "Calls", "Wall ms", "CPU ms", "Depth"});
    for (const auto& [span_name, agg] : rows) {
      table.add_row({span_name, std::to_string(agg.calls),
                     util::format_double(static_cast<double>(agg.wall_us) / 1000.0, 2),
                     util::format_double(static_cast<double>(agg.cpu_us) / 1000.0, 2),
                     std::to_string(agg.min_depth)});
    }
    if (spans_dropped > 0) {
      table.add_note(std::to_string(spans_dropped) +
                     " spans dropped to ring overflow");
    }
    out += table.render();
  }

  if (!resource_timeline.empty()) {
    const ResourceSample& last = resource_timeline.back();
    std::uint64_t max_rss = 0;
    std::uint32_t max_pending = 0;
    for (const ResourceSample& s : resource_timeline) {
      max_rss = std::max(max_rss, s.rss_bytes);
      max_pending = std::max(max_pending, s.pool_pending);
    }
    const auto mb = [](std::uint64_t bytes) {
      return util::format_double(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
    };
    util::Table table("resource timeline — " + name);
    table.set_header({"Signal", "Value"});
    table.add_row({"samples", std::to_string(resource_timeline.size())});
    table.add_row({"rss max (MB)", mb(max_rss)});
    table.add_row({"rss peak / VmHWM (MB)", mb(last.peak_rss_bytes)});
    table.add_row({"process cpu (ms)",
                   util::format_double(static_cast<double>(last.cpu_us) / 1000.0, 1)});
    table.add_row({"pool pending max", std::to_string(max_pending)});
    out += table.render();
  }

  out += "wall: " + util::format_double(wall_ms, 1) + " ms\n";
  return out;
}

void write_report_file(const RunReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("obs: cannot open " + path + " for writing");
  out << report.to_json().dump(2) << '\n';
  if (!out) throw std::runtime_error("obs: failed writing " + path);
}

RunReport read_report_file(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) throw std::runtime_error("obs: cannot read " + path);
  return RunReport::from_json(Json::parse(*text));
}

}  // namespace patchdb::obs
