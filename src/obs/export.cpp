#include "obs/export.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>

namespace patchdb::obs {

namespace {

// One synthetic pid for the whole report; the trace format requires the
// field but this process model has exactly one process.
constexpr std::uint64_t kPid = 1;

Json metadata_event(std::uint64_t tid, std::string_view kind,
                    std::string name) {
  Json args = Json::object();
  args.set("name", Json(std::move(name)));
  Json event = Json::object();
  event.set("ph", Json("M"));
  event.set("pid", Json(kPid));
  event.set("tid", Json(tid));
  event.set("name", Json(kind));
  event.set("args", std::move(args));
  return event;
}

Json span_event(const SpanRecord& span) {
  Json args = Json::object();
  args.set("cpu_us", Json(static_cast<double>(span.cpu_us)));
  args.set("span_id", Json(span.span_id));
  args.set("parent_id", Json(span.parent_id));
  args.set("depth", Json(static_cast<std::uint64_t>(span.depth)));
  Json event = Json::object();
  event.set("ph", Json("X"));
  event.set("pid", Json(kPid));
  event.set("tid", Json(static_cast<std::uint64_t>(span.thread_index)));
  event.set("name", Json(span.name));
  event.set("ts", Json(static_cast<double>(span.start_us)));
  event.set("dur", Json(static_cast<double>(span.wall_us)));
  event.set("args", std::move(args));
  return event;
}

Json counter_event(std::string_view track, std::int64_t ts,
                   std::string_view series, double value) {
  Json args = Json::object();
  args.set(std::string(series), Json(value));
  Json event = Json::object();
  event.set("ph", Json("C"));
  event.set("pid", Json(kPid));
  event.set("tid", Json(std::uint64_t{0}));
  event.set("name", Json(track));
  event.set("ts", Json(static_cast<double>(ts)));
  event.set("args", std::move(args));
  return event;
}

}  // namespace

Json trace_events_json(const RunReport& report) {
  Json events = Json::array();

  events.push_back(metadata_event(0, "process_name", "patchdb: " + report.name));

  // Name every thread track that actually recorded spans. Thread index
  // 0 is whichever thread touched the tracer first — in every pipeline
  // entry point that is the main thread opening the top-level span.
  std::set<std::uint32_t> threads;
  for (const SpanRecord& span : report.spans) threads.insert(span.thread_index);
  for (const std::uint32_t tid : threads) {
    events.push_back(metadata_event(
        tid, "thread_name",
        tid == 0 ? "main" : "worker " + std::to_string(tid)));
  }

  for (const SpanRecord& span : report.spans) events.push_back(span_event(span));

  // Counter tracks from the resource timeline. The process-CPU sample
  // is cumulative, so it is emitted as a utilization rate between
  // consecutive samples (1.0 = one saturated core) instead of an
  // ever-growing line.
  for (std::size_t i = 0; i < report.resource_timeline.size(); ++i) {
    const ResourceSample& s = report.resource_timeline[i];
    events.push_back(counter_event(
        "rss_mb", s.t_us, "rss",
        static_cast<double>(s.rss_bytes) / (1024.0 * 1024.0)));
    events.push_back(counter_event(
        "peak_rss_mb", s.t_us, "peak",
        static_cast<double>(s.peak_rss_bytes) / (1024.0 * 1024.0)));
    events.push_back(counter_event(
        "pool_backlog", s.t_us, "pending", static_cast<double>(s.pool_pending)));
    events.push_back(counter_event("spans_dropped", s.t_us, "dropped",
                                   static_cast<double>(s.spans_dropped)));
    if (i > 0) {
      const ResourceSample& prev = report.resource_timeline[i - 1];
      const std::int64_t dt = s.t_us - prev.t_us;
      if (dt > 0) {
        const double rate =
            static_cast<double>(s.cpu_us - prev.cpu_us) / static_cast<double>(dt);
        events.push_back(counter_event("cpu_cores", s.t_us, "busy",
                                       std::max(rate, 0.0)));
      }
    }
  }

  Json other = Json::object();
  other.set("report", Json(report.name));
  other.set("schema", Json(kReportSchemaV2));
  other.set("wall_ms", Json(report.wall_ms));
  other.set("spans_dropped", Json(report.spans_dropped));

  Json out = Json::object();
  out.set("displayTimeUnit", Json("ms"));
  out.set("otherData", std::move(other));
  out.set("traceEvents", std::move(events));
  return out;
}

void write_trace_file(const RunReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("obs: cannot open " + path + " for writing");
  out << trace_events_json(report).dump(1) << '\n';
  if (!out) throw std::runtime_error("obs: failed writing " + path);
}

}  // namespace patchdb::obs
