#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/log.h"
#include "runtime/runtime.h"

namespace visrt::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\r': out += "\\r"; break;
    case '\t': out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  // %g may produce "1e+05"-style exponents, which are valid JSON; the only
  // invalid outputs are nan/inf, excluded above.
  return buf;
}

void write_metrics_envelope(std::ostream& os, std::string_view binary,
                            std::span<const std::string> runs) {
  os << "{\"schema_version\":" << kMetricsSchemaVersion << ",\"binary\":\""
     << json_escape(binary) << "\",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n" << runs[i];
  }
  os << "\n]}\n";
}

bool write_metrics_file(const std::string& path, std::string_view binary,
                        std::span<const std::string> runs) {
  std::ofstream out(path);
  if (!out) {
    Logger(LogLevel::Warning, "obs")
        << "cannot open metrics file for writing: " << path;
    return false;
  }
  write_metrics_envelope(out, binary, runs);
  return out.good();
}

} // namespace visrt::obs

namespace visrt {

namespace {

using obs::json_escape;
using obs::json_number;

void append_series_summary(std::ostream& os, const obs::CounterSeries& cs) {
  obs::SeriesSummary s = cs.summarize();
  os << "{\"count\":" << s.count << ",\"min\":" << json_number(s.min)
     << ",\"max\":" << json_number(s.max) << ",\"p50\":" << json_number(s.p50)
     << ",\"p95\":" << json_number(s.p95)
     << ",\"last\":" << json_number(s.last) << "}";
}

} // namespace

std::string metrics_run_json(const MetricsRunInfo& info, const Runtime& rt,
                             const RunStats& stats) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(info.name) << "\",\"app\":\""
     << json_escape(info.app) << "\",\"algorithm\":\""
     << json_escape(info.algorithm) << "\",\"dcr\":"
     << (info.dcr ? "true" : "false") << ",\"nodes\":" << info.nodes;

  os << ",\"stats\":{"
     << "\"init_time_s\":" << json_number(stats.init_time_s)
     << ",\"total_time_s\":" << json_number(stats.total_time_s)
     << ",\"steady_iter_s\":" << json_number(stats.steady_iter_s)
     << ",\"iterations\":" << stats.iterations
     << ",\"launches\":" << stats.launches
     << ",\"dep_edges\":" << stats.dep_edges
     << ",\"critical_path\":" << stats.critical_path
     << ",\"messages\":" << stats.messages
     << ",\"message_bytes\":" << stats.message_bytes
     << ",\"analysis_cpu_s\":" << json_number(stats.analysis_cpu_s)
     << ",\"analysis_wall_s\":" << json_number(stats.analysis_wall_s)
     << ",\"engine\":{"
     << "\"live_eqsets\":" << stats.engine.live_eqsets
     << ",\"total_eqsets_created\":" << stats.engine.total_eqsets_created
     << ",\"live_composite_views\":" << stats.engine.live_composite_views
     << ",\"total_composite_views\":" << stats.engine.total_composite_views
     << ",\"history_entries\":" << stats.engine.history_entries << "}}";

  os << ",\"per_node\":{\"analysis_busy_ns\":[";
  std::span<const SimTime> busy = rt.analysis_busy_ns();
  for (std::size_t n = 0; n < busy.size(); ++n) {
    if (n != 0) os << ",";
    os << busy[n];
  }
  os << "],\"messages_sent\":[";
  std::vector<std::uint64_t> msgs = rt.messages_by_node();
  for (std::size_t n = 0; n < msgs.size(); ++n) {
    if (n != 0) os << ",";
    os << msgs[n];
  }
  os << "]}";

  const obs::Recorder& rec = rt.recorder();
  os << ",\"telemetry\":" << (rec.enabled() ? "true" : "false");
  os << ",\"series\":{";
  for (std::size_t sid = 0; sid < rec.series_count(); ++sid) {
    if (sid != 0) os << ",";
    os << "\"" << json_escape(rec.series(sid).name()) << "\":";
    append_series_summary(os, rec.series(sid));
  }
  os << "}";

  // Span aggregates: per (kind, name), span count and summed counters.
  std::map<std::string, std::pair<std::uint64_t, AnalysisCounters>> agg;
  for (const obs::Span& span : rec.spans()) {
    std::string key =
        std::string(obs::span_kind_name(span.kind)) + "/" +
        (span.kind == obs::SpanKind::Launch ? "task" : span.name);
    auto& slot = agg[key];
    ++slot.first;
    slot.second += span.counters;
  }
  os << ",\"spans\":{\"dropped\":" << rec.spans_dropped();
  for (const auto& [key, slot] : agg) {
    os << ",\"" << json_escape(key) << "\":{\"count\":" << slot.first
       << ",\"counters\":{";
    bool cfirst = true;
    for_each_counter(slot.second,
                     [&](const char* name, std::uint64_t value) {
                       if (!cfirst) os << ",";
                       cfirst = false;
                       os << "\"" << name << "\":" << value;
                     });
    os << "}}";
  }
  os << "}";

  // Schema v2: the provenance layer.  Empty-but-present objects when the
  // run had provenance off, so consumers can rely on the keys.
  os << ",\"provenance\":{\"enabled\":"
     << (rt.config().provenance ? "true" : "false")
     << ",\"edges_annotated\":" << rt.dep_graph().provenance_count() << "}";
  os << ",\"lifecycle\":" << rt.lifecycle().json();
  os << ",\"messages\":" << rt.message_ledger().json();

  os << "}";
  return os.str();
}

std::string MetricsFile::json() const {
  std::ostringstream os;
  obs::write_metrics_envelope(os, binary_, runs_);
  return os.str();
}

bool MetricsFile::write(const std::string& path) const {
  if (path.empty()) return true;
  return obs::write_metrics_file(path, binary_, runs_);
}

} // namespace visrt
