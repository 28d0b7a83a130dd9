// Tests for the telemetry subsystem: obs::Recorder spans and counter
// series in isolation, then end-to-end through the Runtime — golden series
// names, monotone cumulative gauges, per-node busy-time accounting, the
// metrics JSON schema, and the enriched Chrome trace.
#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "json_util.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"

namespace visrt {
namespace {

// ---------------------------------------------------------------------------
// Recorder unit tests

TEST(Recorder, DisabledByDefault) {
  obs::Recorder r;
  EXPECT_FALSE(r.enabled());
  obs::SpanID id = r.begin_span(obs::SpanKind::Phase, "x", 0, 0);
  EXPECT_EQ(id, obs::kInvalidSpan);
  r.end_span(id, AnalysisCounters{});
  EXPECT_TRUE(r.spans().empty());
  EXPECT_EQ(r.spans_dropped(), 0u);
}

TEST(Recorder, SpanCapDropsButKeepsNestingBalanced) {
  obs::Recorder r;
  r.set_max_spans(1);
  r.enable();
  obs::SpanID a = r.begin_span(obs::SpanKind::Launch, "a", 0, 0);
  obs::SpanID b = r.begin_span(obs::SpanKind::Phase, "b", 0, 0);
  EXPECT_NE(a, obs::kInvalidSpan);
  EXPECT_EQ(b, obs::kInvalidSpan);
  r.end_span(b, AnalysisCounters{});
  AnalysisCounters w;
  w.eqset_visits = 1;
  r.end_span(a, w);
  ASSERT_EQ(r.spans().size(), 1u);
  EXPECT_EQ(r.spans_dropped(), 1u);
  EXPECT_EQ(r.spans()[0].counters.eqset_visits, 1u);
}

// ---------------------------------------------------------------------------
// obs::Scope: one catalog label feeding the spans and the ledger

TEST(Scope, NullRecorderOrSpansOffIsANoOp) {
  AnalysisCounters local;
  {
    obs::Scope s(nullptr, obs::SpanKind::Phase, "test/x", 0, 0, &local);
    local.eqset_visits += 1;
  }
  obs::Recorder r;
  {
    obs::Scope s(&r, obs::SpanKind::Phase, "test/x", 0, 0, &local);
    local.eqset_visits += 1;
  }
  EXPECT_TRUE(r.spans().empty());
}

TEST(Scope, LedgerOffRecordsNoPhase) {
  obs::Recorder r;
  r.enable(); // spans on, profiler off
  { obs::Scope s(&r, obs::SpanKind::Phase, "test/x", 0, 0); }
  EXPECT_EQ(r.spans().size(), 1u);
  EXPECT_FALSE(r.profiler().enabled());
  EXPECT_TRUE(r.profiler().report(0).phases.empty());
  EXPECT_EQ(r.profiler().structure_json(), "{\"phases\":[]}");
}

TEST(Scope, CapturesLocalDeltaAndStepSuffix) {
  obs::Recorder r;
  r.enable();
  AnalysisCounters local;
  local.history_entries = 5; // pre-existing work: excluded from the span
  std::vector<AnalysisStep> steps;
  AnalysisStep pre;
  pre.counters.eqset_visits = 100; // pre-existing step: excluded too
  steps.push_back(pre);
  {
    obs::Scope outer(&r, obs::SpanKind::Materialize, "runtime/materialize", 7,
                     1, &local, &steps);
    local.history_entries += 3;
    {
      obs::Scope inner(&r, obs::SpanKind::Phase, "paint/history_walk", 7, 1,
                       &local);
      local.history_entries += 2;
    }
    AnalysisStep remote;
    remote.owner = 2;
    remote.counters.interval_ops = 4;
    steps.push_back(remote);
  }
  ASSERT_EQ(r.spans().size(), 2u);
  const obs::Span& outer = r.spans()[0];
  const obs::Span& inner = r.spans()[1];
  EXPECT_EQ(outer.kind, obs::SpanKind::Materialize);
  EXPECT_EQ(outer.name, "runtime/materialize");
  EXPECT_EQ(outer.parent, obs::kInvalidSpan);
  EXPECT_EQ(inner.kind, obs::SpanKind::Phase);
  EXPECT_EQ(inner.name, "paint/history_walk");
  EXPECT_EQ(inner.parent, 0u);
  EXPECT_EQ(inner.launch, 7u);
  EXPECT_EQ(inner.node, 1u);
  EXPECT_EQ(inner.counters.history_entries, 2u);
  // Outer sees its own local delta (which includes the nested span's) plus
  // the steps appended inside it, and nothing from before construction.
  EXPECT_EQ(outer.counters.history_entries, 5u);
  EXPECT_EQ(outer.counters.interval_ops, 4u);
  EXPECT_EQ(outer.counters.eqset_visits, 0u);
}

TEST(CounterSeries, BoundedRingKeepsNewestSamplesOldestFirst) {
  obs::CounterSeries s("gauge", 4);
  for (std::uint32_t i = 0; i < 10; ++i)
    s.push(i, static_cast<double>(i));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.total(), 10u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s.at(i).launch, 6 + i);
    EXPECT_EQ(s.at(i).value, static_cast<double>(6 + i));
  }
  obs::SeriesSummary sum = s.summarize();
  EXPECT_EQ(sum.count, 10u); // pushes ever, not just retained
  EXPECT_EQ(sum.min, 6.0);
  EXPECT_EQ(sum.max, 9.0);
  EXPECT_EQ(sum.last, 9.0);
}

TEST(CounterSeries, SummaryPercentiles) {
  obs::CounterSeries s("v", 100);
  for (std::uint32_t i = 1; i <= 21; ++i)
    s.push(i, static_cast<double>(i));
  obs::SeriesSummary sum = s.summarize();
  EXPECT_EQ(sum.p50, 11.0);
  EXPECT_EQ(sum.p95, 20.0);
  EXPECT_EQ(sum.min, 1.0);
  EXPECT_EQ(sum.max, 21.0);
}

// ---------------------------------------------------------------------------
// JSON emission helpers

TEST(MetricsJson, EscapeRoundTripsThroughTheParser) {
  std::string raw = "quote\" slash\\ newline\n tab\t ctl\x01 done";
  std::string doc = "\"" + obs::json_escape(raw) + "\"";
  auto parsed = testjson::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->str(), raw);
}

TEST(MetricsJson, NumberDegradesNanAndInfToZero) {
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "0");
  auto parsed = testjson::parse(obs::json_number(1.5e-7));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->number(), 1.5e-7);
}

TEST(MetricsJson, EmptyEnvelopeIsSchemaValid) {
  std::ostringstream os;
  obs::write_metrics_envelope(os, "micro_bench", {});
  auto doc = testjson::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("schema_version").number(), obs::kMetricsSchemaVersion);
  EXPECT_EQ(doc->at("binary").str(), "micro_bench");
  EXPECT_TRUE(doc->at("runs").array().empty());
}

// ---------------------------------------------------------------------------
// End-to-end through the Runtime

RuntimeConfig telemetry_config(std::uint32_t nodes, bool telemetry = true) {
  RuntimeConfig cfg;
  cfg.algorithm = Algorithm::RayCast;
  cfg.dcr = true;
  cfg.machine.num_nodes = nodes;
  cfg.telemetry = telemetry;
  return cfg;
}

/// A small writer/reader workload: 4 pieces striped over the nodes, with a
/// whole-region reader forcing cross-piece (and cross-node) dependences.
void run_workload(Runtime& rt, std::uint32_t nodes, int iterations) {
  RegionHandle r = rt.create_region(IntervalSet(0, 63), "r");
  std::vector<IntervalSet> pieces;
  for (coord_t i = 0; i < 4; ++i)
    pieces.push_back(IntervalSet(i * 16, i * 16 + 15));
  PartitionHandle part = rt.create_partition(r, std::move(pieces), "quarters");
  FieldID f = rt.add_field(r, "f", 0.0);
  for (int it = 0; it < iterations; ++it) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      rt.launch(TaskLaunch{
          "write",
          {RegionReq{rt.subregion(part, i), f, Privilege::read_write()}},
          [](TaskContext& ctx) {
            ctx.data(0).for_each([](coord_t, double& v) { v += 1.0; });
          },
          static_cast<NodeID>(i % nodes),
          16});
    }
    rt.launch(TaskLaunch{
        "read",
        {RegionReq{r, f, Privilege::read()}},
        [](TaskContext&) {},
        0,
        64});
    rt.end_iteration();
  }
}

TEST(Telemetry, OffByDefaultRecordsNothing) {
  Runtime rt(telemetry_config(2, /*telemetry=*/false));
  run_workload(rt, 2, 2);
  EXPECT_FALSE(rt.recorder().enabled());
  EXPECT_TRUE(rt.recorder().spans().empty());
  EXPECT_EQ(rt.recorder().series_count(), 0u);
}

TEST(Telemetry, GoldenSeriesExistWithOneSamplePerLaunch) {
  Runtime rt(telemetry_config(2));
  run_workload(rt, 2, 3);
  RunStats stats = rt.finish();
  obs::Recorder& rec = rt.recorder();
  ASSERT_TRUE(rec.enabled());

  std::set<std::string> names;
  for (std::size_t i = 0; i < rec.series_count(); ++i)
    names.insert(rec.series(i).name());
  for (const char* want :
       {"live_eqsets", "live_composite_views", "history_entries",
        "messages_total", "analysis_busy_ns/node0",
        "analysis_busy_ns/node1"})
    EXPECT_TRUE(names.count(want)) << "missing series " << want;

  for (std::size_t i = 0; i < rec.series_count(); ++i)
    EXPECT_EQ(rec.series(i).total(), stats.launches)
        << rec.series(i).name() << " should sample once per launch";
}

TEST(Telemetry, CumulativeSeriesAreMonotoneOnTheLaunchClock) {
  Runtime rt(telemetry_config(2));
  run_workload(rt, 2, 3);
  obs::Recorder& rec = rt.recorder();
  for (const char* name : {"messages_total", "analysis_busy_ns/node0",
                           "analysis_busy_ns/node1"}) {
    const obs::CounterSeries& s = rec.series(rec.series_id(name));
    ASSERT_GT(s.size(), 1u) << name;
    for (std::size_t i = 1; i < s.size(); ++i) {
      EXPECT_LT(s.at(i - 1).launch, s.at(i).launch) << name;
      EXPECT_GE(s.at(i).value, s.at(i - 1).value) << name;
    }
  }
}

TEST(Telemetry, SpansNestLaunchMaterializeCommitPhase) {
  Runtime rt(telemetry_config(2));
  run_workload(rt, 2, 2);
  RunStats stats = rt.finish();
  const std::vector<obs::Span>& spans = rt.recorder().spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(rt.recorder().spans_dropped(), 0u);

  std::size_t launches = 0, materializes = 0, commits = 0, phases = 0,
              runtime_phases = 0;
  for (const obs::Span& s : spans) {
    switch (s.kind) {
    case obs::SpanKind::Launch:
      ++launches;
      EXPECT_EQ(s.parent, obs::kInvalidSpan);
      break;
    case obs::SpanKind::Materialize:
    case obs::SpanKind::Commit:
      (s.kind == obs::SpanKind::Materialize ? ++materializes : ++commits);
      EXPECT_EQ(s.name, s.kind == obs::SpanKind::Materialize
                            ? "runtime/materialize"
                            : "runtime/commit");
      ASSERT_NE(s.parent, obs::kInvalidSpan);
      EXPECT_EQ(spans[s.parent].kind, obs::SpanKind::Launch);
      EXPECT_EQ(spans[s.parent].launch, s.launch);
      break;
    case obs::SpanKind::Phase:
      ++phases;
      ASSERT_NE(s.parent, obs::kInvalidSpan);
      if (s.name.starts_with("runtime/")) {
        // The runtime's own phases (copy planning, graph emission,
        // instance updates) may hang directly off the launch.
        ++runtime_phases;
        EXPECT_EQ(spans[s.parent].launch, s.launch);
      } else {
        // An engine phase always runs inside a materialize or commit.
        EXPECT_NE(spans[s.parent].kind, obs::SpanKind::Launch) << s.name;
      }
      break;
    }
  }
  // One Launch span per launch (observe() in finish() does not launch
  // here), one Materialize/Commit pair per region requirement.
  EXPECT_EQ(launches, stats.launches);
  EXPECT_EQ(materializes, stats.launches); // every launch has 1 requirement
  EXPECT_EQ(commits, stats.launches);
  EXPECT_GT(runtime_phases, 0u);
  EXPECT_GT(phases, runtime_phases);
}

TEST(Telemetry, PerNodeBusyTimeSumsToAnalysisCpu) {
  Runtime rt(telemetry_config(2));
  run_workload(rt, 2, 3);
  RunStats stats = rt.finish();
  double sum_ns = 0;
  for (SimTime t : rt.analysis_busy_ns()) sum_ns += static_cast<double>(t);
  EXPECT_GT(sum_ns, 0);
  EXPECT_NEAR(sum_ns, stats.analysis_cpu_s * 1e9, 0.5);
}

TEST(Telemetry, PerNodeAccountingIsIndependentOfTelemetry) {
  // analysis_busy_ns_ is always-on bookkeeping; the recorder only adds
  // spans/series on top.
  Runtime on(telemetry_config(2, true));
  Runtime off(telemetry_config(2, false));
  run_workload(on, 2, 2);
  run_workload(off, 2, 2);
  ASSERT_EQ(on.analysis_busy_ns().size(), off.analysis_busy_ns().size());
  for (std::size_t n = 0; n < on.analysis_busy_ns().size(); ++n)
    EXPECT_EQ(on.analysis_busy_ns()[n], off.analysis_busy_ns()[n]);
}

TEST(Metrics, RunJsonHasGoldenKeysAndConsistentValues) {
  Runtime rt(telemetry_config(2));
  run_workload(rt, 2, 2);
  RunStats stats = rt.finish();

  MetricsRunInfo info;
  info.name = "raycast/dcr/2";
  info.app = "unit";
  info.algorithm = "raycast";
  info.dcr = true;
  info.nodes = 2;
  MetricsFile file("obs_test");
  file.add_run(metrics_run_json(info, rt, stats));
  EXPECT_EQ(file.run_count(), 1u);

  auto doc = testjson::parse(file.json());
  ASSERT_TRUE(doc.has_value()) << "metrics file is not valid JSON";
  EXPECT_EQ(doc->at("schema_version").number(), obs::kMetricsSchemaVersion);
  EXPECT_EQ(doc->at("binary").str(), "obs_test");
  ASSERT_EQ(doc->at("runs").array().size(), 1u);
  const testjson::Value& run = doc->at("runs").array()[0];

  for (const char* key : {"name", "app", "algorithm", "dcr", "nodes",
                          "stats", "per_node", "telemetry", "series",
                          "spans"})
    EXPECT_TRUE(run.has(key)) << "missing run key " << key;
  EXPECT_EQ(run.at("name").str(), "raycast/dcr/2");
  EXPECT_EQ(run.at("dcr").boolean(), true);
  EXPECT_EQ(run.at("nodes").number(), 2.0);
  EXPECT_EQ(run.at("telemetry").boolean(), true);

  const testjson::Value& st = run.at("stats");
  EXPECT_EQ(st.at("launches").number(),
            static_cast<double>(stats.launches));
  EXPECT_EQ(st.at("messages").number(),
            static_cast<double>(stats.messages));
  EXPECT_EQ(st.at("engine").at("live_eqsets").number(),
            static_cast<double>(stats.engine.live_eqsets));

  const auto& busy = run.at("per_node").at("analysis_busy_ns").array();
  ASSERT_EQ(busy.size(), 2u);
  double sum_ns = 0;
  for (const testjson::Value& v : busy) sum_ns += v.number();
  EXPECT_NEAR(sum_ns, stats.analysis_cpu_s * 1e9, 0.5);
  EXPECT_EQ(run.at("per_node").at("messages_sent").array().size(), 2u);

  ASSERT_TRUE(run.at("series").has("messages_total"));
  const testjson::Value& series = run.at("series").at("messages_total");
  for (const char* k : {"count", "min", "max", "p50", "p95", "last"})
    EXPECT_TRUE(series.has(k)) << "missing summary key " << k;
  EXPECT_EQ(series.at("last").number(),
            static_cast<double>(stats.messages));

  const testjson::Value& spans = run.at("spans");
  EXPECT_EQ(spans.at("dropped").number(), 0.0);
  for (const char* k : {"launch/task", "materialize/runtime/materialize",
                        "commit/runtime/commit", "phase/runtime/emit_graph"})
    EXPECT_TRUE(spans.has(k)) << "missing span aggregate " << k;
  EXPECT_GT(spans.at("launch/task").at("count").number(), 0.0);
  EXPECT_TRUE(spans.at("launch/task").at("counters").has("history_entries"));
}

TEST(Metrics, RunJsonIsValidWithTelemetryOff) {
  Runtime rt(telemetry_config(2, /*telemetry=*/false));
  run_workload(rt, 2, 1);
  RunStats stats = rt.finish();
  MetricsRunInfo info;
  info.name = "off";
  auto doc = testjson::parse(metrics_run_json(info, rt, stats));
  ASSERT_TRUE(doc.has_value()) << "telemetry-off run JSON must still parse";
  EXPECT_EQ(doc->at("telemetry").boolean(), false);
  EXPECT_EQ(doc->at("spans").at("dropped").number(), 0.0);
}

TEST(Telemetry, EnrichedTraceHasCounterTracksAndPairedFlows) {
  Runtime rt(telemetry_config(2));
  run_workload(rt, 2, 2);
  rt.finish();
  std::ostringstream os;
  rt.export_chrome_trace(os);
  auto doc = testjson::parse(os.str());
  ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
  ASSERT_TRUE(doc->is_array());

  std::size_t counter_events = 0;
  std::map<double, std::pair<int, int>> flow_ends; // id -> (#s, #f)
  for (const testjson::Value& ev : doc->array()) {
    ASSERT_TRUE(ev.is_object());
    const std::string& ph = ev.at("ph").str();
    if (ph == "C") {
      ++counter_events;
      EXPECT_TRUE(ev.at("args").at("value").is_number());
      EXPECT_GE(ev.at("ts").number(), 0.0);
    } else if (ph == "s") {
      flow_ends[ev.at("id").number()].first++;
      EXPECT_EQ(ev.at("cat").str(), "flow");
    } else if (ph == "f") {
      flow_ends[ev.at("id").number()].second++;
      EXPECT_EQ(ev.at("bp").str(), "e");
    }
  }
  EXPECT_GT(counter_events, 0u) << "expected at least one counter track";
  EXPECT_FALSE(flow_ends.empty()) << "expected at least one flow event";
  for (const auto& [id, ends] : flow_ends) {
    EXPECT_EQ(ends.first, 1) << "flow " << id;
    EXPECT_EQ(ends.second, 1) << "flow " << id;
  }
}

TEST(Telemetry, PlainTraceStaysValidWithTelemetryOff) {
  Runtime rt(telemetry_config(2, /*telemetry=*/false));
  run_workload(rt, 2, 1);
  rt.finish();
  std::ostringstream os;
  rt.export_chrome_trace(os);
  auto doc = testjson::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  bool any_flow_or_counter = false;
  for (const testjson::Value& ev : doc->array()) {
    const std::string& ph = ev.at("ph").str();
    if (ph == "C" || ph == "s" || ph == "f") any_flow_or_counter = true;
  }
  EXPECT_FALSE(any_flow_or_counter);
}

} // namespace
} // namespace visrt
