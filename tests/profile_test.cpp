// The analysis profiler (obs/profile.h): self-time attribution through
// obs::Scope, one label catalog shared with the spans, and the
// structure/timing split of its report.  Structure fields (phase labels,
// event counts) are a function of the program; timing fields
// (nanoseconds, coverage) are host state and excluded from any golden.
#include <gtest/gtest.h>

#include <map>

#include "apps/circuit.h"
#include "obs/profile.h"
#include "runtime/runtime.h"

namespace visrt {
namespace {

/// One fig13-shaped (but small) circuit run with the profiler on.
struct ProfiledCircuit {
  std::unique_ptr<Runtime> rt;
  RunStats stats;
  obs::ProfileReport report;
  std::string structure;

  explicit ProfiledCircuit(bool profile = true,
                           Algorithm algorithm = Algorithm::RayCast,
                           bool telemetry = false) {
    constexpr std::uint32_t nodes = 16;
    RuntimeConfig cfg;
    cfg.algorithm = algorithm;
    cfg.dcr = true;
    cfg.track_values = false;
    cfg.profile = profile;
    cfg.telemetry = telemetry;
    cfg.machine.num_nodes = nodes;
    rt = std::make_unique<Runtime>(cfg);
    apps::CircuitConfig acfg;
    acfg.pieces = nodes;
    acfg.nodes_per_piece = 40;
    acfg.wires_per_piece = 60;
    acfg.iterations = 3;
    apps::CircuitApp app(*rt, acfg);
    app.run();
    stats = rt->finish();
    report = rt->profiler().report(
        static_cast<std::uint64_t>(stats.analysis_wall_s * 1e9));
    structure = rt->profiler().structure_json();
  }
};

void busy_wait_ns(std::uint64_t ns) {
  const std::uint64_t until = obs::prof_now_ns() + ns;
  while (obs::prof_now_ns() < until) {
  }
}

TEST(Profiler, PhasesCoverTheAnalysisWall) {
  ProfiledCircuit run;
  ASSERT_GT(run.stats.analysis_wall_s, 0.0);
  ASSERT_FALSE(run.report.phases.empty());
  // The named phases must explain at least 90% of the measured wall; the
  // materialize/commit self-time attribution is what closes the gap.
  EXPECT_GE(run.report.coverage, 0.9);
  // The runtime's emission loops, its realm work and the engine's visit
  // are all present.
  bool has_emit = false, has_apply = false, has_visit = false,
       has_materialize = false;
  for (const obs::PhaseTotal& p : run.report.phases) {
    if (p.label == "runtime/emit_graph") has_emit = p.events > 0;
    if (p.label == "runtime/apply_instances") has_apply = p.events > 0;
    if (p.label == "raycast/set_visit") has_visit = p.events > 0;
    if (p.label == "runtime/materialize") has_materialize = true;
  }
  EXPECT_TRUE(has_emit);
  EXPECT_TRUE(has_apply);
  EXPECT_TRUE(has_visit);
  EXPECT_TRUE(has_materialize);
}

TEST(Profiler, TimingJsonCarriesTheAttributionFields) {
  ProfiledCircuit run;
  const std::string json = run.rt->profile_json();
  for (const char* key :
       {"\"schema_version\":1", "\"structure\"", "\"timing\"",
        "\"coverage\"", "\"unattributed_ns\"", "\"wall_ns\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Profiler, DisabledProfilerRecordsNothing) {
  ProfiledCircuit run(/*profile=*/false);
  EXPECT_FALSE(run.rt->profiler().enabled());
  EXPECT_TRUE(run.report.phases.empty());
  EXPECT_EQ(run.structure, "{\"phases\":[]}");
}

TEST(Profiler, StructureIsAFunctionOfTheProgram) {
  ProfiledCircuit first;
  ProfiledCircuit second;
  EXPECT_NE(first.structure, "{\"phases\":[]}");
  EXPECT_EQ(first.structure, second.structure);
}

TEST(Profiler, SelfTimeNeverDoubleCountsNestedScopes) {
  constexpr std::uint64_t kWaitNs = 2'000'000;
  obs::Recorder r;
  r.profiler().enable();
  const std::uint64_t begin = obs::prof_now_ns();
  {
    obs::Scope outer(&r, obs::SpanKind::Phase, "test/outer", 0, 0);
    busy_wait_ns(kWaitNs);
    {
      obs::Scope inner(&r, obs::SpanKind::Phase, "test/inner", 0, 0);
      busy_wait_ns(kWaitNs);
    }
  }
  const std::uint64_t wall = obs::prof_now_ns() - begin;
  const obs::ProfileReport report = r.profiler().report(wall);
  ASSERT_EQ(report.phases.size(), 2u);
  std::uint64_t sum = 0;
  for (const obs::PhaseTotal& p : report.phases) {
    EXPECT_EQ(p.events, 1u) << p.label;
    EXPECT_GE(p.wall_ns, kWaitNs) << p.label;
    sum += p.wall_ns;
  }
  // Summing walls would count the inner wait twice and exceed the wall.
  EXPECT_LE(sum, wall);
  EXPECT_LE(report.coverage, 1.0);
  // The same holds for a whole run: the runtime's and the engine's scopes
  // nest, and the ledger stays inside the analysis wall.
  ProfiledCircuit run;
  EXPECT_LE(run.report.coverage, 1.0);
}

// One vocabulary: with both sinks on, every scope is one span and one
// ledger event under the same label.  The Launch span (task name) is the
// only span outside the ledger.
TEST(Profiler, SpansAndLedgerShareOneCatalog) {
  for (Algorithm algorithm :
       {Algorithm::Paint, Algorithm::Warnock, Algorithm::RayCast,
        Algorithm::NaivePaint, Algorithm::NaiveWarnock,
        Algorithm::NaiveRayCast, Algorithm::Reference}) {
    SCOPED_TRACE(algorithm_name(algorithm));
    ProfiledCircuit run(/*profile=*/true, algorithm, /*telemetry=*/true);
    ASSERT_EQ(run.rt->recorder().spans_dropped(), 0u);
    std::map<std::string, std::uint64_t> spans;
    for (const obs::Span& s : run.rt->recorder().spans())
      if (s.kind != obs::SpanKind::Launch) ++spans[s.name];
    std::map<std::string, std::uint64_t> ledger;
    for (const obs::PhaseTotal& p : run.report.phases)
      ledger[p.label] = p.events;
    EXPECT_EQ(spans, ledger);
    const std::string engine = algorithm_name(algorithm);
    const std::string prefix =
        engine.starts_with("naive-") ? "naive/" : engine + "/";
    bool engine_label = false;
    for (const auto& [label, events] : ledger) {
      EXPECT_TRUE(label.starts_with("runtime/") || label.starts_with(prefix))
          << label;
      engine_label = engine_label || label.starts_with(prefix);
    }
    EXPECT_TRUE(engine_label);
  }
}

} // namespace
} // namespace visrt
