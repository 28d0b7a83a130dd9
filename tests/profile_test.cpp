// The analysis profiler (obs/profile.h): phase attribution and the
// structure/timing split of its report.  Structure fields (phase labels,
// event counts) are a function of the program; timing fields
// (nanoseconds, coverage) are host state and excluded from any golden.
// With -DVISRT_PROFILE=OFF the whole layer compiles to stubs; these tests
// then skip cleanly.
#include <gtest/gtest.h>

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

  explicit ProfiledCircuit(bool profile = true) {
    constexpr std::uint32_t nodes = 16;
    RuntimeConfig cfg;
    cfg.algorithm = Algorithm::RayCast;
    cfg.dcr = true;
    cfg.track_values = false;
    cfg.profile = profile;
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

TEST(Profiler, ScopedPhaseIsNullSafe) {
  obs::ScopedPhase null_phase(nullptr, "nothing");
  obs::Profiler off; // never enabled
  obs::ScopedPhase disabled_phase(&off, "nothing");
  EXPECT_EQ(off.report(0).phases.size(), 0u);
}

TEST(Profiler, PhasesCoverTheAnalysisWall) {
  if (!obs::kProfileEnabled) GTEST_SKIP() << "VISRT_PROFILE=OFF";
  ProfiledCircuit run;
  ASSERT_GT(run.stats.analysis_wall_s, 0.0);
  ASSERT_FALSE(run.report.phases.empty());
  // The named phases must explain at least 90% of the measured wall; the
  // materialize/commit self-time attribution is what closes the gap.
  EXPECT_GE(run.report.coverage, 0.9);
  // The runtime's emission loops, its realm work and the engine's visit
  // are all present.
  bool has_emit = false, has_apply = false, has_visit = false,
       has_other = false;
  for (const obs::PhaseTotal& p : run.report.phases) {
    if (p.label == "runtime/emit_graph") has_emit = p.events > 0;
    if (p.label == "runtime/apply_instances") has_apply = p.events > 0;
    if (p.label == "raycast/set_visit") has_visit = p.events > 0;
    if (p.label == "runtime/materialize_other") has_other = true;
  }
  EXPECT_TRUE(has_emit);
  EXPECT_TRUE(has_apply);
  EXPECT_TRUE(has_visit);
  EXPECT_TRUE(has_other);
}

TEST(Profiler, TimingJsonCarriesTheAttributionFields) {
  if (!obs::kProfileEnabled) GTEST_SKIP() << "VISRT_PROFILE=OFF";
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

TEST(Profiler, CompiledOutBuildReportsDisabled) {
  if (obs::kProfileEnabled) GTEST_SKIP() << "VISRT_PROFILE=ON build";
  // The stub layer: everything is inert and the JSON says so.
  ProfiledCircuit run;
  EXPECT_FALSE(run.rt->profiler().enabled());
  EXPECT_TRUE(run.report.phases.empty());
  EXPECT_NE(run.rt->profile_json().find("\"enabled\":false"),
            std::string::npos);
}

} // namespace
} // namespace visrt
