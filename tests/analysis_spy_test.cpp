// The spy verifier: soundness and precision checks against ground truth
// recomputed from geometry and privileges — planted violations in
// hand-built graphs, live Runtime runs, and the injected paint bug caught
// with no reference engine in sight, in batch and in a stream.
#include "analysis/spy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "fuzz/oracle.h"
#include "fuzz/serialize.h"
#include "runtime/runtime.h"
#include "serve/session.h"

namespace visrt::analysis {
namespace {

/// A forest with one root over [0, 19] and a disjoint halves partition.
struct Fixture {
  RegionTreeForest forest;
  RegionHandle root;
  RegionHandle half0, half1;

  Fixture() {
    root = forest.create_root(IntervalSet(0, 19), "r");
    PartitionHandle halves = forest.create_partition(
        root, {IntervalSet(0, 9), IntervalSet(10, 19)}, "halves");
    half0 = forest.subregion(halves, 0);
    half1 = forest.subregion(halves, 1);
  }

  LaunchRecord rec(RegionHandle region, Privilege privilege) const {
    return LaunchRecord{{Requirement{region, 0, privilege}}, 0};
  }
};

DepGraph graph_with_edges(
    std::size_t tasks,
    const std::vector<std::pair<LaunchID, LaunchID>>& edges) {
  DepGraph deps;
  for (std::size_t id = 0; id < tasks; ++id) {
    const LaunchID to = static_cast<LaunchID>(id);
    deps.add_task(to);
    std::vector<LaunchID> froms;
    for (const auto& [from, dst] : edges)
      if (dst == to) froms.push_back(from);
    deps.add_edges(to, froms);
  }
  return deps;
}

TEST(SpyVerify, OrderedInterferingPairIsSoundAndPrecise) {
  Fixture fx;
  std::vector<LaunchRecord> launches{
      fx.rec(fx.root, Privilege::read_write()),
      fx.rec(fx.half0, Privilege::read()),
  };
  DepGraph deps = graph_with_edges(2, {{0, 1}});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.launches, 2u);
  EXPECT_EQ(report.interfering_pairs, 1u);
  EXPECT_EQ(report.transitive_edges, 0u);
}

TEST(SpyVerify, DetectsMissingEdgeAsUnorderedInterference) {
  Fixture fx;
  std::vector<LaunchRecord> launches{
      fx.rec(fx.root, Privilege::read_write()),
      fx.rec(fx.half0, Privilege::read()),
  };
  DepGraph deps = graph_with_edges(2, {});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_FALSE(report.sound());
  EXPECT_EQ(report.unordered_pairs, 1u);
  ASSERT_FALSE(report.violations.empty());
  const SpyViolation& v = report.violations.front();
  EXPECT_EQ(v.kind, SpyViolationKind::UnorderedInterference);
  EXPECT_EQ(v.earlier, 0u);
  EXPECT_EQ(v.later, 1u);
  // The witness names the privileges and regions involved.
  EXPECT_NE(v.detail.find("read-write"), std::string::npos) << v.detail;
  EXPECT_NE(v.detail.find("r"), std::string::npos) << v.detail;
}

TEST(SpyVerify, TransitiveOrderIsSound) {
  // 0 -> 1 -> 2 with all three mutually interfering: the 0/2 pair has no
  // direct edge but is transitively ordered — sound.
  Fixture fx;
  std::vector<LaunchRecord> launches{
      fx.rec(fx.root, Privilege::read_write()),
      fx.rec(fx.root, Privilege::read_write()),
      fx.rec(fx.root, Privilege::read_write()),
  };
  DepGraph deps = graph_with_edges(3, {{0, 1}, {1, 2}});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.interfering_pairs, 3u);
}

TEST(SpyVerify, FlagsEdgeBetweenNonInterferingLaunches) {
  // Two reads never interfere; a direct edge between them is imprecise.
  Fixture fx;
  std::vector<LaunchRecord> launches{
      fx.rec(fx.half0, Privilege::read()),
      fx.rec(fx.half1, Privilege::read()),
  };
  DepGraph deps = graph_with_edges(2, {{0, 1}});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_TRUE(report.sound());
  EXPECT_FALSE(report.precise());
  EXPECT_EQ(report.imprecise_edges, 1u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().kind, SpyViolationKind::ImpreciseEdge);
  EXPECT_NE(report.summary().find("imprecise"), std::string::npos);
}

TEST(SpyVerify, CountsTransitivelyImpliedEdgesAsInformational) {
  // The direct 0 -> 2 edge joins an interfering pair, but the 0 -> 1 -> 2
  // path already implies it: counted, not a violation.
  Fixture fx;
  std::vector<LaunchRecord> launches{
      fx.rec(fx.root, Privilege::read_write()),
      fx.rec(fx.root, Privilege::read_write()),
      fx.rec(fx.root, Privilege::read_write()),
  };
  DepGraph deps = graph_with_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.transitive_edges, 1u);
}

TEST(SpyVerify, SameOperatorReductionsCommute) {
  Fixture fx;
  std::vector<LaunchRecord> launches{
      fx.rec(fx.root, Privilege::reduce(0)),
      fx.rec(fx.root, Privilege::reduce(0)),
      fx.rec(fx.root, Privilege::reduce(1)),
  };
  // Same-operator folds commute (no order needed); the different-operator
  // pair interferes and must be ordered.
  DepGraph deps = graph_with_edges(3, {{0, 2}, {1, 2}});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.interfering_pairs, 2u);
}

TEST(SpyVerify, LaunchLogMustCoverTheGraph) {
  Fixture fx;
  std::vector<LaunchRecord> launches{fx.rec(fx.root, Privilege::read()),
                                     fx.rec(fx.root, Privilege::read())};
  DepGraph deps = graph_with_edges(1, {});
  EXPECT_THROW(verify(fx.forest, deps, launches), ApiError);
}

TEST(SpyVerify, ShorterLogVerifiesTheTrailingWindow) {
  Fixture fx;
  // Records for launches 1 and 2 of a three-task graph: the spy verifies
  // the window [1, 3).  The interfering pair (1, 2) must still be caught;
  // edges reaching below the window (0 -> 1) are skipped, and pairs
  // involving the retired launch 0 are out of scope.
  std::vector<LaunchRecord> launches{
      fx.rec(fx.root, Privilege::read_write()),
      fx.rec(fx.half0, Privilege::read()),
  };
  DepGraph deps = graph_with_edges(3, {{0, 1}, {1, 2}});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.launches, 2u);
  EXPECT_EQ(report.interfering_pairs, 1u);

  DepGraph unordered = graph_with_edges(3, {{0, 1}});
  SpyReport bad = verify(fx.forest, unordered, launches);
  EXPECT_EQ(bad.unordered_pairs, 1u);
  ASSERT_FALSE(bad.violations.empty());
  EXPECT_EQ(bad.violations[0].earlier, 1u); // global launch ids
  EXPECT_EQ(bad.violations[0].later, 2u);
}

TEST(SpyVerify, ViolationRecordsAreCappedButCountsStayExact) {
  Fixture fx;
  std::vector<LaunchRecord> launches;
  for (int i = 0; i < 20; ++i)
    launches.push_back(fx.rec(fx.root, Privilege::read_write()));
  DepGraph deps = graph_with_edges(20, {});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_EQ(report.unordered_pairs, 190u); // 20 choose 2
  EXPECT_EQ(report.violations.size(), kMaxViolationRecords);
}

TEST(SpyVerify, RecordsArePerKindInReportOrder) {
  // Two reads of disjoint halves joined by an edge (imprecise), then 20
  // unordered writers of the root: 190 + 40 unordered pairs fill the
  // unordered records, and the imprecise edge, found first, still gets
  // its own record after them.
  Fixture fx;
  std::vector<LaunchRecord> launches{fx.rec(fx.half0, Privilege::read()),
                                     fx.rec(fx.half1, Privilege::read())};
  for (int i = 0; i < 20; ++i)
    launches.push_back(fx.rec(fx.root, Privilege::read_write()));
  DepGraph deps = graph_with_edges(22, {{0, 1}});
  SpyReport report = verify(fx.forest, deps, launches);
  EXPECT_EQ(report.unordered_pairs, 230u);
  EXPECT_EQ(report.imprecise_edges, 1u);
  ASSERT_EQ(report.violations.size(), kMaxViolationRecords + 1);
  for (std::size_t i = 0; i < kMaxViolationRecords; ++i) {
    const SpyViolation& v = report.violations[i];
    EXPECT_EQ(v.kind, SpyViolationKind::UnorderedInterference);
    if (i > 0) {
      const SpyViolation& u = report.violations[i - 1];
      EXPECT_TRUE(u.later < v.later ||
                  (u.later == v.later && u.earlier < v.earlier))
          << "record " << i;
    }
  }
  const SpyViolation& last = report.violations.back();
  EXPECT_EQ(last.kind, SpyViolationKind::ImpreciseEdge);
  EXPECT_EQ(last.earlier, 0u);
  EXPECT_EQ(last.later, 1u);
}

TEST(SpyVerify, LiveRuntimeRunVerifiesClean) {
  RuntimeConfig cfg;
  cfg.algorithm = Algorithm::RayCast;
  cfg.track_values = true;
  cfg.record_launches = true;
  cfg.machine.num_nodes = 2;
  Runtime rt(cfg);
  RegionHandle r = rt.create_region(IntervalSet(0, 19), "r");
  PartitionHandle halves = rt.create_partition(
      r, {IntervalSet(0, 9), IntervalSet(10, 19)}, "halves");
  FieldID f = rt.add_field(r, "f", 1.0);
  auto bump = [](TaskContext& ctx) {
    ctx.data(0).for_each([](coord_t, double& v) { v += 1.0; });
  };
  for (int round = 0; round < 3; ++round)
    for (std::size_t c = 0; c < 2; ++c)
      rt.launch(TaskLaunch{"bump",
                           {RegionReq{rt.subregion(halves, c), f,
                                      Privilege::read_write()}},
                           bump,
                           static_cast<NodeID>(c),
                           10});
  rt.observe(r, f);

  SpyReport report = verify(rt);
  EXPECT_TRUE(report.clean()) << report.summary();
  // 6 task launches plus the trailing observe() — all in the log.
  EXPECT_EQ(report.launches, 7u);
  EXPECT_GT(report.interfering_pairs, 0u);
  EXPECT_EQ(report.schedule_overlaps, 0u);
}

TEST(SpyVerify, IncrementalVerifierSkipsLaunchesRetiredBeforeItsDrain) {
  // Retirement that overtakes the verifier (no drain between two retire
  // calls) leaves launches it never checks; the next drain starts over at
  // the graph's base and checks every later launch.
  RuntimeConfig cfg;
  cfg.track_values = false;
  cfg.record_launches = true;
  Runtime rt(cfg);
  RegionHandle r = rt.create_region(IntervalSet(0, 19), "r");
  FieldID f = rt.add_field(r, "f", 1.0);
  auto write = [&] {
    rt.launch(TaskLaunch{"w", {RegionReq{r, f, Privilege::read_write()}},
                         {}, 0, 10});
  };
  IncrementalVerifier verifier;
  write();
  verifier.drain(rt);
  ASSERT_EQ(verifier.peek().launches, 1u);
  for (int i = 0; i < 8; ++i) write();
  rt.retire();
  rt.retire();
  const LaunchID base = rt.launch_base();
  ASSERT_GT(base, 1u) << "retirement did not pass the unchecked launches";
  write();
  write();
  EXPECT_TRUE(verifier.drain(rt).empty());
  const SpyReport& report = verifier.report(rt);
  EXPECT_EQ(report.launches, 1 + rt.dep_graph().task_count() - base);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.order_chains, 1u);
}

TEST(SpyVerify, IncrementalVerifierRetiresItsLabelsWithTheGraph) {
  // Four independent chains of piece writers, then root writers that join
  // them into one.  Once retirement drops the piece writers, the labels
  // keep only the chain with resident members.
  RuntimeConfig cfg;
  cfg.track_values = false;
  cfg.record_launches = true;
  Runtime rt(cfg);
  RegionHandle r = rt.create_region(IntervalSet(0, 39), "r");
  PartitionHandle pieces = rt.create_partition(
      r,
      {IntervalSet(0, 9), IntervalSet(10, 19), IntervalSet(20, 29),
       IntervalSet(30, 39)},
      "pieces");
  FieldID f = rt.add_field(r, "f", 1.0);
  IncrementalVerifier verifier;
  auto write = [&](RegionHandle region) {
    rt.launch(TaskLaunch{"w", {RegionReq{region, f, Privilege::read_write()}},
                         {}, 0, 10});
    verifier.drain(rt);
  };
  for (int round = 0; round < 4; ++round)
    for (std::size_t c = 0; c < 4; ++c) write(rt.subregion(pieces, c));
  EXPECT_EQ(verifier.report(rt).order_chains, 4u);
  for (int i = 0; i < 64 && rt.launch_base() <= 16; ++i) {
    write(r);
    rt.retire();
  }
  ASSERT_GT(rt.launch_base(), 16u) << "the piece writers did not retire";
  verifier.drain(rt);
  const SpyReport& report = verifier.report(rt);
  EXPECT_EQ(report.order_chains, 1u);
  EXPECT_EQ(report.launches, rt.dep_graph().task_count());
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(SpyVerify, LiveRuntimeRequiresLaunchRecording) {
  RuntimeConfig cfg;
  cfg.algorithm = Algorithm::RayCast;
  Runtime rt(cfg);
  EXPECT_THROW(verify(rt), ApiError);
}

TEST(SpyVerify, JsonReportHasTheDocumentedShape) {
  Fixture fx;
  std::vector<LaunchRecord> launches{
      fx.rec(fx.root, Privilege::read_write()),
      fx.rec(fx.half0, Privilege::read()),
  };
  DepGraph deps = graph_with_edges(2, {});
  std::string json = verify(fx.forest, deps, launches).to_json();
  for (const char* key :
       {"\"schema_version\":1", "\"launches\":2", "\"unordered_pairs\":1",
        "\"sound\":false", "\"precise\":true", "\"violations\":[",
        "\"kind\":\"unordered-interference\""})
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
}

// --- the acceptance criterion: reference-free detection ------------------

/// The minimal trigger for the injected paint bug (the same shape the
/// differential oracle uses): a reduction committed to a two-interval
/// domain, then read back through the root.
fuzz::ProgramSpec injected_bug_spec() {
  return fuzz::parse_visprog("visprog 1\n"
                             "config nodes=1 dcr=0 tracing=0 subject=paint\n"
                             "tuning occlusion=1 memoize=1 domwrites=1 "
                             "kdfallback=0 paintbug=1\n"
                             "tree A 40\n"
                             "partition P parent=0 [0,9]+[20,29] [10,19]\n"
                             "field f0 tree=0 mod=11\n"
                             "task node=0 salt=0 r1 f0 red:sum\n"
                             "task node=0 salt=0 r0 f0 read\n");
}

TEST(SpyCheck, FlagsInjectedPaintBugAsUnsoundWithoutReference) {
  // spy_check runs only the subject engine — no reference execution, no
  // value comparison.  The dropped reduce dependence must surface as a
  // soundness violation from first principles.
  fuzz::SpyCheckResult result = fuzz::spy_check(injected_bug_spec());
  ASSERT_FALSE(result.crashed) << result.crash_message;
  EXPECT_FALSE(result.report.sound()) << result.report.summary();
  EXPECT_GT(result.report.unordered_pairs, 0u);
  ASSERT_FALSE(result.report.violations.empty());
  EXPECT_EQ(result.report.violations.front().kind,
            SpyViolationKind::UnorderedInterference);
}

TEST(SpyCheck, CleanConfigurationsVerifyClean) {
  // Without the injected bug the same program is sound and precise; the
  // bug is also specific to the paint engine.
  fuzz::ProgramSpec spec = injected_bug_spec();
  spec.tuning.inject_paint_reduce_bug = false;
  EXPECT_TRUE(fuzz::spy_check(spec).clean());
  spec.tuning.inject_paint_reduce_bug = true;
  spec.subject = Algorithm::RayCast;
  EXPECT_TRUE(fuzz::spy_check(spec).clean());
}

TEST(SpyStream, ReportsEachRecordedViolationOnce) {
  // The injected paint bug fed to a verifying StreamSession, with and
  // without retirement: every recorded violation surfaces as exactly one
  // `verify:` error line, and the session's violation counter is the
  // report's unordered plus imprecise count.
  const std::string program = fuzz::to_visprog(injected_bug_spec());
  for (std::size_t retire_every : {std::size_t{0}, std::size_t{1}}) {
    std::vector<std::string> lines;
    serve::SessionOptions so;
    so.retire_every = retire_every;
    so.max_resident_launches = 0;
    so.verify = true;
    so.on_error = [&lines](const std::string& e) { lines.push_back(e); };
    serve::StreamSession session(so);
    session.feed(program);
    session.finish();
    ASSERT_TRUE(session.result().verify.has_value());
    const SpyReport& report = *session.result().verify;
    EXPECT_FALSE(report.sound()) << report.summary();
    ASSERT_FALSE(report.violations.empty());
    std::vector<std::string> expected;
    for (const SpyViolation& v : report.violations)
      expected.push_back(std::string("verify: ") +
                         spy_violation_kind_name(v.kind) + ": launch " +
                         std::to_string(v.earlier) + " vs " +
                         std::to_string(v.later) + ": " + v.detail);
    std::sort(lines.begin(), lines.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(lines, expected) << "retire_every=" << retire_every;
    EXPECT_EQ(session.counters().verify_violations,
              report.unordered_pairs + report.imprecise_edges)
        << "retire_every=" << retire_every;
  }
}

} // namespace
} // namespace visrt::analysis
