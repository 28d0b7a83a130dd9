// Tests for the dynamic-tracing extension: replayed analysis must be
// invisible semantically (same values, same dependence DAG) while removing
// analysis traffic from the simulated machine.
#include <gtest/gtest.h>

#include "common/check.h"
#include "realm/reduction_ops.h"
#include "runtime/runtime.h"

namespace visrt {
namespace {

struct Fixture {
  RegionHandle region;
  PartitionHandle primary, ghost;
  FieldID field;
};

Fixture build(Runtime& rt) {
  Fixture s;
  s.region = rt.create_region(IntervalSet(0, 39), "r");
  s.primary = rt.create_partition(
      s.region,
      {IntervalSet(0, 9), IntervalSet(10, 19), IntervalSet(20, 29),
       IntervalSet(30, 39)},
      "p");
  s.ghost = rt.create_partition(
      s.region,
      {IntervalSet(8, 12), IntervalSet(18, 22), IntervalSet(28, 32),
       IntervalSet{{0, 2}, {38, 39}}},
      "g");
  s.field = rt.add_field(s.region, "f", 1.0);
  return s;
}

void run_iteration(Runtime& rt, const Fixture& s) {
  for (std::uint32_t i = 0; i < 4; ++i) {
    rt.launch(TaskLaunch{
        "w",
        {RegionReq{rt.subregion(s.primary, i), s.field,
                   Privilege::read_write()}},
        [](TaskContext& ctx) {
          ctx.data(0).for_each([](coord_t, double& v) { v += 1; });
        },
        static_cast<NodeID>(i),
        10});
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    rt.launch(TaskLaunch{
        "red",
        {RegionReq{rt.subregion(s.ghost, i), s.field,
                   Privilege::reduce(kRedopSum)}},
        [](TaskContext& ctx) {
          ctx.data(0).for_each([](coord_t, double& v) { v += 2; });
        },
        static_cast<NodeID>(i),
        10});
  }
}

RuntimeConfig traced_config(bool tracing, std::uint32_t nodes = 4) {
  RuntimeConfig cfg;
  cfg.algorithm = Algorithm::RayCast;
  cfg.machine.num_nodes = nodes;
  cfg.enable_tracing = tracing;
  return cfg;
}

TEST(Tracing, ReplayPreservesValuesAndDependences) {
  Runtime traced(traced_config(true));
  Runtime plain(traced_config(false));
  Fixture st = build(traced);
  Fixture sp = build(plain);

  for (int iter = 0; iter < 5; ++iter) {
    traced.begin_trace(7);
    run_iteration(traced, st);
    traced.end_trace();
    traced.end_iteration();
    run_iteration(plain, sp);
    plain.end_iteration();
  }
  // Iterations 2..5 replay (iteration 1 captured).
  EXPECT_EQ(traced.traced_launches(), 4u * 8u);

  EXPECT_EQ(traced.observe(st.region, st.field),
            plain.observe(sp.region, sp.field));
  ASSERT_EQ(traced.dep_graph().task_count(), plain.dep_graph().task_count());
  for (LaunchID i = 0; i < plain.dep_graph().task_count(); ++i) {
    auto a = traced.dep_graph().preds(i);
    auto b = plain.dep_graph().preds(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "launch " << i;
  }
}

TEST(Tracing, ReplayRemovesAnalysisTraffic) {
  auto messages = [](bool tracing) {
    Runtime rt(traced_config(tracing));
    Fixture s = build(rt);
    for (int iter = 0; iter < 6; ++iter) {
      rt.begin_trace(1);
      run_iteration(rt, s);
      rt.end_trace();
      rt.end_iteration();
    }
    RunStats stats = rt.finish();
    return stats.messages;
  };
  std::size_t with = messages(true);
  std::size_t without = messages(false);
  EXPECT_LT(with, without / 2) << "tracing should remove most messages";
}

TEST(Tracing, ReplaySpeedsUpSteadyState) {
  auto steady = [](bool tracing) {
    RuntimeConfig cfg = traced_config(tracing, 4);
    cfg.track_values = false;
    Runtime rt(cfg);
    Fixture s = build(rt);
    for (int iter = 0; iter < 6; ++iter) {
      rt.begin_trace(1);
      run_iteration(rt, s);
      rt.end_trace();
      rt.end_iteration();
    }
    return rt.finish().steady_iter_s;
  };
  EXPECT_LT(steady(true), steady(false));
}

TEST(Tracing, SequenceMismatchFallsBackGracefully) {
  Runtime rt(traced_config(true));
  Fixture s = build(rt);

  rt.begin_trace(3);
  run_iteration(rt, s);
  rt.end_trace();

  // A different sequence under the same trace id: must invalidate, not
  // crash, and produce correct values.
  rt.begin_trace(3);
  for (std::uint32_t i = 0; i < 4; ++i) {
    rt.launch(TaskLaunch{
        "other",
        {RegionReq{rt.subregion(s.ghost, i), s.field, Privilege::read()}},
        nullptr,
        static_cast<NodeID>(i),
        5});
  }
  rt.end_trace();
  EXPECT_EQ(rt.traced_launches(), 0u);

  // The invalidated trace keeps falling back silently.
  rt.begin_trace(3);
  run_iteration(rt, s);
  rt.end_trace();
  EXPECT_EQ(rt.traced_launches(), 0u);

  Runtime plain(traced_config(false));
  Fixture sp = build(plain);
  run_iteration(plain, sp);
  for (std::uint32_t i = 0; i < 4; ++i) {
    plain.launch(TaskLaunch{
        "other",
        {RegionReq{plain.subregion(sp.ghost, i), sp.field,
                   Privilege::read()}},
        nullptr,
        static_cast<NodeID>(i),
        5});
  }
  run_iteration(plain, sp);
  EXPECT_EQ(rt.observe(s.region, s.field),
            plain.observe(sp.region, sp.field));
}

TEST(Tracing, ShortReplayInvalidatesTemplate) {
  Runtime rt(traced_config(true));
  Fixture s = build(rt);
  rt.begin_trace(9);
  run_iteration(rt, s);
  rt.end_trace();

  // Replay fewer launches than the template: stale template detected.
  rt.begin_trace(9);
  rt.launch(TaskLaunch{
      "w",
      {RegionReq{rt.subregion(s.primary, 0), s.field,
                 Privilege::read_write()}},
      nullptr,
      0,
      10});
  rt.end_trace();

  std::size_t traced_before = rt.traced_launches();
  rt.begin_trace(9);
  run_iteration(rt, s);
  rt.end_trace();
  EXPECT_EQ(rt.traced_launches(), traced_before); // no further replays
}

TEST(Tracing, NestingAndUnderflowRejected) {
  Runtime rt(traced_config(true));
  (void)build(rt);
  EXPECT_THROW(rt.end_trace(), ApiError);
  rt.begin_trace(0);
  EXPECT_THROW(rt.begin_trace(1), ApiError);
  rt.end_trace();
}

TEST(Tracing, DisabledTracingIsNoop) {
  Runtime rt(traced_config(false));
  Fixture s = build(rt);
  rt.begin_trace(0); // ignored
  run_iteration(rt, s);
  rt.end_trace();
  rt.begin_trace(0);
  run_iteration(rt, s);
  rt.end_trace();
  EXPECT_EQ(rt.traced_launches(), 0u);
}

TEST(Tracing, WorksUnderDcr) {
  RuntimeConfig cfg = traced_config(true);
  cfg.dcr = true;
  Runtime rt(cfg);
  Fixture s = build(rt);
  for (int iter = 0; iter < 3; ++iter) {
    rt.begin_trace(0);
    run_iteration(rt, s);
    rt.end_trace();
    rt.end_iteration();
  }
  EXPECT_EQ(rt.traced_launches(), 2u * 8u);

  Runtime plain(traced_config(false));
  Fixture sp = build(plain);
  for (int iter = 0; iter < 3; ++iter) {
    run_iteration(plain, sp);
    plain.end_iteration();
  }
  EXPECT_EQ(rt.observe(s.region, s.field),
            plain.observe(sp.region, sp.field));
}

} // namespace
} // namespace visrt
