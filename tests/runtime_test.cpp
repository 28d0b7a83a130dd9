// Tests for runtime/runtime.h: the end-to-end façade — launches, implicit
// communication, the work graph, DCR, and statistics.
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "realm/reduction_ops.h"

namespace visrt {
namespace {

RuntimeConfig make_config(Algorithm algorithm, std::uint32_t nodes,
                          bool dcr = false, bool values = true) {
  RuntimeConfig cfg;
  cfg.algorithm = algorithm;
  cfg.dcr = dcr;
  cfg.track_values = values;
  cfg.machine.num_nodes = nodes;
  return cfg;
}

TEST(Runtime, SingleTaskRoundTrip) {
  Runtime rt(make_config(Algorithm::RayCast, 1));
  RegionHandle r = rt.create_region(IntervalSet(0, 9), "r");
  FieldID f = rt.add_field(r, "f", 1.0);
  rt.launch(TaskLaunch{
      "double",
      {RegionReq{r, f, Privilege::read_write()}},
      [](TaskContext& ctx) {
        ctx.data(0).for_each([](coord_t, double& v) { v *= 2.0; });
      },
      0,
      10});
  RegionData<double> out = rt.observe(r, f);
  out.for_each([](coord_t, const double& v) { EXPECT_EQ(v, 2.0); });
}

TEST(Runtime, FieldInitializerPerPoint) {
  Runtime rt(make_config(Algorithm::Warnock, 1));
  RegionHandle r = rt.create_region(IntervalSet(0, 9), "r");
  FieldID f = rt.add_field(r, "f",
                           [](coord_t p) { return static_cast<double>(p); });
  RegionData<double> out = rt.observe(r, f);
  out.for_each([](coord_t p, const double& v) {
    EXPECT_EQ(v, static_cast<double>(p));
  });
}

TEST(Runtime, DependentTasksThroughDifferentPartitions) {
  Runtime rt(make_config(Algorithm::RayCast, 2));
  RegionHandle r = rt.create_region(IntervalSet(0, 19), "r");
  PartitionHandle halves = rt.create_partition(
      r, {IntervalSet(0, 9), IntervalSet(10, 19)}, "halves");
  PartitionHandle shifted = rt.create_partition(
      r, {IntervalSet(5, 14)}, "shifted");
  FieldID f = rt.add_field(r, "f", 0.0);

  // Writers fill the two halves on different nodes.
  for (std::uint32_t i = 0; i < 2; ++i) {
    rt.launch(TaskLaunch{
        "write",
        {RegionReq{rt.subregion(halves, i), f, Privilege::read_write()}},
        [](TaskContext& ctx) {
          ctx.data(0).for_each(
              [](coord_t p, double& v) { v = static_cast<double>(p); });
        },
        static_cast<NodeID>(i),
        10});
  }
  // Reader sees both writes through a different partition.
  LaunchID reader = rt.launch(TaskLaunch{
      "read",
      {RegionReq{rt.subregion(shifted, 0), f, Privilege::read()}},
      [](TaskContext& ctx) {
        ctx.data(0).for_each([](coord_t p, const double& v) {
          EXPECT_EQ(v, static_cast<double>(p));
        });
      },
      0,
      10});
  EXPECT_TRUE(rt.dep_graph().has_edge(0, reader));
  EXPECT_TRUE(rt.dep_graph().has_edge(1, reader));

  // The cross-node write must have produced a real copy message of 8 bytes
  // per element fetched from node 1.
  EXPECT_GT(rt.work_graph().total_message_bytes(), 0u);
}

TEST(Runtime, ReductionsFoldAcrossNodes) {
  Runtime rt(make_config(Algorithm::RayCast, 3));
  RegionHandle r = rt.create_region(IntervalSet(0, 9), "r");
  FieldID f = rt.add_field(r, "f", 10.0);
  for (std::uint32_t i = 0; i < 3; ++i) {
    rt.launch(TaskLaunch{
        "reduce",
        {RegionReq{r, f, Privilege::reduce(kRedopSum)}},
        [](TaskContext& ctx) {
          ctx.data(0).for_each([](coord_t, double& v) { v += 1.0; });
        },
        static_cast<NodeID>(i),
        10});
  }
  RegionData<double> out = rt.observe(r, f);
  out.for_each([](coord_t, const double& v) { EXPECT_EQ(v, 13.0); });
}

TEST(Runtime, StatsReportIterationsAndLaunches) {
  Runtime rt(make_config(Algorithm::RayCast, 2));
  RegionHandle r = rt.create_region(IntervalSet(0, 9), "r");
  FieldID f = rt.add_field(r, "f", 0.0);
  for (int iter = 0; iter < 3; ++iter) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      rt.launch(TaskLaunch{
          "t",
          {RegionReq{r, f, i == 0 ? Privilege::read()
                                  : Privilege::read()}},
          nullptr,
          static_cast<NodeID>(i),
          5});
    }
    rt.end_iteration();
  }
  RunStats stats = rt.finish();
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_EQ(stats.launches, 6u);
  EXPECT_GT(stats.total_time_s, 0.0);
  EXPECT_GT(stats.init_time_s, 0.0);
  EXPECT_LE(stats.init_time_s, stats.total_time_s);
  EXPECT_GT(stats.steady_iter_s, 0.0);
}

TEST(Runtime, AnalysisOnlyModeSkipsBodies) {
  Runtime rt(make_config(Algorithm::RayCast, 1, false, /*values=*/false));
  RegionHandle r = rt.create_region(IntervalSet(0, 9), "r");
  FieldID f = rt.add_field(r, "f", 0.0);
  bool body_ran = false;
  rt.launch(TaskLaunch{
      "t",
      {RegionReq{r, f, Privilege::read_write()}},
      [&body_ran](TaskContext&) { body_ran = true; },
      0,
      10});
  EXPECT_FALSE(body_ran);
  EXPECT_THROW(rt.observe(r, f), ApiError);
}

TEST(Runtime, DcrProducesSameDependencesAndValues) {
  for (Algorithm algo : {Algorithm::Warnock, Algorithm::RayCast}) {
    Runtime plain(make_config(algo, 4, /*dcr=*/false));
    Runtime dcr(make_config(algo, 4, /*dcr=*/true));
    for (Runtime* rt : {&plain, &dcr}) {
      RegionHandle r = rt->create_region(IntervalSet(0, 39), "r");
      PartitionHandle p = rt->create_partition(
          r,
          {IntervalSet(0, 9), IntervalSet(10, 19), IntervalSet(20, 29),
           IntervalSet(30, 39)},
          "p");
      PartitionHandle g = rt->create_partition(
          r,
          {IntervalSet(8, 12), IntervalSet(18, 22), IntervalSet(28, 32),
           IntervalSet{{0, 2}, {38, 39}}},
          "g");
      FieldID f = rt->add_field(r, "f", 0.0);
      for (int iter = 0; iter < 2; ++iter) {
        for (std::uint32_t i = 0; i < 4; ++i) {
          rt->launch(TaskLaunch{
              "w",
              {RegionReq{rt->subregion(p, i), f, Privilege::read_write()}},
              [](TaskContext& ctx) {
                ctx.data(0).for_each([](coord_t, double& v) { v += 1; });
              },
              static_cast<NodeID>(i),
              10});
        }
        for (std::uint32_t i = 0; i < 4; ++i) {
          rt->launch(TaskLaunch{
              "red",
              {RegionReq{rt->subregion(g, i), f,
                         Privilege::reduce(kRedopSum)}},
              [](TaskContext& ctx) {
                ctx.data(0).for_each([](coord_t, double& v) { v += 2; });
              },
              static_cast<NodeID>(i),
              10});
        }
        rt->end_iteration();
      }
    }
    // Same dependence structure…
    ASSERT_EQ(plain.dep_graph().task_count(), dcr.dep_graph().task_count());
    for (LaunchID i = 0; i < plain.dep_graph().task_count(); ++i) {
      auto a = plain.dep_graph().preds(i);
      auto b = dcr.dep_graph().preds(i);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << algorithm_name(algo) << " launch " << i;
    }
    // …and identical final data.
    RegionHandle pr = RegionHandle{0}, dr = RegionHandle{0};
    EXPECT_EQ(plain.observe(pr, 0), dcr.observe(dr, 0));
  }
}

TEST(Runtime, NoDcrAnalysisConcentratesOnNodeZero) {
  // Without DCR, all Analysis compute ops are placed on node 0 or on
  // metadata owners; the launch-issue chain in particular lives on node 0.
  Runtime rt(make_config(Algorithm::RayCast, 4, /*dcr=*/false));
  RegionHandle r = rt.create_region(IntervalSet(0, 39), "r");
  PartitionHandle p = rt.create_partition(
      r,
      {IntervalSet(0, 9), IntervalSet(10, 19), IntervalSet(20, 29),
       IntervalSet(30, 39)},
      "p");
  FieldID f = rt.add_field(r, "f", 0.0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    rt.launch(TaskLaunch{
        "w",
        {RegionReq{rt.subregion(p, i), f, Privilege::read_write()}},
        nullptr,
        static_cast<NodeID>(i),
        10});
  }
  const sim::WorkGraph& g = rt.work_graph();
  std::size_t runtime_ops_node0 = 0, runtime_ops_elsewhere = 0;
  for (sim::OpID id = 0; id < g.size(); ++id) {
    const sim::Op& op = g.op(id);
    if (op.kind == sim::OpKind::Compute &&
        op.category == static_cast<std::uint8_t>(sim::OpCategory::Runtime)) {
      (op.node == 0 ? runtime_ops_node0 : runtime_ops_elsewhere)++;
    }
  }
  EXPECT_GT(runtime_ops_node0, 0u);
  EXPECT_EQ(runtime_ops_elsewhere, 0u);
}

TEST(Runtime, DcrDistributesAnalysis) {
  Runtime rt(make_config(Algorithm::RayCast, 4, /*dcr=*/true));
  RegionHandle r = rt.create_region(IntervalSet(0, 39), "r");
  PartitionHandle p = rt.create_partition(
      r,
      {IntervalSet(0, 9), IntervalSet(10, 19), IntervalSet(20, 29),
       IntervalSet(30, 39)},
      "p");
  FieldID f = rt.add_field(r, "f", 0.0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    rt.launch(TaskLaunch{
        "w",
        {RegionReq{rt.subregion(p, i), f, Privilege::read_write()}},
        nullptr,
        static_cast<NodeID>(i),
        10});
  }
  const sim::WorkGraph& g = rt.work_graph();
  std::set<NodeID> issue_nodes;
  for (sim::OpID id = 0; id < g.size(); ++id) {
    const sim::Op& op = g.op(id);
    if (op.kind == sim::OpKind::Compute &&
        op.category == static_cast<std::uint8_t>(sim::OpCategory::Runtime)) {
      issue_nodes.insert(op.node);
    }
  }
  EXPECT_EQ(issue_nodes.size(), 4u);
}

TEST(Runtime, LaunchValidation) {
  Runtime rt(make_config(Algorithm::RayCast, 2));
  RegionHandle r = rt.create_region(IntervalSet(0, 9), "r");
  FieldID f = rt.add_field(r, "f", 0.0);
  EXPECT_THROW(rt.launch(TaskLaunch{"empty", {}, nullptr, 0, 0}), ApiError);
  EXPECT_THROW(rt.launch(TaskLaunch{
                   "badnode",
                   {RegionReq{r, f, Privilege::read()}},
                   nullptr,
                   7,
                   0}),
               ApiError);
  EXPECT_THROW(rt.launch(TaskLaunch{
                   "badfield",
                   {RegionReq{r, 42, Privilege::read()}},
                   nullptr,
                   0,
                   0}),
               ApiError);
}

TEST(Runtime, IssueOpCostsMustBePositive) {
  // A zero-cost issue op would finish on the retirement floor it sets.
  EXPECT_NO_THROW(Runtime{RuntimeConfig{}});
  for (SimTime sim::CostModel::*cost :
       {&sim::CostModel::requirement_base_ns, &sim::CostModel::trace_replay_ns,
        &sim::CostModel::dcr_stream_ns}) {
    RuntimeConfig config;
    config.costs.*cost = 0;
    EXPECT_THROW(Runtime{config}, ApiError);
  }
}

TEST(Runtime, FieldsOnlyOnRoots) {
  Runtime rt(make_config(Algorithm::RayCast, 1));
  RegionHandle r = rt.create_region(IntervalSet(0, 9), "r");
  PartitionHandle p =
      rt.create_partition(r, {IntervalSet(0, 4), IntervalSet(5, 9)}, "p");
  EXPECT_THROW(rt.add_field(rt.subregion(p, 0), "f", 0.0), ApiError);
}

} // namespace
} // namespace visrt
