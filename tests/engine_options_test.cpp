// Tests for the engines' option knobs (the ablation configurations):
// every variant must preserve the apparently-sequential semantics and the
// dependence properties; the knobs may only change *how much state/work*
// the engine uses.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine_harness.h"
#include "realm/reduction_ops.h"
#include "visibility/paint.h"
#include "visibility/raycast.h"
#include "visibility/warnock.h"

namespace visrt {
namespace {

using testing::EngineHarness;

struct Program {
  RegionTreeForest forest;
  RegionHandle root;
  std::vector<RegionHandle> primary, ghost;

  Program() {
    root = forest.create_root(IntervalSet(0, 119), "A");
    std::vector<IntervalSet> p, g;
    for (coord_t i = 0; i < 4; ++i) {
      p.push_back(IntervalSet(i * 30, i * 30 + 29));
      coord_t left = (i * 30 + 118) % 120;
      coord_t right = (i * 30 + 30) % 120;
      g.push_back(IntervalSet{{left, left + 1}, {right, right + 1}});
    }
    PartitionHandle ph = forest.create_partition(root, std::move(p), "P");
    PartitionHandle gh = forest.create_partition(root, std::move(g), "G");
    for (std::size_t i = 0; i < 4; ++i) {
      primary.push_back(forest.subregion(ph, i));
      ghost.push_back(forest.subregion(gh, i));
    }
  }
};

EngineConfig config_for(const Program& prog, EngineTuning tuning = {}) {
  EngineConfig config;
  config.forest = &prog.forest;
  config.track_values = true;
  config.tuning = tuning;
  return config;
}

/// Drives the Figure-1 pattern against a configured engine and an oracle,
/// checking values at every materialization.
void check_against_oracle(CoherenceEngine& engine, Program& prog,
                          int iterations) {
  EngineConfig oc = config_for(prog);
  auto oracle = make_engine(Algorithm::Reference, oc);
  auto init = RegionData<double>::generate(
      prog.forest.domain(prog.root),
      [](coord_t p) { return static_cast<double>(p % 13); });
  engine.initialize_field(prog.root, 0, init, 0);
  oracle->initialize_field(prog.root, 0, init, 0);

  LaunchID next = 0;
  auto run = [&](CoherenceEngine& e, const Requirement& req, LaunchID id,
                 NodeID node) {
    AnalysisContext ctx{id, node, 0};
    MaterializeResult mr = e.materialize(req, ctx);
    if (req.privilege.is_write()) {
      mr.data.for_each([&](coord_t p, double& v) {
        v = static_cast<double>((p * 3 + static_cast<coord_t>(id)) % 50);
      });
    } else if (req.privilege.is_reduce()) {
      mr.data.for_each([&](coord_t p, double& v) {
        v += static_cast<double>((p + static_cast<coord_t>(id)) % 7);
      });
    }
    e.commit(req, mr.data, ctx);
    return mr;
  };

  for (int iter = 0; iter < iterations; ++iter) {
    for (std::size_t i = 0; i < 4; ++i) {
      LaunchID id = next++;
      Requirement rw{prog.primary[i], 0, Privilege::read_write()};
      auto a = run(engine, rw, id, static_cast<NodeID>(i));
      auto b = run(*oracle, rw, id, static_cast<NodeID>(i));
      EXPECT_EQ(a.data, b.data) << "rw materialize diverged, launch " << id;
      // The oracle reports every interfering prior; optimized engines may
      // omit transitively-implied ones, so only subset-ness is checked
      // here (full soundness is covered by engine_property_test).
      for (LaunchID d : a.dependences) {
        EXPECT_TRUE(std::binary_search(b.dependences.begin(),
                                       b.dependences.end(), d));
      }
    }
    for (std::size_t i = 0; i < 4; ++i) {
      LaunchID id = next++;
      Requirement red{prog.ghost[i], 0, Privilege::reduce(kRedopSum)};
      auto a = run(engine, red, id, static_cast<NodeID>(i));
      auto b = run(*oracle, red, id, static_cast<NodeID>(i));
      for (LaunchID d : a.dependences) {
        EXPECT_TRUE(std::binary_search(b.dependences.begin(),
                                       b.dependences.end(), d));
      }
    }
  }
  // Final read of everything.
  LaunchID id = next++;
  Requirement all{prog.root, 0, Privilege::read()};
  AnalysisContext ctx{id, 0, 0};
  MaterializeResult a = engine.materialize(all, ctx);
  MaterializeResult b = oracle->materialize(all, ctx);
  EXPECT_EQ(a.data, b.data) << "final read diverged";
}

TEST(EngineOptions, RayCastWithoutDominatingWritesIsCorrect) {
  Program prog;
  EngineTuning tuning;
  tuning.raycast_dominating_writes = false;
  RayCastEngine engine(config_for(prog, tuning));
  check_against_oracle(engine, prog, 3);
}

TEST(EngineOptions, RayCastKdFallbackIsCorrect) {
  Program prog;
  EngineTuning tuning;
  tuning.raycast_force_kd_fallback = true;
  RayCastEngine engine(config_for(prog, tuning));
  check_against_oracle(engine, prog, 3);
}

TEST(EngineOptions, WarnockWithoutMemoizationIsCorrect) {
  Program prog;
  EngineTuning tuning;
  tuning.warnock_memoize = false;
  WarnockEngine engine(config_for(prog, tuning));
  check_against_oracle(engine, prog, 3);
}

TEST(EngineOptions, PaintWithoutOcclusionPruningIsCorrect) {
  Program prog;
  EngineTuning tuning;
  tuning.paint_occlusion_pruning = false;
  PaintEngine engine(config_for(prog, tuning));
  check_against_oracle(engine, prog, 3);
}

TEST(EngineOptions, DominatingWritesBoundLiveSets) {
  // With coalescing, the live-set count returns to the primary-piece count
  // after every write phase; without it, refinements accumulate.
  Program prog;
  EngineConfig config = config_for(prog);
  config.track_values = false;

  RayCastEngine with(config);
  config.tuning.raycast_dominating_writes = false;
  RayCastEngine without(config);
  with.initialize_field(prog.root, 0, RegionData<double>{}, 0);
  without.initialize_field(prog.root, 0, RegionData<double>{}, 0);

  LaunchID next = 0;
  auto iteration = [&](CoherenceEngine& e, LaunchID base) {
    LaunchID id = base;
    for (std::size_t i = 0; i < 4; ++i) {
      AnalysisContext ctx{id++, static_cast<NodeID>(i), 0};
      Requirement rw{prog.primary[i], 0, Privilege::read_write()};
      e.commit(rw, e.materialize(rw, ctx).data, ctx);
    }
    for (std::size_t i = 0; i < 4; ++i) {
      AnalysisContext ctx{id++, static_cast<NodeID>(i), 0};
      Requirement red{prog.ghost[i], 0, Privilege::reduce(kRedopSum)};
      e.commit(red, e.materialize(red, ctx).data, ctx);
    }
    return id;
  };
  for (int iter = 0; iter < 4; ++iter) {
    LaunchID base = next;
    next = iteration(with, base);
    iteration(without, base);
  }
  // One more write phase to let coalescing do its job.
  for (std::size_t i = 0; i < 4; ++i) {
    AnalysisContext ctx{next++, static_cast<NodeID>(i), 0};
    Requirement rw{prog.primary[i], 0, Privilege::read_write()};
    with.commit(rw, with.materialize(rw, ctx).data, ctx);
    without.commit(rw, without.materialize(rw, ctx).data, ctx);
  }
  EXPECT_EQ(with.stats().live_eqsets, 4u); // exactly the P pieces
  EXPECT_GT(without.stats().live_eqsets, with.stats().live_eqsets);
}

TEST(EngineOptions, MemoizationReducesTraversalWork) {
  Program prog;
  EngineConfig config = config_for(prog);
  config.track_values = false;

  auto traversal_cost = [&](bool memoize) {
    EngineConfig tuned = config;
    tuned.tuning.warnock_memoize = memoize;
    WarnockEngine engine(tuned);
    engine.initialize_field(prog.root, 0, RegionData<double>{}, 0);
    LaunchID next = 0;
    std::uint64_t accel = 0;
    for (int iter = 0; iter < 4; ++iter) {
      for (std::size_t i = 0; i < 4; ++i) {
        AnalysisContext ctx{next++, static_cast<NodeID>(i), 0};
        Requirement red{prog.ghost[i], 0, Privilege::reduce(kRedopSum)};
        MaterializeResult mr = engine.materialize(red, ctx);
        for (const AnalysisStep& s : mr.steps)
          accel += s.counters.accel_nodes;
        engine.commit(red, mr.data, ctx);
      }
    }
    return accel;
  };
  EXPECT_LT(traversal_cost(true), traversal_cost(false));
}

TEST(EngineOptions, OcclusionPruningBoundsHistory) {
  Program prog;
  EngineConfig config = config_for(prog);
  config.track_values = false;

  auto history_after = [&](bool pruning) {
    EngineConfig tuned = config;
    tuned.tuning.paint_occlusion_pruning = pruning;
    PaintEngine engine(tuned);
    engine.initialize_field(prog.root, 0, RegionData<double>{}, 0);
    LaunchID next = 0;
    for (int iter = 0; iter < 8; ++iter) {
      for (std::size_t i = 0; i < 4; ++i) {
        AnalysisContext ctx{next++, static_cast<NodeID>(i), 0};
        Requirement rw{prog.primary[i], 0, Privilege::read_write()};
        engine.commit(rw, engine.materialize(rw, ctx).data, ctx);
      }
      for (std::size_t i = 0; i < 4; ++i) {
        AnalysisContext ctx{next++, static_cast<NodeID>(i), 0};
        Requirement red{prog.ghost[i], 0, Privilege::reduce(kRedopSum)};
        engine.commit(red, engine.materialize(red, ctx).data, ctx);
      }
    }
    return engine.stats().history_entries;
  };
  EXPECT_LT(history_after(true), history_after(false));
}

} // namespace
} // namespace visrt
