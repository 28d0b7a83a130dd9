// The engine microbenchmarks' shared workload and timing loop
// (micro_visibility's BM_EngineIteration and every ablation_visibility
// case).
//
// Every google-benchmark iteration builds a fresh engine, runs one untimed
// warm-up pass (the first-touch refinements) and then times kPasses
// passes.  The work per iteration is therefore fixed: times and engine
// counters do not depend on how many iterations google-benchmark chooses.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "realm/reduction_ops.h"
#include "visibility/engine.h"

namespace visrt::bench {

/// A paper-Figure-1-shaped program: a ring of pieces, each with a primary
/// subregion and an aliased ghost subregion over its neighbours' boundary
/// cells.
struct Workload {
  RegionTreeForest forest;
  RegionHandle root;
  std::vector<RegionHandle> primary, ghost;

  explicit Workload(int pieces, coord_t piece_size = 64) {
    coord_t total = pieces * piece_size;
    root = forest.create_root(IntervalSet(0, total - 1), "A");
    std::vector<IntervalSet> p, g;
    for (int i = 0; i < pieces; ++i) {
      coord_t lo = i * piece_size;
      p.push_back(IntervalSet(lo, lo + piece_size - 1));
      // Ghosts: boundary cells of both neighbours (wrapping).
      coord_t left = (lo + total - 2) % total;
      coord_t right = (lo + piece_size) % total;
      g.push_back(IntervalSet{{left, left + 1}, {right, right + 1}});
    }
    PartitionHandle ph = forest.create_partition(root, std::move(p), "P");
    PartitionHandle gh = forest.create_partition(root, std::move(g), "G");
    for (int i = 0; i < pieces; ++i) {
      primary.push_back(forest.subregion(ph, static_cast<std::size_t>(i)));
      ghost.push_back(forest.subregion(gh, static_cast<std::size_t>(i)));
    }
  }

  /// Analysis-only engine configuration over this workload's forest.
  EngineConfig engine_config() const {
    EngineConfig config;
    config.forest = &forest;
    config.track_values = false;
    return config;
  }
};

/// One pass: every piece read-writes its primary subregion, then reduces
/// into its ghost subregion.
inline void run_pass(CoherenceEngine& engine, const Workload& w,
                     LaunchID& next) {
  for (std::size_t i = 0; i < w.primary.size(); ++i) {
    AnalysisContext ctx{next++, static_cast<NodeID>(i % 4), 0};
    Requirement rw{w.primary[i], 0, Privilege::read_write()};
    Requirement red{w.ghost[i], 0, Privilege::reduce(kRedopSum)};
    auto r1 = engine.materialize(rw, ctx);
    engine.commit(rw, r1.data, ctx);
    auto r2 = engine.materialize(red, ctx);
    engine.commit(red, r2.data, ctx);
  }
}

/// Timed passes per benchmark iteration.
constexpr int kPasses = 10;

/// Time kPasses passes per benchmark iteration over a fresh engine from
/// `make`.  Construction, the warm-up pass and destruction are untimed.
/// Items are requirements analyzed.  Returns the last engine's stats,
/// which every iteration reproduces exactly.
template <typename MakeEngine>
EngineStats time_passes(benchmark::State& state, const Workload& w,
                        MakeEngine make) {
  std::unique_ptr<CoherenceEngine> engine;
  for (auto _ : state) {
    state.PauseTiming();
    engine = make(); // destroys the previous iteration's engine
    engine->initialize_field(w.root, 0, RegionData<double>{}, 0);
    LaunchID next = 0;
    run_pass(*engine, w, next);
    state.ResumeTiming();
    for (int p = 0; p < kPasses; ++p) run_pass(*engine, w, next);
  }
  state.SetItemsProcessed(state.iterations() * kPasses *
                          static_cast<std::int64_t>(w.primary.size()) * 2);
  return engine ? engine->stats() : EngineStats{};
}

} // namespace visrt::bench
