// Ablation benchmarks for the design choices DESIGN.md calls out:
//   - ray casting with dominating writes disabled (degenerates to
//     Warnock-style refinement-only behaviour): equivalence sets pile up;
//   - ray casting forced onto the K-d (interval tree) fallback instead of
//     the disjoint-complete-partition BVH;
//   - Warnock without memoized equivalence-set lookups;
//   - the painter without occlusion pruning: history grows unboundedly.
// Each case reports the google-benchmark time of a fixed number of passes
// (engine_passes.h) and the engine state after them as counters.
#include <benchmark/benchmark.h>

#include <memory>

#include "engine_passes.h"
#include "visibility/paint.h"
#include "visibility/raycast.h"
#include "visibility/warnock.h"

namespace visrt {
namespace {

template <typename Engine>
void drive(benchmark::State& state, const EngineTuning& tuning) {
  bench::Workload w(static_cast<int>(state.range(0)));
  EngineConfig config = w.engine_config();
  config.tuning = tuning;
  EngineStats s = bench::time_passes(
      state, w, [&] { return std::make_unique<Engine>(config); });
  state.counters["live_eqsets"] = static_cast<double>(s.live_eqsets);
  state.counters["created"] = static_cast<double>(s.total_eqsets_created);
  state.counters["hist"] = static_cast<double>(s.history_entries);
  state.counters["views"] = static_cast<double>(s.total_composite_views);
}

void BM_RayCast_DominatingWrites(benchmark::State& state) {
  drive<RayCastEngine>(state, {});
}
BENCHMARK(BM_RayCast_DominatingWrites)->Arg(16)->Arg(64);

void BM_RayCast_NoDominatingWrites(benchmark::State& state) {
  // Ablation: without dominating writes, ray casting never coalesces and
  // behaves like Warnock — watch live_eqsets grow.
  EngineTuning tuning;
  tuning.raycast_dominating_writes = false;
  drive<RayCastEngine>(state, tuning);
}
BENCHMARK(BM_RayCast_NoDominatingWrites)->Arg(16)->Arg(64);

void BM_RayCast_KdFallback(benchmark::State& state) {
  // Ablation: force the K-d interval-tree fallback instead of the
  // partition-aligned buckets (Section 7.1's rare case).
  EngineTuning tuning;
  tuning.raycast_force_kd_fallback = true;
  drive<RayCastEngine>(state, tuning);
}
BENCHMARK(BM_RayCast_KdFallback)->Arg(16)->Arg(64);

void BM_Warnock_Memoized(benchmark::State& state) {
  drive<WarnockEngine>(state, {});
}
BENCHMARK(BM_Warnock_Memoized)->Arg(16)->Arg(64);

void BM_Warnock_NoMemo(benchmark::State& state) {
  // Ablation: every lookup re-descends the refinement BVH from the root.
  EngineTuning tuning;
  tuning.warnock_memoize = false;
  drive<WarnockEngine>(state, tuning);
}
BENCHMARK(BM_Warnock_NoMemo)->Arg(16)->Arg(64);

void BM_Paint_OcclusionPruning(benchmark::State& state) {
  drive<PaintEngine>(state, {});
}
BENCHMARK(BM_Paint_OcclusionPruning)->Arg(16)->Arg(64);

void BM_Paint_NoOcclusionPruning(benchmark::State& state) {
  // Ablation: composite views are never deleted; histories only grow.
  EngineTuning tuning;
  tuning.paint_occlusion_pruning = false;
  drive<PaintEngine>(state, tuning);
}
BENCHMARK(BM_Paint_NoOcclusionPruning)->Arg(16)->Arg(64);

} // namespace
} // namespace visrt
