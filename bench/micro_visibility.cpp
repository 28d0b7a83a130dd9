// Microbenchmarks of the coherence engines' core operations on synthetic
// histories: materialize cost per algorithm, BVH vs. linear equivalence-set
// lookup, memoization effect.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "engine_passes.h"
#include "geom/bvh.h"
#include "geom/interval_tree.h"

namespace visrt {
namespace {

void BM_EngineIteration(benchmark::State& state, Algorithm algorithm) {
  bench::Workload w(static_cast<int>(state.range(0)));
  bench::time_passes(state, w, [&] {
    return make_engine(algorithm, w.engine_config());
  });
}

BENCHMARK_CAPTURE(BM_EngineIteration, naive_paint, Algorithm::NaivePaint)
    ->Arg(8)
    ->Arg(32);
BENCHMARK_CAPTURE(BM_EngineIteration, paint, Algorithm::Paint)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128);
BENCHMARK_CAPTURE(BM_EngineIteration, warnock, Algorithm::Warnock)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128);
BENCHMARK_CAPTURE(BM_EngineIteration, raycast, Algorithm::RayCast)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128);

// BVH vs linear scan vs interval tree for eqset lookup ---------------------

void BM_LookupLinear(benchmark::State& state) {
  Rng rng(5);
  int n = static_cast<int>(state.range(0));
  std::vector<Interval> sets;
  for (int i = 0; i < n; ++i) {
    coord_t lo = static_cast<coord_t>(i) * 64;
    sets.push_back(Interval{lo, lo + 63});
  }
  for (auto _ : state) {
    coord_t lo = rng.range(0, n * 64 - 130);
    Interval q{lo, lo + 128};
    int hits = 0;
    for (const Interval& s : sets)
      if (s.overlaps(q)) ++hits;
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_LookupLinear)->Arg(64)->Arg(512)->Arg(4096);

void BM_LookupBvh(benchmark::State& state) {
  Rng rng(5);
  int n = static_cast<int>(state.range(0));
  std::vector<Bvh::Item> items;
  for (int i = 0; i < n; ++i) {
    coord_t lo = static_cast<coord_t>(i) * 64;
    items.push_back(Bvh::Item{{lo, lo + 63}, static_cast<std::uint64_t>(i)});
  }
  Bvh bvh(items);
  for (auto _ : state) {
    coord_t lo = rng.range(0, n * 64 - 130);
    benchmark::DoNotOptimize(bvh.query(Interval{lo, lo + 128}));
  }
}
BENCHMARK(BM_LookupBvh)->Arg(64)->Arg(512)->Arg(4096);

void BM_LookupIntervalTree(benchmark::State& state) {
  Rng rng(5);
  int n = static_cast<int>(state.range(0));
  IntervalTree tree;
  for (int i = 0; i < n; ++i) {
    coord_t lo = static_cast<coord_t>(i) * 64;
    tree.insert(Interval{lo, lo + 63}, static_cast<std::uint64_t>(i));
  }
  for (auto _ : state) {
    coord_t lo = rng.range(0, n * 64 - 130);
    benchmark::DoNotOptimize(tree.query(Interval{lo, lo + 128}));
  }
}
BENCHMARK(BM_LookupIntervalTree)->Arg(64)->Arg(512)->Arg(4096);

} // namespace
} // namespace visrt
