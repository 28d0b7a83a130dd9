// Microbenchmark: interval-set algebra throughput — the inner loop of all
// three coherence algorithms.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "geom/interval_set.h"

namespace visrt {
namespace {

IntervalSet make_set(Rng& rng, int intervals, coord_t universe) {
  std::vector<Interval> ivs;
  ivs.reserve(static_cast<std::size_t>(intervals));
  for (int i = 0; i < intervals; ++i) {
    coord_t lo = rng.range(0, universe);
    ivs.push_back(Interval{lo, lo + rng.range(1, universe / (4 * intervals) + 2)});
  }
  return IntervalSet::from_intervals(std::move(ivs));
}

void BM_Unite(benchmark::State& state) {
  Rng rng(7);
  int n = static_cast<int>(state.range(0));
  IntervalSet a = make_set(rng, n, 1 << 20);
  IntervalSet b = make_set(rng, n, 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.unite(b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Unite)->Arg(4)->Arg(64)->Arg(1024);

void BM_Intersect(benchmark::State& state) {
  Rng rng(8);
  int n = static_cast<int>(state.range(0));
  IntervalSet a = make_set(rng, n, 1 << 20);
  IntervalSet b = make_set(rng, n, 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Intersect)->Arg(4)->Arg(64)->Arg(1024);

void BM_Subtract(benchmark::State& state) {
  Rng rng(9);
  int n = static_cast<int>(state.range(0));
  IntervalSet a = make_set(rng, n, 1 << 20);
  IntervalSet b = make_set(rng, n, 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.subtract(b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Subtract)->Arg(4)->Arg(64)->Arg(1024);

void BM_Overlaps(benchmark::State& state) {
  Rng rng(10);
  int n = static_cast<int>(state.range(0));
  IntervalSet a = make_set(rng, n, 1 << 20);
  IntervalSet b = make_set(rng, n, 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.overlaps(b));
  }
}
BENCHMARK(BM_Overlaps)->Arg(4)->Arg(64)->Arg(1024);

} // namespace
} // namespace visrt
