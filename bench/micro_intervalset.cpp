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

/// Four intervals, each a random interval of `big` (inside = true) or the
/// point just past one, in a gap of it (inside = false).
IntervalSet short_set(Rng& rng, const IntervalSet& big, bool inside) {
  const std::vector<Interval>& ivs = big.intervals();
  std::vector<Interval> out;
  for (int k = 0; k < 4; ++k) {
    const Interval& host = rng.pick(ivs);
    out.push_back(inside ? host : Interval{host.hi + 1, host.hi + 1});
  }
  return IntervalSet::from_intervals(std::move(out));
}

// Skewed sizes: a short operand against 64 to 16,384 intervals.  Each
// predicate must visit every short interval (no overlap; full
// containment), so the long side is crossed end to end.
void BM_OverlapsSkewed(benchmark::State& state) {
  Rng rng(11);
  IntervalSet big = make_set(rng, static_cast<int>(state.range(0)), 1 << 20);
  IntervalSet small = short_set(rng, big, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(big.overlaps(small));
  }
}
BENCHMARK(BM_OverlapsSkewed)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ContainsSkewed(benchmark::State& state) {
  Rng rng(12);
  IntervalSet big = make_set(rng, static_cast<int>(state.range(0)), 1 << 20);
  IntervalSet small = short_set(rng, big, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(big.contains(small));
  }
}
BENCHMARK(BM_ContainsSkewed)->Arg(64)->Arg(1024)->Arg(16384);

} // namespace
} // namespace visrt
