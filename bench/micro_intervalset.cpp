// Microbenchmark: interval-set algebra throughput — the inner loop of all
// three coherence algorithms.
#include <benchmark/benchmark.h>

#include <chrono>

#include "common/rng.h"
#include "geom/interval_set.h"
#include "metrics_common.h"
#include "wallclock_common.h"

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

// --wall-clock mode: time the four interval-set operations directly and
// append a BENCH_analysis.json entry.
int run_wall_clock_micro(const bench::WallClockOptions& wc) {
  struct Op {
    const char* label;
    IntervalSet (IntervalSet::*binary)(const IntervalSet&) const;
  };
  const Op ops[] = {
      {"unite", &IntervalSet::unite},
      {"intersect", &IntervalSet::intersect},
      {"subtract", &IntervalSet::subtract},
  };
  constexpr int kReps = 20000;
  std::printf("# micro_intervalset --wall-clock: interval-algebra seconds "
              "(%d reps)\n", kReps);
  std::printf("system\tintervals\tanalysis_wall_s\n");
  std::ostringstream runs;
  bool first = true;
  for (const Op& op : ops) {
    for (std::uint32_t n : wc.nodes) {
      Rng rng(11);
      IntervalSet a = make_set(rng, static_cast<int>(n), 1 << 20);
      IntervalSet b = make_set(rng, static_cast<int>(n), 1 << 20);
      auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < kReps; ++r)
        benchmark::DoNotOptimize((a.*op.binary)(b));
      double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::printf("%s\t%u\t%.6f\n", op.label, n, seconds);
      if (!first) runs << ",\n    ";
      first = false;
      runs << "{\"system\":\"" << op.label << "\",\"nodes\":" << n
           << ",\"analysis_wall_s\":" << bench::wall_clock_number(seconds)
           << "}";
    }
  }
  std::ostringstream entry;
  entry << " {\"bench\":\"micro_intervalset\",\"app\":\"synthetic\","
        << "\"threads\":1,\n  \"runs\":[\n    "
        << runs.str() << "]}";
  if (!bench::append_bench_entry(wc.out_path, entry.str())) {
    std::fprintf(stderr, "error: could not write %s\n", wc.out_path.c_str());
    return 1;
  }
  std::printf("# appended entry to %s\n", wc.out_path.c_str());
  return 0;
}

} // namespace
} // namespace visrt

// Custom main: --metrics-json and the wall-clock flags must be stripped
// before google-benchmark sees the arguments (benchmark_main rejects
// unrecognized flags).
int main(int argc, char** argv) {
  visrt::bench::WallClockOptions wc =
      visrt::bench::take_wall_clock_args(argc, argv);
  std::string metrics = visrt::bench::take_metrics_json_arg(argc, argv);
  if (wc.enabled) return visrt::run_wall_clock_micro(wc);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  visrt::bench::write_envelope_only(metrics, "micro_intervalset");
  return 0;
}
