// Microbenchmarks of the coherence engines' core operations on synthetic
// histories: materialize cost per algorithm, BVH vs. linear equivalence-set
// lookup, memoization effect.
#include <benchmark/benchmark.h>

#include <chrono>

#include "common/rng.h"
#include "metrics_common.h"
#include "wallclock_common.h"
#include "geom/bvh.h"
#include "geom/interval_tree.h"
#include "realm/reduction_ops.h"
#include "visibility/engine.h"

namespace visrt {
namespace {

/// A paper-Figure-1-shaped program: primary + aliased ghost partitions.
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
};

void run_iteration(CoherenceEngine& engine, const Workload& w,
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

void BM_EngineIteration(benchmark::State& state, Algorithm algorithm) {
  int pieces = static_cast<int>(state.range(0));
  Workload w(pieces);
  EngineConfig config;
  config.forest = &w.forest;
  config.track_values = false;
  auto engine = make_engine(algorithm, config);
  engine->initialize_field(w.root, 0, RegionData<double>{}, 0);
  LaunchID next = 0;
  for (auto _ : state) {
    run_iteration(*engine, w, next);
  }
  state.SetItemsProcessed(state.iterations() * pieces * 2);
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

// --wall-clock mode: bypass google-benchmark and time the engine
// iteration loop directly, appending a BENCH_analysis.json entry so the
// micro numbers land next to the figure-bench ones.
int run_wall_clock_micro(const bench::WallClockOptions& wc) {
  struct Sys {
    const char* label;
    Algorithm algorithm;
  };
  const Sys systems[] = {
      {"naive_paint", Algorithm::NaivePaint},
      {"paint", Algorithm::Paint},
      {"warnock", Algorithm::Warnock},
      {"raycast", Algorithm::RayCast},
  };
  constexpr int kIters = 10;
  std::printf("# micro_visibility --wall-clock: engine-iteration seconds\n");
  std::printf("system\tpieces\tanalysis_wall_s\n");
  std::ostringstream runs;
  bool first = true;
  for (const Sys& sys : systems) {
    for (std::uint32_t pieces : wc.nodes) {
      Workload w(static_cast<int>(pieces));
      EngineConfig config;
      config.forest = &w.forest;
      config.track_values = false;
      auto engine = make_engine(sys.algorithm, config);
      engine->initialize_field(w.root, 0, RegionData<double>{}, 0);
      LaunchID next = 0;
      run_iteration(*engine, w, next); // warm-up: first-touch refinements
      auto start = std::chrono::steady_clock::now();
      for (int it = 0; it < kIters; ++it) run_iteration(*engine, w, next);
      double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::printf("%s\t%u\t%.6f\n", sys.label, pieces, seconds);
      if (!first) runs << ",\n    ";
      first = false;
      runs << "{\"system\":\"" << sys.label << "\",\"nodes\":" << pieces
           << ",\"analysis_wall_s\":" << bench::wall_clock_number(seconds)
           << ",\"launches\":" << (kIters * pieces * 2) << "}";
    }
  }
  std::ostringstream entry;
  entry << " {\"bench\":\"micro_visibility\",\"app\":\"synthetic\","
        << "\"threads\":1,\n  \"runs\":[\n    "
        << runs.str() << "]}";
  if (!bench::append_bench_entry(wc.out_path, entry.str())) {
    std::fprintf(stderr, "error: could not write %s\n", wc.out_path.c_str());
    return 1;
  }
  std::printf("# appended entry to %s\n", wc.out_path.c_str());
  return 0;
}

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
  visrt::bench::write_envelope_only(metrics, "micro_visibility");
  return 0;
}
