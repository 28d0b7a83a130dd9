// Shared driver for the paper-figure benchmarks (Figures 12-17).
//
// Each figure bench sweeps node counts 1..512 over the five systems of the
// paper's evaluation:
//     RayCast DCR / RayCast No DCR / Warnock DCR / Warnock No DCR /
//     Paint No DCR   (the painter predates DCR, as in the paper)
// and prints
//   (a) the artifact's parse_results.py TSV
//       (system nodes procs_per_node rep init_time elapsed_time), and
//   (b) the figure's series: init-time seconds (Figures 12-14) or
//       weak-scaling throughput per node (Figures 15-17).
//
// The simulator is deterministic, so all five repetitions of the artifact
// format are identical by construction; they are printed anyway to stay
// drop-in compatible with the paper's spreadsheet pipeline.
//
// The one option, `--metrics-json PATH` (or `--metrics-json=PATH`), turns
// telemetry on and writes every run's metrics there (docs/OBSERVABILITY.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/runtime.h"

namespace visrt::bench {

struct SystemConfig {
  const char* label;        ///< paper-artifact system name
  const char* figure_label; ///< legend label used in the figures
  Algorithm algorithm;
  bool dcr;
};

inline const std::vector<SystemConfig>& paper_systems() {
  static const std::vector<SystemConfig> systems = {
      {"neweqcr_dcr", "RayCast, DCR", Algorithm::RayCast, true},
      {"neweqcr_nodcr", "RayCast, No DCR", Algorithm::RayCast, false},
      {"oldeqcr_dcr", "Warnock, DCR", Algorithm::Warnock, true},
      {"oldeqcr_nodcr", "Warnock, No DCR", Algorithm::Warnock, false},
      {"paint_nodcr", "Paint, No DCR", Algorithm::Paint, false},
  };
  return systems;
}

inline std::vector<std::uint32_t> paper_node_counts() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
}

struct RunResult {
  RunStats stats;
  double work_per_node_per_iter = 0; ///< app-specific throughput unit
  /// Serialized metrics run object (metrics_run_json); collected into the
  /// --metrics-json file when one was requested.
  std::string metrics_json;
};

/// Runs one (system, nodes) configuration: constructs the runtime (via
/// bench_runtime_config, adjusting the leaf-task cost model to the app's
/// kernel weight), builds and runs the app for `iterations`, and reports
/// the throughput unit.  app_benches.h has one per app.
using AppRunner = RunResult (*)(const SystemConfig& sys, std::uint32_t nodes,
                                int iterations, bool telemetry);

struct FigureSpec {
  std::string figure;     ///< e.g. "Figure 12"
  std::string title;      ///< e.g. "Stencil initialization time"
  std::string unit;       ///< throughput unit name, e.g. "points/s"
  bool weak_scaling;      ///< false: init-time figure; true: throughput
};

inline RuntimeConfig bench_runtime_config(const SystemConfig& sys,
                                          std::uint32_t nodes,
                                          bool telemetry = false) {
  RuntimeConfig cfg;
  cfg.algorithm = sys.algorithm;
  cfg.dcr = sys.dcr;
  cfg.track_values = false; // analysis-only: the figures measure overhead
  cfg.telemetry = telemetry;
  cfg.machine.num_nodes = nodes;
  return cfg;
}

/// Serialize one finished bench run; call before the Runtime goes away.
inline std::string bench_metrics_json(const SystemConfig& sys,
                                      std::uint32_t nodes, const char* app,
                                      const Runtime& rt,
                                      const RunStats& stats) {
  MetricsRunInfo info;
  info.name = std::string(sys.label) + "/" + std::to_string(nodes);
  info.app = app;
  info.algorithm = algorithm_name(sys.algorithm);
  info.dcr = sys.dcr;
  info.nodes = nodes;
  return metrics_run_json(info, rt, stats);
}

/// The command line of the figure benches and ext_tracing:
/// `[--metrics-json PATH]`.  Returns the path, "" when absent.  Any other
/// argument prints a usage line and exits 2 instead of running the sweep.
inline std::string metrics_json_arg(int argc, char** argv,
                                    const char* binary) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      path = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--metrics-json PATH]\n", binary);
      std::exit(2);
    }
  }
  return path;
}

/// A figure bench's main(): sweep every paper system over
/// paper_node_counts() with `app`, print the artifact TSV and the
/// figure's series, and write the metrics file when one was requested.
inline int figure_main(int argc, char** argv, const char* binary,
                       const FigureSpec& spec, AppRunner app) {
  const std::string metrics_path = metrics_json_arg(argc, argv, binary);
  const bool telemetry = !metrics_path.empty();
  MetricsFile metrics(binary);
  std::printf("# %s: %s\n", spec.figure.c_str(), spec.title.c_str());
  std::printf("# deterministic simulator: the 5 artifact reps are "
              "identical by construction\n");
  std::printf("system\tnodes\tprocs_per_node\trep\tinit_time\t"
              "elapsed_time\n");

  struct Series {
    const SystemConfig* sys;
    std::vector<double> values; // per node count
  };
  std::vector<Series> series;
  for (const SystemConfig& sys : paper_systems())
    series.push_back(Series{&sys, {}});

  std::vector<std::uint32_t> nodes_list = paper_node_counts();
  for (std::size_t s = 0; s < series.size(); ++s) {
    const SystemConfig& sys = *series[s].sys;
    for (std::uint32_t nodes : nodes_list) {
      RunResult result = app(sys, nodes, 5, telemetry);
      if (telemetry) metrics.add_run(std::move(result.metrics_json));
      const RunStats& st = result.stats;
      for (int rep = 0; rep < 5; ++rep) {
        std::printf("%s\t%u\t1\t%d\t%.6f\t%.6f\n", sys.label, nodes, rep,
                    st.init_time_s, st.total_time_s);
      }
      double value = spec.weak_scaling
                         ? (st.steady_iter_s > 0
                                ? result.work_per_node_per_iter /
                                      st.steady_iter_s
                                : 0.0)
                         : st.init_time_s;
      series[s].values.push_back(value);
    }
  }

  // Figure series block.
  std::printf("\n# %s series (%s)\n", spec.figure.c_str(),
              spec.weak_scaling
                  ? (spec.unit + " per node, higher is better").c_str()
                  : "initialization seconds, lower is better");
  std::printf("%-18s", "nodes");
  for (std::uint32_t n : nodes_list) std::printf("%12u", n);
  std::printf("\n");
  for (const Series& s : series) {
    std::printf("%-18s", s.sys->figure_label);
    for (double v : s.values) std::printf("%12.4g", v);
    std::printf("\n");
  }
  std::printf("\n");
  metrics.write(metrics_path);
  return 0;
}

} // namespace visrt::bench
