// Extension experiment: dynamic tracing ([15] in the paper).
//
// The paper's evaluation deliberately disables Legion's tracing so the
// figures isolate the raw analysis cost of each visibility algorithm
// ("We did not use Legion's tracing, which memoizes the dependence and
// coherence analyses").  This bench runs the Stencil weak-scaling sweep
// with tracing ENABLED and shows the converse: once the analysis is
// memoized, even the no-DCR configurations scale, because the per-launch
// analysis no longer grows a sequential bottleneck on node 0.
#include <cstdio>

#include "app_benches.h"

namespace visrt::bench {
namespace {

RunResult run_traced_stencil(const SystemConfig& sys, std::uint32_t nodes,
                             bool trace, bool telemetry) {
  RuntimeConfig rcfg = bench_runtime_config(sys, nodes, telemetry);
  apps::StencilConfig cfg;
  std::uint32_t px = 1;
  while (px * px < nodes) px *= 2;
  cfg.pieces_x = px;
  cfg.pieces_y = nodes / px;
  cfg.tile_rows = 128;
  cfg.tile_cols = 128;
  cfg.iterations = 5;
  cfg.trace = trace;
  rcfg.costs.task_element_ns = 125;
  Runtime rt(rcfg);
  apps::StencilApp app(rt, cfg);
  app.run();
  RunResult out;
  out.stats = rt.finish();
  out.work_per_node_per_iter = static_cast<double>(app.points_per_piece());
  out.metrics_json = bench_metrics_json(sys, nodes, "stencil", rt, out.stats);
  return out;
}

} // namespace
} // namespace visrt::bench

int main(int argc, char** argv) {
  using namespace visrt::bench;
  std::string metrics_path = metrics_json_arg(argc, argv, "ext_tracing");
  visrt::MetricsFile metrics("ext_tracing");
  std::printf("# Extension: Stencil weak scaling with dynamic tracing\n");
  std::printf("# (points/s per node; the paper's Figures ran untraced)\n");

  std::vector<std::uint32_t> nodes_list = paper_node_counts();
  struct Config {
    const char* label;
    SystemConfig sys;
    bool trace;
  };
  std::vector<Config> configs = {
      {"RayCast NoDCR untraced",
       {"raycast_untraced", "", visrt::Algorithm::RayCast, false},
       false},
      {"RayCast NoDCR traced",
       {"raycast_traced", "", visrt::Algorithm::RayCast, false},
       true},
      {"Warnock NoDCR untraced",
       {"warnock_untraced", "", visrt::Algorithm::Warnock, false},
       false},
      {"Warnock NoDCR traced",
       {"warnock_traced", "", visrt::Algorithm::Warnock, false},
       true},
      {"Paint NoDCR untraced",
       {"paint_untraced", "", visrt::Algorithm::Paint, false},
       false},
      {"Paint NoDCR traced",
       {"paint_traced", "", visrt::Algorithm::Paint, false},
       true},
  };

  std::printf("%-24s", "nodes");
  for (std::uint32_t n : nodes_list) std::printf("%12u", n);
  std::printf("\n");
  for (const Config& c : configs) {
    std::printf("%-24s", c.label);
    for (std::uint32_t n : nodes_list) {
      RunResult r =
          run_traced_stencil(c.sys, n, c.trace, !metrics_path.empty());
      if (!metrics_path.empty()) metrics.add_run(std::move(r.metrics_json));
      double tput = r.stats.steady_iter_s > 0
                        ? r.work_per_node_per_iter / r.stats.steady_iter_s
                        : 0.0;
      std::printf("%12.4g", tput);
    }
    std::printf("\n");
  }
  metrics.write(metrics_path);
  return 0;
}
