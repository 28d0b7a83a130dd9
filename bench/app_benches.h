// App-specific benchmark configurations shared by the figure benches
// (Figures 12-17) and the ablation benches.  Weak scaling: one piece per
// node, per-piece problem size fixed; the leaf-task cost model is tuned so
// a piece's kernel costs ~2 ms of simulated time, the regime where the
// paper's analysis-overhead crossovers appear on realistic node counts.
#pragma once

#include "apps/circuit.h"
#include "apps/pennant.h"
#include "apps/stencil.h"
#include "figure_common.h"

namespace visrt::bench {

inline RunResult run_stencil(const SystemConfig& sys, std::uint32_t nodes,
                             int iterations = 5, bool telemetry = false,
                             bool profile = false) {
  RuntimeConfig rcfg = bench_runtime_config(sys, nodes, telemetry);
  rcfg.profile = profile;
  apps::StencilConfig cfg;
  // Near-square 2-D piece grid (node counts are powers of two).
  std::uint32_t px = 1;
  while (px * px < nodes) px *= 2;
  cfg.pieces_x = px;
  cfg.pieces_y = nodes / px;
  cfg.tile_rows = 128;
  cfg.tile_cols = 128;
  cfg.iterations = iterations;
  // ~16k points per piece; 125 ns/point ~ 2 ms kernels.
  rcfg.costs.task_element_ns = 125;
  Runtime rt(rcfg);
  apps::StencilApp app(rt, cfg);
  app.run();
  RunResult out;
  out.stats = rt.finish();
  out.work_per_node_per_iter =
      static_cast<double>(app.points_per_piece());
  out.metrics_json = bench_metrics_json(sys, nodes, "stencil", rt, out.stats);
  if (profile) out.profile_json = rt.profile_json();
  return out;
}

inline RunResult run_circuit(const SystemConfig& sys, std::uint32_t nodes,
                             int iterations = 5, bool telemetry = false,
                             bool profile = false) {
  RuntimeConfig rcfg = bench_runtime_config(sys, nodes, telemetry);
  rcfg.profile = profile;
  apps::CircuitConfig cfg;
  cfg.pieces = nodes;
  cfg.nodes_per_piece = 200;
  cfg.wires_per_piece = 300;
  cfg.cross_fraction = 0.15;
  cfg.iterations = iterations;
  // 300 wires per piece; 6 us/wire ~ 1.8 ms kernels.
  rcfg.costs.task_element_ns = 6000;
  Runtime rt(rcfg);
  apps::CircuitApp app(rt, cfg);
  app.run();
  RunResult out;
  out.stats = rt.finish();
  out.work_per_node_per_iter = static_cast<double>(app.wires_per_piece());
  out.metrics_json = bench_metrics_json(sys, nodes, "circuit", rt, out.stats);
  if (profile) out.profile_json = rt.profile_json();
  return out;
}

inline RunResult run_pennant(const SystemConfig& sys, std::uint32_t nodes,
                             int iterations = 5, bool telemetry = false,
                             bool profile = false) {
  RuntimeConfig rcfg = bench_runtime_config(sys, nodes, telemetry);
  rcfg.profile = profile;
  apps::PennantConfig cfg;
  // Pieces in a near-square 2-D grid covering `nodes` pieces.
  std::uint32_t px = 1;
  while (px * px < nodes) px *= 2;
  std::uint32_t py = nodes / px;
  if (px * py < nodes) py = nodes; // fall back to a strip
  if (px * py != nodes) {
    px = nodes;
    py = 1;
  }
  cfg.pieces_x = px;
  cfg.pieces_y = py;
  cfg.zones_per_piece_x = 32;
  cfg.zones_per_piece_y = 32;
  cfg.iterations = iterations;
  // 1024 zones per piece; 2 us/zone ~ 2 ms kernels.
  rcfg.costs.task_element_ns = 2000;
  Runtime rt(rcfg);
  apps::PennantApp app(rt, cfg);
  app.run();
  RunResult out;
  out.stats = rt.finish();
  out.work_per_node_per_iter = static_cast<double>(app.zones_per_piece());
  out.metrics_json = bench_metrics_json(sys, nodes, "pennant", rt, out.stats);
  if (profile) out.profile_json = rt.profile_json();
  return out;
}

} // namespace visrt::bench
