// Figure 15: Stencil weak scaling (weak scaling).
#include "app_benches.h"
#include "wallclock_common.h"

int main(int argc, char** argv) {
  using namespace visrt::bench;
  WallClockOptions wc = take_wall_clock_args(argc, argv);
  std::string metrics = take_metrics_json_arg(argc, argv);
  bool telemetry = !metrics.empty();
  auto runner = [telemetry, &wc](const SystemConfig& sys,
                                 std::uint32_t nodes) {
    return run_stencil(sys, nodes, 5, telemetry, wall_clock_profiling(wc));
  };
  if (wc.enabled)
    return run_wall_clock("fig15_stencil_weak", "stencil", wc, runner);
  FigureSpec spec{"Figure 15", "Stencil weak scaling", "points/s", true};
  run_figure(spec, runner, metrics, "fig15_stencil_weak");
  return 0;
}
