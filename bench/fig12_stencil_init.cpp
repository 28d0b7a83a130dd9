// Figure 12: Stencil initialization time (init time).
#include "app_benches.h"

int main(int argc, char** argv) {
  using namespace visrt::bench;
  return figure_main(
      argc, argv, "fig12_stencil_init",
      {"Figure 12", "Stencil initialization time", "points/s", false},
      run_stencil);
}
