// Figure 15: Stencil weak scaling (weak scaling).
#include "app_benches.h"

int main(int argc, char** argv) {
  using namespace visrt::bench;
  return figure_main(argc, argv, "fig15_stencil_weak",
                     {"Figure 15", "Stencil weak scaling", "points/s", true},
                     run_stencil);
}
