// Figure 17: Pennant weak scaling (weak scaling).
#include "app_benches.h"

int main(int argc, char** argv) {
  using namespace visrt::bench;
  return figure_main(argc, argv, "fig17_pennant_weak",
                     {"Figure 17", "Pennant weak scaling", "zones/s", true},
                     run_pennant);
}
