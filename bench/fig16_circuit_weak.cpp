// Figure 16: Circuit weak scaling (weak scaling).
#include "app_benches.h"

int main(int argc, char** argv) {
  using namespace visrt::bench;
  return figure_main(argc, argv, "fig16_circuit_weak",
                     {"Figure 16", "Circuit weak scaling", "wires/s", true},
                     run_circuit);
}
