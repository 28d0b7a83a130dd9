// Figure 13: Circuit initialization time (init time).
#include "app_benches.h"

int main(int argc, char** argv) {
  using namespace visrt::bench;
  return figure_main(
      argc, argv, "fig13_circuit_init",
      {"Figure 13", "Circuit initialization time", "wires/s", false},
      run_circuit);
}
