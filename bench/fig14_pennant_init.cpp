// Figure 14: Pennant initialization time (init time).
#include "app_benches.h"

int main(int argc, char** argv) {
  using namespace visrt::bench;
  return figure_main(
      argc, argv, "fig14_pennant_init",
      {"Figure 14", "Pennant initialization time", "zones/s", false},
      run_pennant);
}
