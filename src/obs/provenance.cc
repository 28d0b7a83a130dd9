#include "obs/provenance.h"

namespace visrt::obs {

const char* prov_phase_name(ProvPhase phase) {
  switch (phase) {
  case ProvPhase::HistoryWalk: return "history-walk";
  case ProvPhase::CompositeView: return "composite-view";
  case ProvPhase::EqSetVisit: return "eqset-visit";
  }
  return "?";
}

} // namespace visrt::obs
