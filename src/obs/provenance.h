// visrt/obs/provenance.h
//
// Per-dependence-edge provenance: a compact record, captured by the engine
// at edge-emission time, of *why* an edge exists — which engine and
// algorithm phase produced it, through which region-tree node and
// equivalence set (or composite view), on which field, and under which
// privilege pair.  Storage lives in the DepGraph (keyed by edge); this
// header only defines the record, so it sits below the engines the same
// way counters.h does.
//
// Provenance is gated at runtime by `RuntimeConfig::provenance` (default
// off), costing one branch per edge batch.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "visibility/privilege.h"

namespace visrt::obs {

/// Always true; perfbench/visbench.cpp prints it in its build record.
inline constexpr bool kProvenanceEnabled = true;

/// The algorithm phase that emitted a dependence edge.  One value per
/// distinct edge-emission site in the engines.
enum class ProvPhase : std::uint8_t {
  HistoryWalk,   ///< direct region-tree history walk (paint, naive engines)
  CompositeView, ///< captured composite-view scan (paint, remote node)
  EqSetVisit,    ///< equivalence-set history visit (warnock, raycast)
};

/// Provenance of one dependence edge `from -> to`; the `to` side is the
/// DepGraph key, so the record stores only the producer.  `engine` holds
/// the numeric `Algorithm` value — filled in by the runtime at install
/// time, since obs sits below visibility/engine.h and cannot name the
/// enum.
struct EdgeProvenance {
  LaunchID from = kInvalidLaunch; ///< producer launch (edge source)
  std::uint8_t engine = 0;        ///< numeric visrt::Algorithm value
  ProvPhase phase = ProvPhase::HistoryWalk;
  RegionTreeID region = UINT32_MAX; ///< consumer requirement's region node
  EqSetID eqset = kNoEqSetID;       ///< set / view the entry was found in
  FieldID field = 0;
  Privilege prev; ///< producer's privilege (the history entry)
  Privilege cur;  ///< consumer's privilege (the requirement)
};

const char* prov_phase_name(ProvPhase phase);

} // namespace visrt::obs
