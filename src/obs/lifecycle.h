// visrt/obs/lifecycle.h
//
// Equivalence-set lifecycle ledger (paper §6–§7 instrumentation): every
// engine reports create / refine / coalesce / migrate events for its
// per-field coherence state — Warnock's refinement-tree splits, ray
// casting's dominating-write coalescing, the painter's composite-view
// captures and replications — stamped on the launch clock with the
// owning node, the refined parent and the resulting live-set count.
//
// Determinism contract: the ledger keeps one event vector per field, in
// record order, and every exporter walks fields in sorted order, so the
// exported JSON and Perfetto tracks are a pure function of the program
// (tests/analysis_golden_test.cpp pins them).
//
// Gated at runtime by `RuntimeConfig::provenance`: engines get a ledger
// pointer only when it is on, so off costs one branch per event site.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace visrt::obs {

enum class LifecycleEventKind : std::uint8_t {
  Create,   ///< a new eq-set / composite view came alive
  Refine,   ///< a set was split (its children arrive as Create events)
  Coalesce, ///< a set died: pruned by a dominating write / occlusion
  Migrate,  ///< a set's metadata was replicated to / adopted by a node
};

const char* lifecycle_event_kind_name(LifecycleEventKind kind);

/// One lifecycle event.  `depth` is derived by the ledger from the parent
/// chain (roots are depth 0); `live_after` is the engine's live-set count
/// for the field immediately after the event.
struct LifecycleEvent {
  LifecycleEventKind kind = LifecycleEventKind::Create;
  LaunchID launch = kInvalidLaunch; ///< launch clock of the event
  FieldID field = 0;
  EqSetID eqset = kNoEqSetID;  ///< subject set / view
  EqSetID parent = kNoEqSetID; ///< refined parent (Refine, split Create)
  NodeID owner = 0;            ///< owning node after the event
  std::uint32_t depth = 0;     ///< refinement depth (ledger-derived)
  std::uint64_t live_after = 0;
};

/// Aggregate over one field (or over all fields).
struct LifecycleSummary {
  std::uint64_t creates = 0;
  std::uint64_t refines = 0;
  std::uint64_t coalesces = 0;
  std::uint64_t migrates = 0;
  std::uint64_t peak_live = 0;
  std::uint32_t max_depth = 0;
};

/// The per-runtime ledger.  Engines hold a pointer (via EngineConfig) and
/// call `record`; a null pointer or a disabled ledger is a no-op.
class LifecycleLedger {
public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Record one event; `depth` of the event is derived from
  /// `parent` (kNoEqSetID parent => depth 0).
  void record(LifecycleEventKind kind, LaunchID launch, FieldID field,
              EqSetID eqset, EqSetID parent, NodeID owner,
              std::uint64_t live_after);

  /// Fields with at least one event, sorted ascending.
  std::vector<FieldID> fields() const;
  /// Events of one field, in record order (deterministic per field).
  std::vector<LifecycleEvent> events(FieldID field) const;
  std::size_t event_count() const;
  LifecycleSummary summary(FieldID field) const;
  LifecycleSummary total() const;

  /// Deterministic JSON: {"summary": {...}, "fields": {"<id>": {summary,
  /// events[]}}}.  Field order is sorted; no timestamps or host state.
  std::string json() const;

private:
  struct PerField {
    std::vector<LifecycleEvent> events;
    std::map<EqSetID, std::uint32_t> depth; ///< eqset -> refinement depth
    std::uint64_t peak_live = 0;
  };

  bool enabled_ = false;
  std::map<FieldID, PerField> fields_;
};

} // namespace visrt::obs
