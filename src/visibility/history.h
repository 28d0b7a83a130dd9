// visrt/visibility/history.h
//
// The history entry types shared by all coherence engines: one committed
// operation <privilege, region> of the paper's state S, tagged with the
// launch that performed it (the launch id is the paper's global clock).
// `paint_entry` is the body of the paint() loop of Figure 7.
//
// An equivalence set is a (domain, history) pair in which every operation
// covers the whole set (Figure 9), so its entries (HistEntry) carry no
// domain: the set's is theirs.  The painters' histories hold operations on
// different regions, so their entries (PaintEntry) keep one each.
#pragma once

#include <optional>

#include "common/types.h"
#include "geom/interval_set.h"
#include "realm/reduction_ops.h"
#include "region/region_data.h"
#include "visibility/engine.h"
#include "visibility/privilege.h"

namespace visrt {

/// One committed operation on a whole equivalence set.  `values` is
/// present for read-write and reduce entries when value tracking is on
/// (reads never change data, so their entries carry no values).
///
/// `collapsed` marks an entry whose value payload was folded into a
/// set-level composite view (bounded-memory streaming, see
/// EngineConfig::max_history_depth): the dependence skeleton (task/priv)
/// stays — dependences and the retirement watermark are unchanged — and
/// painting charges the entry's modeled cost without repainting it, so
/// analysis results and counters are bit-identical to the uncollapsed
/// history.
struct HistEntry {
  LaunchID task = kInvalidLaunch;
  Privilege priv;
  std::optional<RegionData<double>> values;
  NodeID owner = 0; ///< node that performed the operation
  bool collapsed = false;
};

/// One committed operation of a painter's history, on its own region.
struct PaintEntry : HistEntry {
  IntervalSet dom;
};

/// Apply one history entry, an operation on `dom`, to `target` (restricted
/// to target's domain):
///   read-write: target := (target (+) entry)/target
///   reduce_f:   target := target (+) f(entry/target, target/entry)
///   read:       no-op
inline void paint_entry(RegionData<double>& target, const HistEntry& e,
                        const IntervalSet& dom, AnalysisCounters& c) {
  if (e.collapsed) {
    // The entry's values already live in the set's composite view, which
    // the caller painted first.  Charge exactly what painting the entry
    // would have cost so the modeled work is independent of collapsing.
    if (e.priv.kind != PrivilegeKind::Read)
      c.interval_ops += dom.interval_count();
    return;
  }
  switch (e.priv.kind) {
  case PrivilegeKind::ReadWrite:
    target.overwrite_from(*e.values);
    c.interval_ops += dom.interval_count();
    break;
  case PrivilegeKind::Reduce: {
    const ReductionOp& op = reduction_op(e.priv.redop);
    target.fold_from(op.fold, *e.values);
    c.interval_ops += dom.interval_count();
    break;
  }
  case PrivilegeKind::Read:
    break;
  }
}

inline void paint_entry(RegionData<double>& target, const PaintEntry& e,
                        AnalysisCounters& c) {
  paint_entry(target, e, e.dom, c);
}

/// Does an entry of a set that a new access visits induce a dependence for
/// it?  The entry covers the set, which lies inside the access's domain, so
/// only the privileges decide.
inline bool entry_depends(const HistEntry& e, const Privilege& priv,
                          AnalysisCounters& c) {
  ++c.history_entries;
  return interferes(e.priv, priv);
}

/// Does a painter's entry induce a dependence for a new access <priv, dom>?
inline bool entry_depends(const PaintEntry& e, const IntervalSet& dom,
                          const Privilege& priv, AnalysisCounters& c) {
  return entry_depends(static_cast<const HistEntry&>(e), priv, c) &&
         e.dom.overlaps(dom);
}

/// The entry as inherited by the part `dom` of its refined set.
inline HistEntry restrict_entry(const HistEntry& e, const IntervalSet& dom) {
  HistEntry r{e.task, e.priv, std::nullopt, e.owner, e.collapsed};
  if (e.values.has_value()) r.values = e.values->restricted(dom);
  return r;
}

/// Insert a dependence, keeping the list sorted and unique; initialization
/// entries (kInvalidLaunch) are skipped.
inline void add_dependence(std::vector<LaunchID>& deps, LaunchID task) {
  if (task == kInvalidLaunch) return;
  auto it = std::lower_bound(deps.begin(), deps.end(), task);
  if (it == deps.end() || *it != task) deps.insert(it, task);
}

} // namespace visrt
