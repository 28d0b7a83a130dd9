// visrt/visibility/history.h
//
// The history entry type shared by all coherence engines: one committed
// operation <privilege, region> of the paper's state S, tagged with the
// launch that performed it (the launch id is the paper's global clock).
// `paint_entry` is the body of the paint() loop of Figure 7.
#pragma once

#include <optional>

#include "common/types.h"
#include "geom/interval_set.h"
#include "realm/reduction_ops.h"
#include "region/region_data.h"
#include "visibility/engine.h"
#include "visibility/privilege.h"

namespace visrt {

/// One committed operation.  `values` is present for read-write and reduce
/// entries when value tracking is on (reads never change data, so their
/// entries carry no values).
///
/// `collapsed` marks an entry whose value payload was folded into a
/// set-level composite view (bounded-memory streaming, see
/// EngineConfig::max_history_depth): the dependence skeleton
/// (task/priv/dom) stays — dependences and the retirement watermark are
/// unchanged — and painting charges the entry's modeled cost without
/// repainting it, so analysis results and counters are bit-identical to
/// the uncollapsed history.
struct HistEntry {
  LaunchID task = kInvalidLaunch;
  Privilege priv;
  IntervalSet dom;
  std::optional<RegionData<double>> values;
  NodeID owner = 0; ///< node that performed the operation
  bool collapsed = false;
};

/// Apply one history entry to `target` (restricted to target's domain):
///   read-write: target := (target (+) entry)/target
///   reduce_f:   target := target (+) f(entry/target, target/entry)
///   read:       no-op
inline void paint_entry(RegionData<double>& target, const HistEntry& e,
                        AnalysisCounters& c) {
  if (e.collapsed) {
    // The entry's values already live in the set's composite view, which
    // the caller painted first.  Charge exactly what painting the entry
    // would have cost so the modeled work is independent of collapsing.
    if (e.priv.kind != PrivilegeKind::Read)
      c.interval_ops += e.dom.interval_count();
    return;
  }
  switch (e.priv.kind) {
  case PrivilegeKind::ReadWrite:
    target.overwrite_from(*e.values);
    c.interval_ops += e.dom.interval_count();
    break;
  case PrivilegeKind::Reduce: {
    const ReductionOp& op = reduction_op(e.priv.redop);
    target.fold_from(op.fold, *e.values);
    c.interval_ops += e.dom.interval_count();
    break;
  }
  case PrivilegeKind::Read:
    break;
  }
}

/// Does a prior entry induce a dependence for a new access <priv, dom>?
inline bool entry_depends(const HistEntry& e, const IntervalSet& dom,
                          const Privilege& priv, AnalysisCounters& c) {
  ++c.history_entries;
  return interferes(e.priv, priv) && e.dom.overlaps(dom);
}

/// Insert a dependence, keeping the list sorted and unique; initialization
/// entries (kInvalidLaunch) are skipped.
inline void add_dependence(std::vector<LaunchID>& deps, LaunchID task) {
  if (task == kInvalidLaunch) return;
  auto it = std::lower_bound(deps.begin(), deps.end(), task);
  if (it == deps.end() || *it != task) deps.insert(it, task);
}

} // namespace visrt
