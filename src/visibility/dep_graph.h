// visrt/visibility/dep_graph.h
//
// The dependence DAG produced by an analysis run: nodes are launches, edges
// point from a prior task to a later task that must observe its effects.
// Used by the runtime to order task executions in the work graph, and by
// the tests to check soundness (every interfering pair is transitively
// ordered) and precision (non-interfering pairs are not directly ordered).
//
// Launches arrive in id order (the paper's global clock, §3.1) and each
// one's predecessors arrive right after it, so the graph is one flat table:
// the predecessor ids of every resident launch, run after run in launch
// order, and one start offset per launch.  Nothing is allocated per launch.
//
// For unbounded streams the graph supports *prefix retirement*: once the
// engine proves no future edge can target launches below a watermark
// (Runtime::retire), `retire_prefix` drops their predecessor runs.
// Launch ids stay stable, aggregate counts (task_count, edge_count,
// critical_path) remain whole-stream totals, and `stream_hash` folds every
// task and edge as it arrives — so the hash of a retired run is
// bit-identical to the batch run's by construction.
//
// Transitive order (`reaches`) is a backward walk.  Consumers that ask
// many order queries — the spy verifier — build their own order labels
// from the edge stream (common/order_maintenance.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "obs/provenance.h"

namespace visrt {

class RegionTreeForest;

class DepGraph {
public:
  /// Register a launch (ids must be registered in increasing order).
  void add_task(LaunchID id);

  /// Add edges from each of `froms` to `to`, which must be the newest
  /// launch; duplicates are ignored.
  void add_edges(LaunchID to, std::span<const LaunchID> froms);

  /// Total launches ever registered; resident ids are [base(), task_count()).
  std::size_t task_count() const { return base_ + starts_.size(); }
  std::size_t edge_count() const { return edges_; }
  /// First resident launch (0 until the first retire_prefix call).
  LaunchID base() const { return base_; }

  /// Drop predecessor runs (and edge provenance) of launches below
  /// `new_base`.  The caller must guarantee no future add_edges call will
  /// name a retired launch as a source.
  void retire_prefix(LaunchID new_base);

  /// Direct predecessors of a resident launch, sorted.  Retired launches'
  /// runs are gone; predecessors of resident launches may still name
  /// retired ids (edges into the retired prefix are kept on the resident
  /// side).  The span lives until the next add_edges or retire_prefix.
  std::span<const LaunchID> preds(LaunchID id) const;

  /// Is there a direct edge from -> to?  `to` must be resident.
  bool has_edge(LaunchID from, LaunchID to) const;

  /// Is `from` ordered before `to` through any path?  Both must be
  /// resident (every intermediate node of such a path then is too).
  /// Backward DFS from `to`.
  bool reaches(LaunchID from, LaunchID to) const;

  /// Length (in tasks) of the longest chain — the analysis' view of the
  /// critical path; a measure of how much parallelism was discovered.
  /// Maintained incrementally, so it covers the whole stream even after
  /// retirement.
  std::size_t critical_path() const { return best_depth_; }

  /// Rolling FNV-1a fold of the stream: each add_task folds its id term,
  /// each add_edges folds the task's final sorted predecessor list.  With
  /// the runtime's one-add_edges-per-launch discipline this equals the
  /// batch fold over (id, sorted preds) pairs in id order, independent of
  /// retirement.
  std::uint64_t stream_hash() const { return stream_hash_; }

  /// Attach provenance to the edge from -> to.  First record wins (an edge
  /// may be emitted several times through different sets); the edge itself
  /// need not be registered yet — add_edges happens after the merge.
  void set_provenance(LaunchID from, LaunchID to,
                      const obs::EdgeProvenance& prov);
  /// Provenance of the edge from -> to, or nullptr if none was recorded.
  const obs::EdgeProvenance* provenance(LaunchID from, LaunchID to) const;
  std::size_t provenance_count() const { return prov_.size(); }

private:
  /// Predecessors of resident slot `slot` (= LaunchID - base_).
  std::span<const LaunchID> run(std::size_t slot) const;

  /// Every resident launch's sorted predecessor run, in launch order.
  std::vector<LaunchID> preds_;
  /// Per resident launch: where its run starts in preds_ (it ends where
  /// the next launch's starts, or at preds_.end() for the newest).
  std::vector<std::size_t> starts_;
  std::vector<std::size_t> depth_; // longest chain ending at each launch
  LaunchID base_ = 0;
  std::size_t edges_ = 0;
  std::size_t best_depth_ = 0;
  std::uint64_t stream_hash_ = kFnvOffsetBasis;
  std::map<std::pair<LaunchID, LaunchID>, obs::EdgeProvenance> prov_;
};

/// One-line human rendering of an edge's provenance, resolving the region
/// index against the forest: "warnock eqset-visit via eqset 3 on
/// field 1 @ nodes[1] (read-write -> read)".  The engine name comes from
/// the stamped Algorithm value.
std::string describe_provenance(const obs::EdgeProvenance& prov,
                                const RegionTreeForest& forest);

} // namespace visrt
