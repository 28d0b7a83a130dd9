// visrt/realm/instance_map.h
//
// Tracks, for one field, which nodes of the machine hold valid physical
// copies of which points, plus outstanding (lazily applied) reduction
// buffers.  The runtime consults it when a task is mapped to a node to plan
// the copies and reduction applications that realize the coherence the
// analysis proved necessary — the "implicit communication" of Section 2.
//
// This plays the role of Realm's instance/copy engine in the paper's stack:
// the visibility algorithms decide *what* must be coherent; the instance
// map decides *which bytes move between which nodes* to achieve it.
//
// Validity is one ordered interval map from point ranges to the set of
// nodes holding them, and pending reductions are indexed by where their
// bounds lie, so an operation visits only the ranges and buffers its
// domain overlaps, never every node.  This is the ownership lookup of
// distributed forests of octrees: owners are found by searching a range
// partition, not by asking every process.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/types.h"
#include "geom/interval_set.h"

namespace visrt {

/// One planned transfer: move `points` worth of the field from src to dst.
/// kind distinguishes plain copies from reduction-buffer applications.
struct CopyPlan {
  enum class Kind : std::uint8_t { Copy, ApplyReduction };
  Kind kind = Kind::Copy;
  NodeID src = 0;
  NodeID dst = 0;
  IntervalSet points;
  ReductionOpID redop = kNoReduction; ///< ApplyReduction only
};

class InstanceMap {
public:
  /// `nodes` machine nodes.  The initial contents (a fill) are considered
  /// valid everywhere — fills are deferred and instantiated per instance
  /// without bulk copies, as in Realm; `home` is kept for bookkeeping.
  InstanceMap(std::uint32_t nodes, NodeID home, IntervalSet domain);

  /// Plan the data movement needed before a task on `dst` can read
  /// `domain`: copies of points not valid at dst, each from its
  /// lowest-numbered holder and grouped by ascending source, then
  /// application of any pending reduction buffers overlapping the domain,
  /// in creation order.  Updates validity: after the plan executes, dst
  /// holds a valid copy of all of `domain`; points whose value changed by
  /// reduction application are valid *only* at dst.
  std::vector<CopyPlan> plan_read(NodeID dst, const IntervalSet& domain);

  /// Record that a task wrote `domain` at `node`: node becomes the sole
  /// valid holder of those points, and overlapping pending reductions are
  /// dropped (they are occluded by the write in any later materialization
  /// the analysis would have already ordered before it).
  void record_write(NodeID node, const IntervalSet& domain);

  /// Record a lazily-buffered reduction produced at `node` over `domain`.
  void record_reduction(NodeID node, const IntervalSet& domain,
                        ReductionOpID redop);

  /// Points currently valid at a node, computed from the map (for tests /
  /// stats; linear in the number of ranges).
  IntervalSet valid_at(NodeID node) const;
  /// Buffers with points still pending.
  std::size_t pending_reductions() const { return pending_.size(); }

private:
  /// Holder sets are interned: a range stores a 32-bit id, and equal sets
  /// share one id, so neighbouring ranges compare by id when they merge.
  using SetId = std::uint32_t;
  static constexpr SetId kAllNodes = 0;

  class HolderSets {
  public:
    explicit HolderSets(std::uint32_t nodes);
    bool contains(SetId s, NodeID n) const;
    /// Lowest-numbered member; `s` is not kAllNodes.
    NodeID lowest(SetId s) const { return members_[s].front(); }
    SetId sole(NodeID n);
    /// s ∪ {n}.
    SetId with(SetId s, NodeID n);
    std::size_t size() const { return members_.size(); }
    SetId intern(std::vector<NodeID> members);
    const std::vector<NodeID>& members(SetId s) const { return members_[s]; }

  private:
    std::uint32_t nodes_;
    std::vector<std::vector<NodeID>> members_; ///< sorted; [kAllNodes] empty
    std::map<std::vector<NodeID>, SetId> ids_;
  };

  /// A maximal range [first, hi] with one holder set; ranges never overlap
  /// and equal neighbours are merged.  Points in no range are valid nowhere.
  struct Run {
    coord_t hi;
    SetId holders;
  };
  using Runs = std::map<coord_t, Run>;

  /// A buffer's points still pending.  Buffers are indexed by the span of
  /// their bounds: level L holds those spanning at most 2^L points, keyed by
  /// first point, so a domain finds the buffers that may overlap it by
  /// scanning each level from (domain start - 2^L) to the domain's end.
  /// geom/interval_tree.h would serve too, but its splits are fixed by the
  /// first item each tree node receives and never rebalance: on Circuit at
  /// 256 nodes (RayCast, DCR) a query there visited 66 tree nodes on
  /// average to find 5 candidates among 258 live buffers, and perfbench's
  /// circuit_raycast_dcr `stmt_p50_us` rose 17% (4-core Xeon host).
  /// Rebalancing that tree would change RayCast's traversal counts, which
  /// the simulator charges for.
  struct Pending {
    NodeID node;
    ReductionOpID redop;
    IntervalSet domain;
    Interval bounds; ///< as indexed
  };
  using PendingIndex = std::set<std::pair<coord_t, std::uint64_t>>;

  /// First run ending at or after `pos`.
  Runs::iterator seek(coord_t pos);
  /// Give [lo, hi], which lies inside `it`, the holders `s`; returns the
  /// run that covers [lo, hi] after merging equal neighbours.
  Runs::iterator assign(Runs::iterator it, coord_t lo, coord_t hi, SetId s);
  /// Merge `it` with neighbours holding the same set; returns the run that
  /// now covers it.
  Runs::iterator merge(Runs::iterator it);
  /// Make `node` the sole holder of every point of `domain`.
  void set_sole(NodeID node, const std::vector<Interval>& domain,
                bool fill_gaps);
  /// Ids of the buffers whose bounds overlap those of `domain`, in
  /// creation order.
  std::vector<std::uint64_t>
  overlapping_pending(const IntervalSet& domain) const;
  void erase_pending(std::map<std::uint64_t, Pending>::iterator it);
  /// Drop interned holder sets no run uses once the table has doubled.
  void compact_sets();

  std::uint32_t nodes_;
  HolderSets sets_;
  Runs runs_;
  std::map<std::uint64_t, Pending> pending_; ///< by creation order
  std::array<PendingIndex, 64> by_span_;
  std::uint64_t levels_ = 0; ///< bit L set when by_span_[L] is not empty
  std::uint64_t next_pending_ = 0;
  std::size_t compact_at_;
};

} // namespace visrt
