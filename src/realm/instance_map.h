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
// Validity is one sorted table of point ranges, each mapped to the set of
// nodes holding them, and pending reductions are indexed by where their
// bounds lie, so an operation visits only the ranges and buffers its
// domain overlaps, never every node.  This is the ownership lookup of
// distributed forests of octrees: owners are found by searching a range
// partition, not by asking every process, and a domain's intervals are
// looked up as one sorted batch.  The table is chunked into small sorted
// leaves with each leaf's first point in one flat array; a domain's first
// interval searches that array, and each later interval walks forward
// from where the previous one ended, skipping whole leaves by their first
// point.  Each fetched range gains the reader as a holder; the interned
// holder sets remember every such transition (set, node) -> set, so a
// repeat, the common case, costs one hash lookup.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
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
  /// Point ranges in the validity table (for tests; linear in the number
  /// of leaves).  Equal neighbours always merge, so this is the number of
  /// maximal ranges with one holder set.
  std::size_t run_count() const;

private:
  /// Holder sets are interned: a range stores a 32-bit id, and equal sets
  /// share one id, so neighbouring ranges compare by id when they merge.
  using SetId = std::uint32_t;
  static constexpr SetId kAllNodes = 0;

  /// The interned sets, plus a table of the transitions already taken:
  /// `with(s, n)` and `sole(n)` answer a repeat from it without building
  /// a member vector or searching the interned sets.  A transition names
  /// ids, so the table lives exactly as long as the numbering it uses:
  /// compaction interns the sets still in use into a fresh HolderSets.
  class HolderSets {
  public:
    explicit HolderSets(std::uint32_t nodes);
    bool contains(SetId s, NodeID n) const;
    /// Lowest-numbered member; `s` is not kAllNodes.
    NodeID lowest(SetId s) const { return members_[s].front(); }
    /// {n}.
    SetId sole(NodeID n) { return add(kNoSet, n); }
    /// s ∪ {n}.
    SetId with(SetId s, NodeID n) { return add(s, n); }
    std::size_t size() const { return members_.size(); }
    SetId intern(std::vector<NodeID> members);
    const std::vector<NodeID>& members(SetId s) const { return members_[s]; }

  private:
    /// Stands for the empty set in a transition's key; never a range's.
    static constexpr SetId kNoSet = std::numeric_limits<SetId>::max();
    /// The set `s` (kNoSet: none) plus `n`, from the table or interned
    /// and recorded there.
    SetId add(SetId s, NodeID n);

    std::uint32_t nodes_;
    std::vector<std::vector<NodeID>> members_; ///< sorted; [kAllNodes] empty
    std::map<std::vector<NodeID>, SetId> ids_;
    /// (s << 32 | n) -> the id of s ∪ {n}.
    std::unordered_map<std::uint64_t, SetId> added_;
  };

  /// A maximal range [lo, hi] with one holder set; ranges never overlap
  /// and equal neighbours are merged.  Points in no range are valid nowhere.
  struct Run {
    coord_t lo;
    coord_t hi;
    SetId holders;
  };

  /// The runs in point order, chunked into sorted leaves of at most
  /// kLeafRuns runs, with each leaf's first point in one flat array.  A
  /// full leaf splits in halves on insert and an empty one is dropped; no
  /// leaf is ever empty.  A run's `lo` never changes once inserted (splits
  /// insert runs, merges extend `hi` and erase the later run), so the flat
  /// array changes only when a leaf's first run is inserted or erased and
  /// when a leaf splits or goes.  Every insert and erase may move the runs
  /// behind it, so a position is valid only until the next one.
  class RunTable {
  public:
    /// (leaf, index of the run in it); the end is (leaf count, 0).
    struct Pos {
      std::size_t leaf = 0;
      std::size_t idx = 0;
    };
    static constexpr std::size_t kLeafRuns = 32;

    Run& operator[](Pos p) { return leaves_[p.leaf][p.idx]; }
    const Run& operator[](Pos p) const { return leaves_[p.leaf][p.idx]; }
    bool is_end(Pos p) const { return p.leaf == leaves_.size(); }
    Pos next(Pos p) const {
      return p.idx + 1 < leaves_[p.leaf].size() ? Pos{p.leaf, p.idx + 1}
                                                : Pos{p.leaf + 1, 0};
    }
    /// `p` is not the first run.
    Pos prev(Pos p) const {
      return p.idx > 0 ? Pos{p.leaf, p.idx - 1}
                       : Pos{p.leaf - 1, leaves_[p.leaf - 1].size() - 1};
    }
    /// First run at or after `from` that ends at or after `point`; every
    /// run before `from` must end before `point`.  Within from's leaf this
    /// bisects; beyond it, it gallops over the leaves' first points and
    /// bisects only the leaf it lands in.
    Pos seek(coord_t point, Pos from) const;
    /// Insert `run` just before `before` (which may be the end); returns
    /// its position.
    Pos insert(Pos before, const Run& run);
    void erase(Pos p);
    const std::vector<std::vector<Run>>& leaves() const { return leaves_; }
    std::vector<std::vector<Run>>& leaves() { return leaves_; }

  private:
    /// A leaf splits before it outgrows kLeafRuns, a power of two, so
    /// no leaf's capacity exceeds kLeafRuns.
    std::vector<std::vector<Run>> leaves_;
    std::vector<coord_t> firsts_; ///< leaves_[k].front().lo
  };
  using Pos = RunTable::Pos;

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

  /// Give [lo, hi], which lies inside the run at `at`, the holders `s`;
  /// returns the run that covers [lo, hi] after merging equal neighbours.
  Pos assign(Pos at, coord_t lo, coord_t hi, SetId s);
  /// Merge the run at `at` with neighbours holding the same set; returns
  /// the run that now covers it.
  Pos merge(Pos at);
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
  RunTable runs_;
  /// plan_read's scratch: the (source, run) fetches in point order, their
  /// distinct sources, and a per-node count that is zero between calls.
  std::vector<std::pair<NodeID, Interval>> fetch_;
  std::vector<NodeID> sources_;
  std::vector<std::uint32_t> per_source_;
  std::map<std::uint64_t, Pending> pending_; ///< by creation order
  std::array<PendingIndex, 64> by_span_;
  std::uint64_t levels_ = 0; ///< bit L set when by_span_[L] is not empty
  std::uint64_t next_pending_ = 0;
  std::size_t compact_at_;
};

} // namespace visrt
