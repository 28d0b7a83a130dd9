// visrt/common/order_maintenance.h
//
// O(1) precedence queries over a dynamically growing dependence DAG — the
// order-maintenance structure DePa-style ("Simple, Provably Efficient, and
// Practical Order Maintenance for Task Parallelism", PAPERS.md) that
// replaces the spy verifier's old O(n²)-memory transitive closure.
//
// Nodes are appended in program order (which is a topological order: every
// dependence edge points backwards in id space).  Each node is assigned to
// a *chain* — a path of the DAG — greedily: a node extends the chain of a
// predecessor that is currently that chain's tail, else it opens a new
// chain.  A node's *label* is a compact tag, one entry per chain that
// existed when the node was appended:
//
//   label[c] = highest position in chain c that precedes this node
//              (kNoPos when no member of chain c does)
//
// so `precedes(a, b)` is a single comparison: a (at position p of chain c)
// precedes b iff c is b's own chain and p < pos(b), or label_b[c] >= p.
// Chains opened after b was appended simply fall off the end of b's label
// — no relabeling is ever needed for chain growth.
//
// Labels are finalized lazily: a node's tag is computed from its
// predecessors' tags (one max-merge per edge) when the next node arrives
// or the first query lands.  Under the runtime's one-add_edges-per-launch
// discipline that makes every append O(indegree * width) and relabeling
// never happens; an edge added to an *older* node forces a suffix relabel
// of everything after it, counted in OrderStats::relabels (the verify
// metrics surface it, so a front end that breaks the discipline is
// visible).
//
// For unbounded streams the structure retires like the DepGraph it
// shadows: `retire_prefix` drops the tags of launches below the watermark
// and compacts away chains with no resident member, so memory is
// O(resident * width), not O(stream).  `remap_ids` additionally renumbers
// the surviving nodes (the op-id compaction WorkGraph::retire_ready_before
// performs), keeping positions — and therefore every surviving tag —
// intact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace visrt {

/// Counters of one OrderMaintenance instance.  `relabels` is the headline
/// health metric: nonzero means edges arrived out of append order and the
/// amortized-O(1) guarantee degraded to suffix recomputation.
struct OrderStats {
  std::uint64_t nodes = 0;           ///< nodes ever appended
  std::uint64_t edges = 0;           ///< edges ever ingested
  std::uint64_t chains = 0;          ///< chains ever opened
  std::uint64_t relabels = 0;        ///< suffix-relabel events (late edges)
  std::uint64_t relabeled_nodes = 0; ///< nodes recomputed by those events
  std::size_t active_chains = 0;     ///< chains a resident query can name
  std::size_t label_entries = 0;     ///< resident tag memory, in entries
  std::size_t max_width = 0;         ///< widest tag ever assigned
};

class OrderMaintenance {
public:
  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  /// Append node `id`.  Ids are contiguous: the first call fixes the
  /// origin, every later call must pass end().
  void add_node(std::uint64_t id);

  /// Ingest the edge from -> to.  `from < to`, both resident.  Edges to
  /// the newest node are O(width); edges to older nodes relabel the
  /// suffix (see OrderStats::relabels).
  void add_edge(std::uint64_t from, std::uint64_t to);

  /// Is `a` ordered before `b` through some path?  O(1).  Both resident;
  /// precedes(x, x) is false.
  bool precedes(std::uint64_t a, std::uint64_t b) const;

  /// Drop the tags of nodes below `new_base` (the caller guarantees no
  /// future edge or query names them) and compact dead chains.
  void retire_prefix(std::uint64_t new_base);

  /// Retire-and-renumber: entry i of `old_to_new` maps resident id
  /// base()+i either to its new id (strictly increasing, contiguous) or to
  /// `retired_marker`.  Mirrors WorkGraph::retire_ready_before's op-id
  /// compaction.
  void remap_ids(std::span<const std::uint64_t> old_to_new,
                 std::uint64_t retired_marker);

  /// First resident id.
  std::uint64_t base() const { return base_; }
  /// One past the last appended id.
  std::uint64_t end() const { return base_ + nodes_.size(); }
  /// Is `id` resident (appended and not retired)?
  bool contains(std::uint64_t id) const { return id >= base_ && id < end(); }

  /// Counters; finalizes the pending tag so label_entries is exact.
  const OrderStats& stats() const;

private:
  static constexpr std::uint32_t kNoChain = 0xffffffffu;
  static constexpr std::uint64_t kNoTail = ~std::uint64_t{0};

  struct Node {
    std::uint32_t chain = kNoChain;
    std::uint32_t pos = 0;
    /// label[c]: highest position of chain c preceding this node, kNoPos
    /// none.  Truncated: chains opened later have no entry.
    std::vector<std::uint32_t> label;
    /// Resident direct predecessors, kept for suffix relabels; pruned at
    /// retirement (safe: a retired pred's tag only names retired
    /// positions, which no resident query can reference).
    std::vector<std::uint64_t> preds;
  };

  struct Chain {
    std::uint64_t tail_id = kNoTail; ///< extension point; kNoTail = sealed
    std::uint32_t length = 0;        ///< next position (never reused)
  };

  Node& node(std::uint64_t id) { return nodes_[id - base_]; }
  const Node& node(std::uint64_t id) const { return nodes_[id - base_]; }

  /// Assign the pending node's chain and compute its tag.
  void finalize() const;
  /// Recompute `n`'s tag from its predecessors (chain unchanged).
  void compute_label(Node& n) const;
  /// Drop chains no resident node belongs to, remapping tag indices.
  void compact_chains();

  mutable std::vector<Node> nodes_; // indexed by id - base_
  mutable std::vector<Chain> chains_;
  std::uint64_t base_ = 0;
  mutable bool pending_ = false; ///< newest node's tag not yet computed
  mutable OrderStats stats_;
};

} // namespace visrt
