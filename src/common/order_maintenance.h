// visrt/common/order_maintenance.h
//
// O(1) precedence queries over a growing dependence DAG: the
// order-maintenance labels of DePa ("Simple, Provably Efficient, and
// Practical Order Maintenance for Task Parallelism", PAPERS.md), which
// replace the spy verifier's old O(n²)-memory transitive closure.
//
// Nodes are appended in program order, each with all of its direct
// predecessors, so append order is a topological order.  Each node joins a
// *chain*, a path of the DAG: it extends the chain of the first
// predecessor, in the order given, that is its chain's tail, else it opens
// a new chain.  Its *label* has one entry per chain that existed when it
// was appended:
//
//   label[c] = 1 + the highest position of chain c that precedes the node
//              (0 when no member of chain c does)
//
// It is the entrywise max of the predecessors' labels and of each
// predecessor's own 1 + position, computed once, when the node is
// appended; retirement only drops dead chains' entries.  A node that
// extends a chain holds its own position in that chain's entry, so
// `precedes(a, b)` is one comparison: a, at position p of chain c,
// precedes b iff label_b[c] > p.  Chains opened after b was appended fall
// off the end of b's label.
//
// Every label lives in one flat table, run after run in node order, with
// one start offset per node: the layout of DepGraph's predecessor table.
// For unbounded streams `retire_prefix` drops the labels below a watermark
// and the chains left with no resident member (a chain lives while its
// tail does: every other member is older), so memory is
// O(resident * live chains), not O(stream).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace visrt {

class OrderMaintenance {
public:
  /// No nodes yet; the first add_node appends node `base`.
  explicit OrderMaintenance(std::uint64_t base = 0) : base_(base) {}

  /// Append node end() with its direct predecessors, each resident and
  /// appended earlier; computes the node's chain and label.  O(|preds| *
  /// label width).
  void add_node(std::span<const std::uint64_t> preds);

  /// Is `a` ordered before `b` through some path?  O(1).  Both resident
  /// when a < b; precedes(x, x) is false.
  bool precedes(std::uint64_t a, std::uint64_t b) const;

  /// Drop the nodes below `new_base` (the caller guarantees no later
  /// add_node or query names them) and the chains with no resident member.
  void retire_prefix(std::uint64_t new_base);

  /// First resident id.
  std::uint64_t base() const { return base_; }
  /// One past the last appended id.
  std::uint64_t end() const { return base_ + nodes_.size(); }
  /// Chains with a resident member.
  std::size_t chains() const { return tails_.size(); }

private:
  struct Node {
    std::uint32_t chain;
    std::uint32_t pos; ///< position in the chain
    std::size_t start; ///< where the label starts in labels_
  };

  /// The label of resident slot `slot` (= id - base_): it ends where the
  /// next node's starts, or at labels_.end() for the newest.
  std::span<const std::uint32_t> label(std::size_t slot) const;

  std::vector<Node> nodes_;           ///< per resident node, in id order
  std::vector<std::uint32_t> labels_; ///< every resident label, in id order
  std::vector<std::uint64_t> tails_;  ///< per chain: its newest member
  std::uint64_t base_;
};

} // namespace visrt
