// visrt/visibility/paint.h
//
// The optimized painter's algorithm (paper Section 5.1).  Histories are
// stored in the region tree so that the history relevant to a region R is
// the concatenation of the histories on the path from the root to R.  When
// a new access would make entries recorded in a sibling subtree precede it
// in the path history, that subtree is snapshotted into an immutable
// *composite view* appended to the common ancestor's history, and the
// subtree is cleared.
//
// Optimizations implemented, as described in the paper:
//   - open/closed subtree state (entry counts) to skip empty subtrees;
//   - conservative privilege summaries to skip non-interfering subtrees;
//   - occlusion pruning: a newly appended composite view whose write set
//     covers an earlier history entry deletes that entry;
//   - composite views are immutable and replicated across nodes on demand
//     (the first traversal by a node fetches the view; later ones are
//     local).
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "visibility/engine.h"
#include "visibility/history.h"

namespace visrt {

class PaintEngine final : public CoherenceEngine {
public:
  explicit PaintEngine(const EngineConfig& config) : config_(config) {}

  void initialize_field(RegionHandle root, FieldID field,
                        RegionData<double> initial, NodeID home) override;
  MaterializeResult materialize(const Requirement& req,
                                const AnalysisContext& ctx) override;
  std::vector<AnalysisStep> commit(const Requirement& req,
                                   const RegionData<double>& result,
                                   const AnalysisContext& ctx) override;
  EngineStats stats() const override;

private:
  /// Immutable snapshot of a subtree's histories, flattened in time order
  /// (launch ids are the global clock, so sorting by task id reproduces
  /// sequential order exactly).
  struct CompositeView {
    std::vector<PaintEntry> entries;
    IntervalSet write_set; ///< union of read-write entry domains
    IntervalSet full_dom;  ///< union of all entry domains
    NodeID owner = 0;      ///< node that constructed the view
    std::vector<NodeID> replicated_on; ///< nodes holding a replica
    EqSetID id = kNoEqSetID; ///< lifecycle id (creation order per field)
    std::uint64_t bytes() const;
  };
  using ViewPtr = std::shared_ptr<CompositeView>;

  /// One element of a node's history: a direct entry or a composite view.
  struct Element {
    PaintEntry op; ///< valid when !view
    ViewPtr view;
  };

  struct NodeState {
    std::vector<Element> elements;
    /// Entries (direct + inside views) at this node and below; the node is
    /// "open" when nonzero.
    std::size_t subtree_entries = 0;
    /// Conservative summary of privileges recorded in the subtree.
    std::vector<Privilege> subtree_privs;
    /// Owner of this node's history (last committer; home for the root).
    NodeID owner = 0;
  };

  struct FieldState {
    RegionHandle root;
    FieldID id = 0;
    NodeID home = 0;
    std::unordered_map<std::uint32_t, NodeState> nodes;
    std::size_t views_created = 0;
    std::size_t views_live = 0;
  };

  FieldState& field_state(FieldID field);
  NodeState& node_state(FieldState& fs, RegionHandle region);

  /// True when the injected test bug drops this history entry.
  bool skips_entry(const PaintEntry& e) const;

  /// Add a privilege to the summaries of `region` and all its ancestors.
  void add_summary(FieldState& fs, RegionHandle region, const Privilege& p);
  static void add_priv(std::vector<Privilege>& privs, const Privilege& p);
  static bool privs_interfere(const std::vector<Privilege>& privs,
                              const Privilege& p);

  /// Count entries at `region` and below (for subtree bookkeeping).
  void adjust_counts(FieldState& fs, RegionHandle region, std::ptrdiff_t by);

  /// The close phase: capture interfering sibling subtrees along the path
  /// into composite views.  Appends analysis steps describing the capture
  /// work.
  void close_subtrees(FieldState& fs, const std::vector<RegionHandle>& path,
                      const IntervalSet& dom, const Privilege& priv,
                      const AnalysisContext& ctx,
                      std::vector<AnalysisStep>& steps,
                      AnalysisCounters& local);

  /// Capture the subtrees rooted at `children` into one composite view
  /// appended to `at`.
  void capture(FieldState& fs, RegionHandle at,
               std::span<const RegionHandle> children,
               const AnalysisContext& ctx, std::vector<AnalysisStep>& steps,
               AnalysisCounters& local);

  /// Recursively move all entries below `region` (inclusive) into `flat`,
  /// clearing the subtree.  Returns per-owner capture counts (an ordered
  /// map: the counts become AnalysisSteps, whose order must be
  /// deterministic across runs and platforms).  Ids of views consumed by
  /// the flatten are appended to `dead_views` (lifecycle ledger).
  void flatten_subtree(FieldState& fs, RegionHandle region,
                       std::vector<PaintEntry>& flat,
                       std::map<NodeID, std::uint64_t>& captured,
                       std::vector<EqSetID>& dead_views);

  EngineConfig config_;
  std::unordered_map<FieldID, FieldState> fields_;
};

} // namespace visrt
