// visrt/visibility/warnock.h
//
// The optimized Warnock's algorithm (paper Section 6.1).  The state is a
// set of equivalence sets — (region, history) pairs where every history
// operation covers the whole set.  Sets are only ever *refined* (split), so
// the refinement history forms a search tree used as a bounding volume
// hierarchy: to find the sets composing a region, descend from the root
// through overlapping children to the live leaves.
//
// Optimizations implemented, as described in the paper:
//   - the refinement BVH (internal nodes immutable, replicated everywhere,
//     so descent is charged locally to the analyzing node);
//   - memoization: each region remembers the sets that composed it last
//     time and restarts the search from them (refinement is monotone, so
//     stale entries only need descending, never ascending);
//   - equivalence-set histories are distributed: each live set is owned by
//     the node of the first task that carved it out.
#pragma once

#include <unordered_map>
#include <vector>

#include "visibility/engine.h"
#include "visibility/history.h"

namespace visrt {

class WarnockEngine final : public CoherenceEngine {
public:
  explicit WarnockEngine(const EngineConfig& config) : config_(config) {}

  void initialize_field(RegionHandle root, FieldID field,
                        RegionData<double> initial, NodeID home) override;
  MaterializeResult materialize(const Requirement& req,
                                const AnalysisContext& ctx) override;
  std::vector<AnalysisStep> commit(const Requirement& req,
                                   const RegionData<double>& result,
                                   const AnalysisContext& ctx) override;
  EngineStats stats() const override;

private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// One node of the refinement tree.  Live leaves are the current
  /// equivalence sets; refined nodes keep their domain as BVH bounds.
  struct EqSetNode {
    IntervalSet dom;
    std::uint32_t left = kNone;
    std::uint32_t right = kNone;
    bool live = true;
    NodeID owner = 0;
    std::vector<HistEntry> history; // live leaves only
  };

  struct FieldState {
    RegionHandle root;
    FieldID id = 0;
    NodeID home = 0;
    std::vector<EqSetNode> nodes; // node 0 is the initial whole-domain set
    /// region index -> equivalence-set node ids seen last time
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> memo;
    std::size_t total_created = 0;
    std::size_t live = 0;
  };

  FieldState& field_state(FieldID field);

  /// Find the live leaves overlapping `dom`, starting from the memoized
  /// entry points when available.
  std::vector<std::uint32_t> lookup(FieldState& fs, const Requirement& req,
                                    const IntervalSet& dom,
                                    AnalysisCounters& local);

  /// Split leaf `id` into (dom ∩ cut, dom − cut); both inherit the history.
  /// The inside child is owned by `inside_owner` (first toucher).  Emits
  /// one analysis step at the set's owner; `launch` stamps the lifecycle
  /// events.
  void refine_leaf(FieldState& fs, std::uint32_t id, const IntervalSet& cut,
                   NodeID inside_owner, LaunchID launch,
                   std::vector<AnalysisStep>& steps);

  EngineConfig config_;
  std::unordered_map<FieldID, FieldState> fields_;
};

} // namespace visrt
