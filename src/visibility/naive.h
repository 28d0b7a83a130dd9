// visrt/visibility/naive.h
//
// Literal implementations of the paper's pseudocode:
//   - NaivePaintEngine    — Figure 7, the painter's algorithm over a flat
//                           history list.
//   - NaiveWarnockEngine  — Figure 9, equivalence sets refined on overlap.
//   - NaiveRayCastEngine  — Figure 11, Warnock plus dominating writes.
//
// These are unoptimized by design: no region-tree acceleration, no BVH, no
// memoization, single-owner metadata.  They serve as executable
// specifications that the optimized engines (paint.h, warnock.h,
// raycast.h) are tested against, and as the reference points for the
// ablation benchmarks.
#pragma once

#include <unordered_map>
#include <vector>

#include "visibility/engine.h"
#include "visibility/history.h"

namespace visrt {

namespace detail {
/// State common to the naive engines: per-field history or equivalence
/// sets, plus the home node all metadata lives on.
struct NaiveFieldState {
  RegionHandle root;
  NodeID home = 0;
  IntervalSet root_domain;
};
} // namespace detail

/// Figure 7: S is a flat list of <privilege, region> pairs.
class NaivePaintEngine final : public CoherenceEngine {
public:
  explicit NaivePaintEngine(const EngineConfig& config) : config_(config) {}

  void initialize_field(RegionHandle root, FieldID field,
                        RegionData<double> initial, NodeID home) override;
  MaterializeResult materialize(const Requirement& req,
                                const AnalysisContext& ctx) override;
  std::vector<AnalysisStep> commit(const Requirement& req,
                                   const RegionData<double>& result,
                                   const AnalysisContext& ctx) override;
  EngineStats stats() const override;

private:
  struct FieldState : detail::NaiveFieldState {
    std::vector<PaintEntry> history;
  };
  EngineConfig config_;
  std::unordered_map<FieldID, FieldState> fields_;
};

/// Figure 9: S is a set of equivalence sets (region, history) with the
/// invariant that every history operation covers the whole set.
class NaiveWarnockEngine : public CoherenceEngine {
public:
  explicit NaiveWarnockEngine(const EngineConfig& config) : config_(config) {}

  void initialize_field(RegionHandle root, FieldID field,
                        RegionData<double> initial, NodeID home) override;
  MaterializeResult materialize(const Requirement& req,
                                const AnalysisContext& ctx) override;
  std::vector<AnalysisStep> commit(const Requirement& req,
                                   const RegionData<double>& result,
                                   const AnalysisContext& ctx) override;
  EngineStats stats() const override;

protected:
  struct EqSet {
    IntervalSet dom;
    std::vector<HistEntry> history;
  };
  struct FieldState : detail::NaiveFieldState {
    std::vector<EqSet> sets;
    /// Sets ever created on this field.  Kept per field (not engine-wide)
    /// so materialize calls on distinct fields never share mutable state —
    /// the invariant the runtime's per-field analysis sharding relies on.
    std::size_t sets_created = 0;
  };

  /// Figure 9 refine(): split sets that partially overlap `dom`.
  static void refine(FieldState& fs, const IntervalSet& dom,
                     AnalysisCounters& c);

  FieldState& field_state(const Requirement& req);

  EngineConfig config_;
  std::unordered_map<FieldID, FieldState> fields_;
};

/// Figure 11: Warnock's materialize/commit, plus dominating_write on
/// read-write materialization.
class NaiveRayCastEngine final : public NaiveWarnockEngine {
public:
  explicit NaiveRayCastEngine(const EngineConfig& config)
      : NaiveWarnockEngine(config) {}

  MaterializeResult materialize(const Requirement& req,
                                const AnalysisContext& ctx) override;
};

} // namespace visrt
