// visrt/visibility/engine.h
//
// The common framework of Section 4: every coherence algorithm provides
// `materialize` and `commit` plus an implementation of the runtime state S.
// A CoherenceEngine is that triple for all fields of all region trees of
// one runtime.
//
// Engines do two jobs at once:
//   1. Semantics: produce the current values of a requested region
//      (materialize), record task results (commit), and report the prior
//      launches the requesting task depends on.
//   2. Accounting: report *where* (which node owns the metadata touched)
//      and *how much* work each step performed, as AnalysisSteps, so the
//      runtime can attribute analysis time and messages onto the simulated
//      machine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "obs/counters.h"
#include "obs/provenance.h"
#include "region/region_data.h"
#include "region/region_tree.h"
#include "sim/cost_model.h"
#include "visibility/privilege.h"

namespace visrt {

namespace obs {
class Recorder;
class LifecycleLedger;
} // namespace obs

/// One region requirement of a task launch: a region (by handle), one
/// field, and the privilege the task holds on it.
struct Requirement {
  RegionHandle region;
  FieldID field = 0;
  Privilege privilege;
  friend bool operator==(const Requirement&, const Requirement&) = default;
};

/// Identity of one analyzed launch: the task (the paper's global clock),
/// the node the task is mapped to (first-touch owner for new metadata),
/// and the node performing the analysis (node 0 without DCR; the owning
/// shard with DCR).
struct AnalysisContext {
  LaunchID task = kInvalidLaunch;
  NodeID mapped_node = 0;
  NodeID analysis_node = 0;
};

// AnalysisCounters and AnalysisStep moved to obs/counters.h so the
// telemetry layer can capture them without depending on the engines.

/// Result of materializing one requirement.
struct MaterializeResult {
  /// Current values over the requirement's domain (read / read-write), or
  /// identity-filled values (reduce).  Empty when value tracking is off.
  RegionData<double> data;
  /// Launches the requesting task depends on (sorted, unique).
  std::vector<LaunchID> dependences;
  /// Attributed analysis work.
  std::vector<AnalysisStep> steps;
  /// Per-dependence provenance (EngineConfig::provenance only).  One entry
  /// per *emission*, so a launch found through several sets may appear more
  /// than once; the runtime keeps the first record per edge.  The engine
  /// leaves `EdgeProvenance::engine` zero — the runtime stamps it.
  std::vector<obs::EdgeProvenance> provenance;
};

/// Aggregate engine state counters, reported by the benchmarks.
struct EngineStats {
  std::size_t live_eqsets = 0;
  std::size_t total_eqsets_created = 0;
  std::size_t live_composite_views = 0;
  std::size_t total_composite_views = 0;
  std::size_t history_entries = 0;
  /// Storage slots held for equivalence sets, live or collapsed (dead
  /// husks awaiting compact_husks).  0 when the engine doesn't report it.
  std::size_t resident_eqset_slots = 0;
  /// History entries whose value payloads were folded into a composite
  /// view (EngineConfig::max_history_depth); a subset of history_entries.
  std::size_t collapsed_entries = 0;
};

/// The three algorithms of the paper, plus the naive pseudocode versions
/// (Figures 7, 9, 11) and the sequential oracle used for testing.
enum class Algorithm {
  Paint,
  Warnock,
  RayCast,
  NaivePaint,
  NaiveWarnock,
  NaiveRayCast,
  Reference,
};

const char* algorithm_name(Algorithm a);

/// Algorithm-specific option knobs: one flat struct covering every
/// engine's ablation settings, so callers that pick the algorithm at
/// runtime (the Runtime config, the fuzzer's randomized configurations)
/// can carry one value.  Each engine reads its own knobs from
/// EngineConfig::tuning; knobs for other engines are ignored.
struct EngineTuning {
  /// PaintEngine: disable to measure the value of occlusion pruning
  /// (ablation bench).
  bool paint_occlusion_pruning = true;
  /// WarnockEngine: disable to measure the value of memoized lookups
  /// (ablation bench).
  bool warnock_memoize = true;
  /// RayCastEngine: disable to measure the value of dominating writes; the
  /// engine then degenerates to Warnock-style refinement-only behaviour
  /// (ablation).
  bool raycast_dominating_writes = true;
  /// RayCastEngine: force the K-d (interval tree) fallback even when a
  /// disjoint-complete partition exists (ablation).
  bool raycast_force_kd_fallback = false;
  /// Test-only synthetic PaintEngine bug: the history walk silently skips
  /// reduce entries whose domain has two or more intervals, dropping both
  /// their folds (value corruption) and their dependences (soundness
  /// violation).  Used to validate that the fuzzer's differential oracle
  /// and shrinker actually catch and minimize engine defects; never
  /// enabled outside tests.
  bool inject_paint_reduce_bug = false;

  friend bool operator==(const EngineTuning&, const EngineTuning&) = default;
};

struct EngineConfig {
  /// Track and return actual region values.  Off for analysis-only
  /// benchmark runs where only dependences / costs matter.
  bool track_values = true;
  /// Per-algorithm option knobs (ablation settings + test hooks).
  EngineTuning tuning;
  /// Forest the requirements' region handles resolve against (non-owning;
  /// must outlive the engine).
  const RegionTreeForest* forest = nullptr;
  /// Instrumentation the engine opens its obs::Scope phases on: spans and
  /// the profiler's ledger, each gated at runtime (non-owning; may be
  /// null, and with both sinks off every scope costs one branch per sink).
  obs::Recorder* recorder = nullptr;
  /// Capture per-edge provenance into MaterializeResult::provenance; one
  /// branch per emission site.
  bool provenance = false;
  /// Lifecycle ledger to report create/refine/coalesce/migrate events to
  /// (non-owning).  The runtime sets it exactly when `provenance` is on;
  /// null means no lifecycle events.
  obs::LifecycleLedger* lifecycle = nullptr;
  /// Bounded-memory streaming: once a live equivalence set's history grows
  /// beyond this many entries, fold the value payloads of the older
  /// entries into one set-level composite view (the paper's
  /// painter's-algorithm GC), keeping their dependence skeletons.
  /// Dependences, counters and materialized values are bit-identical to
  /// the uncollapsed history; only value-payload residency shrinks.
  /// 0 = never collapse.  Currently honored by RayCast.
  std::size_t max_history_depth = 0;
};

class CoherenceEngine {
public:
  virtual ~CoherenceEngine() = default;

  /// Register a field on a root region with its initial contents: the
  /// paper's initial state [<read-write, A>].  `home` is the node that
  /// initially owns the metadata (and the data).
  virtual void initialize_field(RegionHandle root, FieldID field,
                                RegionData<double> initial, NodeID home) = 0;

  /// Compute the current contents of the requirement's region and the
  /// dependences of the launch described by `ctx`.
  virtual MaterializeResult materialize(const Requirement& req,
                                        const AnalysisContext& ctx) = 0;

  /// Record the task's committed region contents into the state.
  /// `result` is ignored when value tracking is off.
  virtual std::vector<AnalysisStep> commit(const Requirement& req,
                                           const RegionData<double>& result,
                                           const AnalysisContext& ctx) = 0;

  virtual EngineStats stats() const = 0;

  /// Retirement watermark: a launch id W such that no *future* materialize
  /// can ever report a dependence on a launch < W (because every retained
  /// history entry's writer/reader ids are >= W).  The runtime uses it to
  /// retire dep-graph prefixes.  kInvalidLaunch means "no retained entry
  /// constrains retirement at all"; the conservative default, 0, disables
  /// launch retirement for engines that don't implement it.
  virtual LaunchID retire_watermark() const { return 0; }

  /// Collapse storage held by dead (already-coalesced) equivalence-set
  /// husks once more than `max_dead` of them are resident; returns the
  /// number of slots reclaimed.  Analysis results are unaffected — only
  /// internal numbering of *future* eq-sets may shift.  Default: engines
  /// without husk storage reclaim nothing.
  virtual std::size_t compact_husks(std::size_t max_dead) {
    (void)max_dead;
    return 0;
  }
};

/// Factory for all algorithm variants.
std::unique_ptr<CoherenceEngine> make_engine(Algorithm algorithm,
                                             const EngineConfig& config);

} // namespace visrt
