// visrt/visibility/raycast.h
//
// Ray casting (paper Section 7): Warnock's materialize/commit, except that
// every read-write materialization performs a *dominating write* — a fresh
// equivalence set covering exactly the written region replaces every set it
// occludes.  Sets therefore coalesce as well as refine, keeping the live
// set count proportional to the partitions the application actually uses.
//
// Because coalescing destroys the refinement tree, there is no stable
// BVH over equivalence sets.  Following Section 7.1, the engine selects a
// disjoint-and-complete partition of the root as the acceleration
// structure (each subregion holds a bucket of intersecting sets, with a
// static BVH over subregion bounds for cross-partition queries), and falls
// back to a dynamic interval tree — the 1-D K-d tree — when no such
// partition exists.  If the application shifts to a different
// disjoint-complete partition, the buckets are rebuilt on the new subtree.
//
// Domains are interned (geom/interval_store.h): equivalence sets and
// requirements hold ids, and a split whose (set, cut) pair repeats reuses
// the memoized intersection and difference, as the cost model assumes.
// The model's own signatures still decide every charge; the store decides
// only what the host recomputes.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "geom/bvh.h"
#include "geom/interval_store.h"
#include "geom/interval_tree.h"
#include "visibility/engine.h"
#include "visibility/history.h"

namespace visrt {

class RayCastEngine final : public CoherenceEngine {
public:
  explicit RayCastEngine(const EngineConfig& config) : config_(config) {}

  void initialize_field(RegionHandle root, FieldID field,
                        RegionData<double> initial, NodeID home) override;
  MaterializeResult materialize(const Requirement& req,
                                const AnalysisContext& ctx) override;
  std::vector<AnalysisStep> commit(const Requirement& req,
                                   const RegionData<double>& result,
                                   const AnalysisContext& ctx) override;
  EngineStats stats() const override;

  /// Least launch id named by any live set's history (kInvalidLaunch when
  /// no live entry names a task): histories are the sole source of
  /// dependences, so no future materialize can report anything below it.
  LaunchID retire_watermark() const override;

  /// Dominating writes leave dead set husks in the per-field slot vectors;
  /// once more than `max_dead` are resident, rebuild the vectors with an
  /// order-stable remap (new id = rank among live ids).  Every consumer —
  /// buckets, the interval-tree fallback, last_sets — scans ids in sorted
  /// order and dead entries cost no counters, so analysis behaviour is
  /// bit-identical; only the numbering of *future* sets shifts.  The same
  /// pass sweeps the domain store: it keeps the live sets' domains and the
  /// region table, and drops every memo entry that names a freed domain.
  std::size_t compact_husks(std::size_t max_dead) override;

private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  using DomId = IntervalStore::Id;

  struct EqSet {
    DomId dom = IntervalStore::kEmpty;
    bool live = true;
    NodeID owner = 0;
    std::vector<HistEntry> history;
    /// Folded value payloads of the collapsed history prefix (the paper's
    /// composite view); painted before the per-entry history when present.
    std::optional<RegionData<double>> composite;
    /// Entries [0, collapsed) of `history` carry the collapsed flag; the
    /// frontier only advances (a write clears the whole history anyway).
    std::uint32_t collapsed = 0;
  };

  /// The acceleration-partition colors whose subregions overlap a domain,
  /// and what finding them charged: the BVH nodes visited and one overlap
  /// test per candidate color.
  struct AccelColors {
    std::vector<std::uint64_t> colors;
    std::uint64_t nodes_visited = 0;
    std::uint64_t candidates = 0;
  };

  struct FieldState {
    RegionHandle root;
    FieldID id = 0;
    NodeID home = 0;
    std::vector<EqSet> sets;
    std::size_t total_created = 0;
    std::size_t live = 0;

    // Acceleration structure: partition buckets or interval-tree fallback.
    PartitionHandle accel_partition;           // invalid => fallback
    std::vector<std::vector<std::uint32_t>> buckets; // per color
    Bvh color_bvh;                             // over subregion bounds
    IntervalTree fallback;
    /// Memoized region -> overlapping accel colors (domains are immutable,
    /// so entries stay valid until the accel partition changes).
    std::unordered_map<std::uint32_t, std::vector<std::uint64_t>>
        color_cache;
    /// Constituent sets discovered by the last materialize of a region;
    /// commit reuses them when still live (materialize itself always
    /// re-casts, per Section 7).
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> last_sets;
    /// Signatures of (set domain, cut) pairs already refined once: index
    /// space expressions are interned (as in Legion's region forest), so
    /// the model charges re-splitting the same pattern in a later
    /// iteration as one cache lookup.  These signatures decide the charge
    /// only; what the host recomputes is up to store_'s exact memo.
    std::unordered_set<std::size_t> split_signatures;
    /// Interned answers to "does a set with this domain signature span
    /// several subregions of the acceleration partition?" — the alignment
    /// test repeats identically every iteration in steady state.
    std::unordered_map<std::size_t, bool> align_cache;
    /// AccelColors per domain id for the current acceleration partition:
    /// a set created with a domain seen before reuses the query's answer
    /// and charges what the query charged.
    std::unordered_map<DomId, AccelColors> accel_colors;
  };

  FieldState& field_state(FieldID field);

  /// Choose/maintain the acceleration structure for a request on `region`
  /// (Section 7.1 heuristic); may rebuild buckets on a partition shift.
  void select_accel(FieldState& fs, RegionHandle region,
                    AnalysisCounters& local);
  void rebuild_accel(FieldState& fs, AnalysisCounters& local);

  /// The interned domain of a forest region (forest domains never change).
  DomId region_dom(RegionHandle region);

  /// Insert / remove a set id from the current acceleration structure.
  void accel_insert(FieldState& fs, std::uint32_t id,
                    AnalysisCounters& local);
  /// The accel-partition colors overlapping `dom`, charged to `local`.
  const AccelColors& accel_colors(FieldState& fs, DomId dom,
                                  AnalysisCounters& local);
  /// Accel-partition colors whose subregions overlap `dom` (cached per
  /// region handle).
  const std::vector<std::uint64_t>& colors_for(FieldState& fs,
                                               RegionHandle region,
                                               const IntervalSet& dom,
                                               AnalysisCounters& local);
  void accel_remove(FieldState& fs, std::uint32_t id);

  /// Live sets overlapping `dom` — the ray cast.
  std::vector<std::uint32_t> cast(FieldState& fs, RegionHandle region,
                                  const IntervalSet& dom,
                                  AnalysisCounters& local);

  /// Create a live set owned by `owner`; creation and index insertion are
  /// charged to `charge` (the owner's counters — the owning node builds
  /// its own index entries).  `launch`/`parent` stamp the lifecycle event
  /// (parent = the refined set the new one was carved from, or kNoEqSetID).
  std::uint32_t create_set(FieldState& fs, DomId dom, NodeID owner,
                           LaunchID launch, EqSetID parent,
                           AnalysisCounters& charge);

  /// Section 7.1: when a disjoint-complete partition is the acceleration
  /// structure, a set spanning several of its subregions is split into
  /// per-subregion pieces in one k-way operation (the sets live "at the
  /// leaves of the P partition"), instead of Warnock's sequential pairwise
  /// refinement whose shrinking remainder fragments ever further.  Returns
  /// the pieces, or empty when alignment does not apply.
  std::vector<std::uint32_t> split_aligned(
      FieldState& fs, std::uint32_t id, const IntervalSet& dom, DomId dom_id,
      NodeID inside_owner, LaunchID launch, std::vector<AnalysisStep>& steps,
      AnalysisCounters& local);
  void split_set(FieldState& fs, std::uint32_t id, DomId cut,
                 NodeID inside_owner, LaunchID launch,
                 std::uint32_t& inside_id, std::vector<AnalysisStep>& steps);

  /// Composite-view collapse (EngineConfig::max_history_depth): fold the
  /// value payloads of all but the newest max_history_depth entries of
  /// `s.history` into `s.composite`, flagging the folded prefix.  GC work,
  /// modeled as free — paint_entry charges flagged entries exactly what
  /// painting them would have cost, so analysis stays bit-identical.
  void collapse_history(EqSet& s);

  EngineConfig config_;
  std::unordered_map<FieldID, FieldState> fields_;
  /// Every domain the engine holds, shared by all fields; compact_husks
  /// sweeps it down to the live sets' domains and the region table.
  IntervalStore store_;
  /// Interned forest domains by RegionHandle::index (kNone: not yet seen).
  std::vector<DomId> region_dom_;
};

} // namespace visrt
