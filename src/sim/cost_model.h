// visrt/sim/cost_model.h
//
// Per-operation CPU costs charged by the dependence/coherence analyses when
// they emit work items.  The absolute values are calibrated to the same
// order of magnitude as Legion's measured analysis overheads (hundreds of
// nanoseconds to microseconds per step); the *relative* structure is what
// reproduces the paper's scaling shapes:
//   - the painter's algorithm pays per composite-view child examined,
//   - Warnock pays per equivalence-set refinement and per set visited,
//   - ray casting pays per BVH node traversed and per set visited, but
//     keeps the number of live sets small by coalescing on writes.
#pragma once

#include "common/check.h"
#include "common/types.h"

namespace visrt::sim {

struct CostModel {
  /// Fixed cost to start analyzing one region requirement of one launch.
  /// With trace_replay_ns and dcr_stream_ns it prices the issue ops, which
  /// must cost more than zero (validate()).
  SimTime requirement_base_ns = 500;

  /// Painter: examining one history entry during paint()/dependence walk.
  SimTime history_entry_ns = 100;
  /// Painter: testing one child of a composite view for interference.
  SimTime composite_child_test_ns = 150;
  /// Painter: capturing one region's history into a composite view.
  SimTime composite_capture_ns = 400;

  /// Warnock/raycast: splitting one equivalence set during refine().
  SimTime eqset_refine_ns = 2000;
  /// Per interval of the refined domains: refinement clones and restricts
  /// the set's version state, so its cost scales with how fragmented the
  /// domains are.  Warnock's sequential pairwise refinement of an
  /// ever-more-fragmented remainder makes this the driver of its
  /// initialization explosion (Section 8.1).
  SimTime refine_interval_ns = 100;
  /// Warnock/raycast: visiting one equivalence set during materialize
  /// or commit (history append / paint of that set).
  SimTime eqset_visit_ns = 220;
  /// Warnock/raycast: one acceleration-structure node traversed
  /// (refinement BVH, partition BVH, or K-d fallback).
  SimTime accel_node_ns = 40;
  /// Raycast: creating a fresh equivalence set for a dominating write and
  /// pruning one occluded set.  Both are local metadata updates and much
  /// cheaper than the distributed visits/refinements above.
  SimTime eqset_create_ns = 250;
  SimTime eqset_prune_ns = 80;

  /// Interval-set algebra: per interval touched by a union/intersection/
  /// difference executed during analysis.
  SimTime interval_op_ns = 12;

  /// Copy engine: fixed cost to issue one copy/reduction, per element cost
  /// is paid in network bytes (8 bytes per double element).
  SimTime copy_issue_ns = 800;

  /// Leaf task execution: per-element compute cost (stands in for the GPU
  /// kernel; the figures measure runtime overhead, not FLOPs).
  SimTime task_element_ns = 2;
  /// Fixed launch overhead of a leaf task on its processor.
  SimTime task_launch_ns = 3000;

  /// Tracing extension: per-launch cost of replaying a memoized analysis
  /// (template lookup + event wiring), replacing the full analysis.
  SimTime trace_replay_ns = 400;

  /// DCR: per-launch cost of the sharding function + collective metadata
  /// exchange amortization on the owning shard.
  SimTime dcr_shard_ns = 350;
  /// DCR: under control replication every shard executes the top-level
  /// task, so each shard pays a small enumeration cost for every launch in
  /// the stream, owned or not.  This is the source of DCR's residual
  /// linear growth with machine size.
  SimTime dcr_stream_ns = 50;

  /// Runtime::retire's one-pass cut stops at the future floor, the
  /// earliest finish of a node's issue chain.  A zero-cost issue op on an
  /// idle CPU finishes at its own readiness, so the ops popped at that
  /// readiness would sit on the floor instead of below it.
  void validate() const {
    require(requirement_base_ns > 0, "requirement_base_ns must be positive");
    require(trace_replay_ns > 0, "trace_replay_ns must be positive");
    require(dcr_stream_ns > 0, "dcr_stream_ns must be positive");
  }
};

} // namespace visrt::sim
