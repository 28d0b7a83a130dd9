// visrt/sim/replay.h
//
// Discrete-event scheduler that replays a WorkGraph onto a MachineConfig.
// Each node's CPU executes its compute ops sequentially in order of
// readiness; each node's NIC serializes outgoing (and incoming) transfers.
// The result assigns every op a finish time; the makespan (or the finish
// time of a designated marker) is the simulated wall-clock measurement the
// benchmarks report.
//
// One event loop pops ops in (ready, id) order and serves both entry
// points.  `replay` drains the resident window from a ReplayCheckpoint —
// the per-resource next-free times (plus cumulative busy/makespan) at a
// retirement cut — so its finish times equal a whole-stream replay's.
// `replay_below_floor` is retirement's single pass: it pops only while
// readiness stays below the future floor and advances the checkpoint in
// place, so the state where it stops is the next cut.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "sim/machine.h"
#include "sim/work_graph.h"

namespace visrt::sim {

/// Resource state at a retirement cut: what the retired prefix left
/// behind.  Busy times and makespan are cumulative from program start.
struct ReplayCheckpoint {
  std::vector<SimTime> cpu_free;
  std::vector<SimTime> accel_free;
  std::vector<SimTime> nic_out_free;
  std::vector<SimTime> nic_in_free;
  std::vector<SimTime> node_busy;
  SimTime makespan = 0;
  bool empty() const { return cpu_free.empty(); }
};

/// Per-run replay results.  `finish` / `ready` cover the replayed window,
/// indexed by id - base (base == 0 for never-retired graphs, so plain
/// `finish[id]` keeps working there).
struct ReplayResult {
  OpID base = 0;
  std::vector<SimTime> finish; ///< finish time per replayed op
  std::vector<SimTime> ready;  ///< dependence-readiness time per op
  SimTime makespan = 0;        ///< max finish time (cumulative with start)
  std::vector<SimTime> node_busy; ///< CPU busy per node (cumulative)
  std::size_t scheduled = 0;   ///< ops popped (the whole window when drained)
  /// The floor F the loop stopped at: every scheduled op has ready < F.
  SimTime floor = std::numeric_limits<SimTime>::max();

  SimTime finish_of(OpID id) const { return finish[id - base]; }
  SimTime ready_of(OpID id) const { return ready[id - base]; }
};

/// Schedule the whole resident window [graph.base(), graph.size()).
/// Deterministic: ties broken by op id.  `start` seeds resource state from
/// a prior retirement cut (fresh machine when null or empty).
ReplayResult replay(const WorkGraph& graph, const MachineConfig& machine,
                    const ReplayCheckpoint* start = nullptr);

/// Retirement pass: schedule the resident window from `state` while the
/// next op's readiness is below the floor F, advancing `state` in place to
/// the resource state those pops leave behind.  F starts at `floor` and
/// drops to the finish of each `lowering` op that pops.  Pops run in
/// nondecreasing readiness, so the scheduled ops are exactly those whose
/// final readiness is below the final F — provided each lowering op
/// finishes strictly after it becomes ready (checked).  `finish` / `ready`
/// are exact for the scheduled ops; every other op's `ready` is a lower
/// bound of at least `result.floor`.
ReplayResult replay_below_floor(const WorkGraph& graph,
                                const MachineConfig& machine,
                                ReplayCheckpoint& state, SimTime floor,
                                std::span<const OpID> lowering);

} // namespace visrt::sim
