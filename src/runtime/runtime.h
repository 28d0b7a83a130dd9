// visrt/runtime/runtime.h
//
// The implicitly parallel tasking runtime: the user-facing façade playing
// Legion's role in the paper.  Applications create regions, partitions and
// fields, then launch a sequential stream of tasks with privileges on
// (sub)regions; the runtime
//
//   1. runs the configured visibility algorithm to compute dependences and
//      coherent task inputs (Sections 5-7),
//   2. plans the implicit communication (copies, lazy reduction
//      applications) through the instance map,
//   3. executes task bodies against real buffers (when value tracking is
//      on) so results can be validated against serial references, and
//   4. records every analysis step, message, copy and task execution into
//      a work graph that the discrete-event simulator schedules onto the
//      configured machine, yielding the initialization-time and
//      weak-scaling measurements of Section 8.
//
// Dynamic control replication (DCR, [4] in the paper) is modeled by
// analyzing each launch on the node the task is mapped to instead of
// funneling every analysis through node 0.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "obs/histogram.h"
#include "obs/lifecycle.h"
#include "obs/recorder.h"
#include "realm/instance_map.h"
#include "region/region_tree.h"
#include "sim/cost_model.h"
#include "sim/machine.h"
#include "sim/message_ledger.h"
#include "sim/replay.h"
#include "sim/work_graph.h"
#include "visibility/dep_graph.h"
#include "visibility/engine.h"

namespace visrt {

struct RuntimeConfig {
  Algorithm algorithm = Algorithm::RayCast;
  /// Algorithm-specific option knobs (ablation settings + test hooks),
  /// forwarded to the engine factory.
  EngineTuning tuning;
  /// Shard the top-level task's analysis across nodes (DCR).
  bool dcr = false;
  /// Honor begin_trace()/end_trace() (dynamic tracing, [15] in the paper:
  /// memoizes the dependence/coherence analyses of a repeated launch
  /// sequence).  The paper's experiments run without tracing; visrt
  /// implements it as an extension — see bench/ext_tracing.
  bool enable_tracing = true;
  /// Execute task bodies on real data (on for examples/tests; off for
  /// large analysis-only benchmark sweeps).
  bool track_values = true;
  /// Enable the telemetry recorder: per-launch analysis spans, counter
  /// time-series, enriched Chrome traces and the JSON metrics sink.  Off by
  /// default; off costs one branch per instrumentation scope.
  bool telemetry = false;
  /// Keep a per-launch record of the analyzed requirements (launch_log())
  /// so the spy verifier (analysis/spy.h) can recompute ground-truth
  /// interference after the run.  Off by default: verification-only memory.
  bool record_launches = false;
  /// Attach an order-maintenance structure (common/order_maintenance.h) to
  /// the dependence graph as it grows: DepGraph::reaches and every
  /// consumer of transitive order (spy verifier, explain, the schedule
  /// validator) answer in O(1) instead of walking the graph.  Off by
  /// default; costs O(resident launches * chain width) memory.
  bool order_queries = false;
  /// Record dependence provenance, the eq-set lifecycle ledger and the
  /// per-node message ledger (visrt_cli explain / inspect).  Off by
  /// default; off costs one branch per emission site.
  bool provenance = false;
  /// Enable the analysis profiler (obs/profile.h): attribution of the
  /// analysis wall time to the instrumentation scopes' labels.  Off by
  /// default; off costs one branch per instrumentation scope.
  bool profile = false;
  /// Ring-buffer capacity of each counter series (memory stays bounded for
  /// arbitrarily long runs).
  std::size_t telemetry_series_capacity = 4096;
  /// Analysis runs on the calling thread; the constructor requires 1.
  /// Kept because perfbench/visbench.cpp assigns it.
  unsigned analysis_threads = 1;
  /// Bounded-memory streaming: collapse the value payloads of equivalence
  ///-set history entries beyond this depth into per-set composite views
  /// (see EngineConfig::max_history_depth).  Analysis results are
  /// bit-identical with and without the cap; 0 = never collapse.
  std::size_t max_history_depth = 0;
  /// Optional per-launch analysis-latency sink: each launch() records the
  /// nanoseconds it added to analysis_wall_s (materialize + commit, task
  /// bodies excluded) into this histogram.  Must outlive the Runtime; the
  /// serve layer points every session at its shared latency block.
  obs::Histogram* launch_latency = nullptr;
  sim::MachineConfig machine;
  sim::CostModel costs;
};

/// A task body's view of one region requirement: the materialized values,
/// writable according to the privilege.
class PhysicalRegion {
public:
  PhysicalRegion(Requirement req, RegionData<double> data)
      : req_(req), data_(std::move(data)) {}

  const Requirement& requirement() const { return req_; }
  /// Materialized (current) values; for reduce privileges this buffer is
  /// identity-filled and the task folds its contributions into it.
  RegionData<double>& data() { return data_; }
  const RegionData<double>& data() const { return data_; }

private:
  Requirement req_;
  RegionData<double> data_;
};

/// Handed to a task body during execution.
class TaskContext {
public:
  TaskContext(LaunchID id, std::vector<PhysicalRegion>& regions)
      : id_(id), regions_(regions) {}

  LaunchID launch_id() const { return id_; }
  std::size_t region_count() const { return regions_.size(); }
  PhysicalRegion& region(std::size_t i) { return regions_.at(i); }
  /// Shorthand for region(i).data().
  RegionData<double>& data(std::size_t i) { return regions_.at(i).data(); }

private:
  LaunchID id_;
  std::vector<PhysicalRegion>& regions_;
};

using TaskFn = std::function<void(TaskContext&)>;

/// One analyzed launch as retained for post-hoc verification (see
/// RuntimeConfig::record_launches and analysis/spy.h), indexed by
/// LaunchID.  observe() launches are recorded too — the spy checks their
/// ordering like any other read.
struct LaunchRecord {
  std::vector<Requirement> requirements;
  NodeID mapped_node = 0;
};

/// One region requirement of a launch (user-facing form).
struct RegionReq {
  RegionHandle region;
  FieldID field = 0;
  Privilege privilege;
  friend bool operator==(const RegionReq&, const RegionReq&) = default;
};

/// One region requirement of an index launch: each point task `color`
/// receives `subregion(partition, color)` with the given privilege.
struct IndexReq {
  PartitionHandle partition;
  FieldID field = 0;
  Privilege privilege;
};

/// Description of an index launch: one point task per color of the launch
/// partition(s), the idiomatic way the paper's programs map loops like
/// `for i = 1..3 t1(P[i], G[i])` onto the runtime.
struct IndexLaunch {
  std::string name;
  /// All partitions must have the same number of subregions.
  std::vector<IndexReq> requirements;
  /// Body for point task `color`; may be empty when values are off.
  std::function<void(TaskContext&, std::size_t color)> fn;
  /// Node for point task `color`; defaults to color % num_nodes.
  std::function<NodeID(std::size_t color)> mapping;
  /// Elements the leaf kernel touches, per point task.
  coord_t work_items = 0;
};

/// Description of one task launch.
struct TaskLaunch {
  std::string name;
  std::vector<RegionReq> requirements;
  /// Task body; may be empty when value tracking is off.
  TaskFn fn;
  /// Node (processor) the task is mapped to.
  NodeID mapped_node = 0;
  /// Number of elements the leaf kernel touches (execution cost model).
  coord_t work_items = 0;
};

/// Result of one Runtime::retire() call: where the resident windows start
/// afterwards, and how much this call reclaimed.
struct RetireStats {
  LaunchID launch_base = 0;   ///< first resident launch after the call
  sim::OpID op_base = 0;      ///< first resident work-graph op after the call
  std::size_t retired_launches = 0; ///< launches retired by this call
  std::size_t retired_ops = 0;      ///< work-graph ops retired by this call
  std::size_t eqset_slots_reclaimed = 0; ///< dead husk slots compacted away
};

/// Results of a finished run.
struct RunStats {
  double init_time_s = 0;    ///< start to end of first iteration
  double total_time_s = 0;   ///< start to last task finish
  double steady_iter_s = 0;  ///< average post-init iteration time
  std::size_t iterations = 0;
  std::size_t launches = 0;
  std::size_t dep_edges = 0;
  std::size_t critical_path = 0;
  std::size_t messages = 0;
  std::uint64_t message_bytes = 0;
  double analysis_cpu_s = 0; ///< total analysis CPU across all nodes
  /// Real (wall-clock) seconds this process spent inside the analysis
  /// sections of launch() — materialize + commit, excluding task bodies
  /// and the DES replay.  This is the quantity the --wall-clock benches
  /// report; unlike everything else in RunStats it depends on the host.
  double analysis_wall_s = 0;
  EngineStats engine;
};

class Runtime {
public:
  explicit Runtime(RuntimeConfig config);

  std::uint32_t num_nodes() const { return config_.machine.num_nodes; }
  const RegionTreeForest& forest() const { return forest_; }
  const DepGraph& dep_graph() const { return deps_; }
  const sim::WorkGraph& work_graph() const { return graph_; }
  EngineStats engine_stats() const { return engine_->stats(); }
  const RuntimeConfig& config() const { return config_; }

  /// Work-graph task-execution op of each *resident* launch, indexed by
  /// LaunchID - launch_base() (kInvalidOp for launches without an
  /// execution op, e.g. observe(); sim::kFrozenOp once retire() froze the
  /// op — its final window is then exec_of/frozen_exec_*).  Lets external
  /// validators — the fuzzer's schedule checker — relate the dependence
  /// DAG to the replayed DES schedule.
  std::span<const sim::OpID> exec_ops() const { return exec_op_; }

  /// Execution op of a resident launch (kInvalidOp / sim::kFrozenOp as in
  /// exec_ops()).
  sim::OpID exec_of(LaunchID id) const;
  /// Final execution window of a launch whose exec op was frozen by
  /// retire() (only valid when exec_of(id) == sim::kFrozenOp).
  SimTime frozen_exec_start(LaunchID id) const;
  SimTime frozen_exec_finish(LaunchID id) const;

  /// Requirements of every *resident* analyzed launch, indexed by
  /// LaunchID - launch_base().  Empty unless
  /// RuntimeConfig::record_launches; the spy verifier (analysis/spy.h)
  /// recomputes interference from this and the forest.
  std::span<const LaunchRecord> launch_log() const { return launch_log_; }

  /// First launch still resident in the dependence graph / launch log
  /// (0 until the first retire() call).
  LaunchID launch_base() const { return launch_base_; }
  std::size_t resident_launches() const { return next_launch_ - launch_base_; }

  /// The telemetry recorder (spans and series enabled iff
  /// RuntimeConfig::telemetry).
  obs::Recorder& recorder() { return recorder_; }
  const obs::Recorder& recorder() const { return recorder_; }

  /// The analysis profiler, owned by the recorder (enabled iff
  /// RuntimeConfig::profile).
  const obs::Profiler& profiler() const { return recorder_.profiler(); }
  /// Full schema-v1 profile report for this run's measured analysis wall
  /// time (see obs::Profiler::json).
  std::string profile_json() const;

  /// Eq-set lifecycle ledger (populated iff RuntimeConfig::provenance).
  const obs::LifecycleLedger& lifecycle() const { return lifecycle_; }
  /// Per-simulated-node analysis/copy message ledger (same gating).
  const sim::MessageLedger& message_ledger() const { return msg_ledger_; }

  /// Cumulative analysis CPU per node.  Sums exactly to the work graph's
  /// total Analysis cost: emit_steps is the only producer of Analysis
  /// compute ops and accumulates both from the same step costs.
  std::span<const SimTime> analysis_busy_ns() const {
    return analysis_busy_ns_;
  }
  /// Messages by source node (analysis traffic, copies and reductions),
  /// from a scan of the work graph.
  std::vector<std::uint64_t> messages_by_node() const;

  /// Create the root region of a new tree.
  RegionHandle create_region(IntervalSet domain, std::string name);
  PartitionHandle create_partition(RegionHandle parent,
                                   std::vector<IntervalSet> subspaces,
                                   std::string name);
  /// Partition with caller-declared disjointness/completeness claims;
  /// declared flags are trusted but geometrically validated in debug
  /// builds (see RegionTreeForest::create_partition).
  PartitionHandle create_partition(RegionHandle parent,
                                   std::vector<IntervalSet> subspaces,
                                   std::string name, PartitionClaim claim);
  RegionHandle subregion(PartitionHandle partition, std::size_t color) const;

  /// Register a field on a root region with a constant initial value.
  FieldID add_field(RegionHandle root, std::string name,
                    double initial = 0.0);
  /// Register a field initialized per point.
  FieldID add_field(RegionHandle root, std::string name,
                    const std::function<double(coord_t)>& init);

  /// Launch a task.  Analysis happens immediately (the stream is analyzed
  /// in program order); execution cost lands in the work graph.
  LaunchID launch(TaskLaunch launch);

  /// Launch one point task per partition color (see IndexLaunch).
  /// Returns the launch ids in color order.
  std::vector<LaunchID> index_launch(const IndexLaunch& launch);

  /// Mark an application iteration boundary (used for the init-time /
  /// steady-state split of Section 8).
  void end_iteration();

  /// Dynamic tracing: bracket a launch sequence that repeats identically.
  /// The first execution of trace `id` captures a fingerprint of the
  /// sequence while analyzing normally; each later execution whose
  /// sequence matches replays the memoized analysis — the engines still
  /// run (semantics stay exact) but the simulated machine is charged only
  /// a small per-launch replay cost and no analysis messages.  A sequence
  /// mismatch invalidates the trace and falls back to full analysis.
  void begin_trace(std::uint32_t id);
  void end_trace();
  /// Launches whose analysis was replayed from a trace so far.
  std::size_t traced_launches() const { return traced_launches_; }

  /// Current values of a field over a region — a read-only observation
  /// through the coherence engine (counts as a launch).
  RegionData<double> observe(RegionHandle region, FieldID field);

  /// Replay the work graph onto the machine and compute statistics,
  /// closing a pending iteration first (the batch entry point).
  RunStats finish();

  /// Same statistics without mutating state: safe to call mid-stream from
  /// a serving loop.  A pending (un-markered) iteration is simply not
  /// reflected in init/steady times yet.
  RunStats stats() const;

  /// Retire everything provably final, bounding resident memory for
  /// unbounded streams:
  ///   1. Work-graph freeze — retire the pop-order prefix of the DES
  ///      schedule (every resident op that becomes ready before any
  ///      future op possibly can; see docs/SERVING.md for the argument),
  ///      fold its finish times into the rolling schedule hash and into
  ///      per-reference floors, then drop the op records and advance the
  ///      replay checkpoint.
  ///   2. Launch retirement — drop dep-graph predecessor lists and launch
  ///      records below min(engine watermark, schedule frontier).
  ///   3. Engine compaction — collapse dead eq-set husks once more than
  ///      `max_dead_eqsets` are resident.
  /// Analysis results, dep/schedule/value hashes and aggregate statistics
  /// are bit-identical with and without retirement, by construction.
  RetireStats retire(std::size_t max_dead_eqsets = 0);

  /// Rolling whole-stream schedule hash: the fold, in launch order, of
  /// each launch's exec-op finish time (~0 for launches without one).
  /// Equals the batch fold independent of retirement.
  std::uint64_t schedule_hash() const;

  /// Replay the resident work-graph window from the retirement checkpoint:
  /// finish times (and cumulative busy/makespan) equal a whole-stream
  /// replay's.
  sim::ReplayResult replay_graph() const;

  /// Replay the work graph and write it as a Chrome trace
  /// (chrome://tracing / Perfetto JSON) for timeline inspection.  After
  /// retire() the trace covers the resident window only.
  void export_chrome_trace(std::ostream& os) const;

private:
  /// Analysis steps -> work-graph ops; returns the tails every consumer
  /// of the analysis (copies, the task execution) must wait on.  `launch`
  /// stamps the message-ledger records of remote steps.
  std::vector<sim::OpID> emit_steps(std::span<const AnalysisStep> steps,
                                    NodeID analysis_node, sim::OpID head,
                                    LaunchID launch);

  /// Per-launch bookkeeping for telemetry (names + aggregated counters for
  /// trace span args); grown only while the recorder is enabled.
  void record_launch_telemetry(LaunchID id, const std::string& name,
                               std::span<const AnalysisStep> steps);
  /// Sample the counter series at the end of a launch.
  void sample_series(LaunchID id);

  RuntimeConfig config_;
  RegionTreeForest forest_;
  /// Per-launch scratch memory: launch() resets it on entry and carves its
  /// short-lived dependence/op-id lists out of it (common/arena.h), so the
  /// per-launch malloc traffic of the hot path collapses to pointer bumps
  /// into retained chunks.
  Arena scratch_arena_;
  obs::Recorder recorder_;
  obs::LifecycleLedger lifecycle_;
  sim::MessageLedger msg_ledger_;
  std::unique_ptr<CoherenceEngine> engine_;
  DepGraph deps_;
  sim::WorkGraph graph_;

  struct FieldInfo {
    RegionHandle root;
    std::string name;
    InstanceMap instances;
  };
  std::unordered_map<FieldID, FieldInfo> field_info_;
  FieldID next_field_ = 0;
  LaunchID next_launch_ = 0;

  /// Fingerprint of one launch inside a trace template.
  struct TraceEntry {
    std::vector<RegionReq> requirements;
    NodeID mapped_node = 0;
  };
  struct TraceState {
    enum class Phase { Capturing, Ready, Invalid };
    Phase phase = Phase::Capturing;
    std::vector<TraceEntry> entries;
    std::size_t cursor = 0; ///< position within the current replay
  };
  /// The active trace (nullptr when not tracing) and whether the current
  /// execution of it is a replay.
  TraceState* active_trace_ = nullptr;
  bool replaying_ = false;
  std::unordered_map<std::uint32_t, TraceState> traces_;
  std::size_t traced_launches_ = 0;

  // Per resident launch, indexed by LaunchID - launch_base_.  An exec_op_
  // entry of sim::kFrozenOp means the op was retired from the work graph;
  // its final window lives in exec_start_/exec_finish_.
  std::vector<sim::OpID> exec_op_;
  std::vector<SimTime> exec_start_;
  std::vector<SimTime> exec_finish_;
  std::vector<LaunchRecord> launch_log_;  ///< when recording
  /// Per node: analysis-chain tail op (sim::kFrozenOp once retired; the
  /// tail's finish then lives in issue_tail_finish_).
  std::vector<sim::OpID> issue_tail_;
  std::vector<SimTime> issue_tail_finish_;
  std::vector<sim::OpID> current_iteration_execs_;
  /// Fold of the finishes of current-iteration ops already retired: the
  /// next marker's readiness floor.
  SimTime iteration_floor_ = 0;
  sim::OpID last_marker_ = sim::kInvalidOp;
  SimTime last_marker_finish_ = 0;
  sim::OpID first_marker_ = sim::kInvalidOp;
  SimTime first_marker_finish_ = 0;
  std::size_t iteration_count_ = 0;
  std::size_t launches_this_iteration_ = 0;

  /// Retirement frontiers.  launch_base_: first launch resident in deps_ /
  /// exec_op_ / launch_log_.  sched_frontier_: first launch whose exec-op
  /// finish has not been folded into sched_hash_ yet (always >=
  /// launch_base_).
  LaunchID launch_base_ = 0;
  LaunchID sched_frontier_ = 0;
  std::uint64_t sched_hash_ = kFnvOffsetBasis;
  /// Resource state at the work-graph retirement cut; seeds every replay
  /// of the resident window.
  sim::ReplayCheckpoint ckpt_;

  /// Cumulative analysis CPU per node (always accumulated: one add per
  /// analysis step).
  std::vector<SimTime> analysis_busy_ns_;
  /// Wall-clock seconds spent in the analysis sections of launch().
  double analysis_wall_s_ = 0;
  /// Telemetry-only per-launch records (empty while the recorder is off).
  std::vector<std::string> launch_names_;
  std::vector<AnalysisCounters> launch_counters_;
};

} // namespace visrt
