#include "fuzz/oracle.h"

#include <memory>
#include <optional>
#include <sstream>

#include "analysis/spy.h"
#include "common/check.h"
#include "runtime/runtime.h"

namespace visrt::fuzz {

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
  case FailureKind::None: return "none";
  case FailureKind::Value: return "value";
  case FailureKind::FinalValue: return "final-value";
  case FailureKind::Soundness: return "soundness";
  case FailureKind::Precision: return "precision";
  case FailureKind::Schedule: return "schedule";
  case FailureKind::Crash: return "crash";
  }
  return "?";
}

namespace {

std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

std::uint64_t combine_hashes(std::span<const std::uint64_t> hashes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t v : hashes) h = hash_u64(h, v);
  return h;
}

/// One spec executed through the Runtime, kept alive so the differential
/// checks can inspect the dependence DAG and work graph afterwards.
struct Execution {
  std::unique_ptr<Runtime> runtime;
  std::vector<RegionHandle> regions;
  std::vector<PartitionHandle> partitions;
  std::vector<ExpandedLaunch> expanded;
  RunResult result;
  /// Record provenance/ledgers during the run.  On by default so the
  /// differential checks can annotate precision mismatches with the
  /// provenance of the offending edge.
  bool provenance = true;
  bool telemetry = false;
  bool profile = false;
  /// Streaming ingest: retire completed prefixes every N launches
  /// (0 = batch, never retire).  See LiveRunOptions::retire_every.
  std::size_t retire_every = 0;
  std::size_t max_dead_eqsets = 1024;
  /// Maintain the order-maintenance structure on the dependence graph.  On
  /// by default: every check downstream of a run — the spy, the schedule
  /// validator, explain — answers transitive-order queries in O(1).
  bool order_queries = true;

  /// Run the whole program; invariant violations and API errors become
  /// RunResult::crashed instead of aborting the process.
  void run(const ProgramSpec& spec) {
    expanded = expand_stream(spec);
    result.launch_hashes.assign(expanded.size(), 0);
    ScopedCheckThrows catch_invariants;
    try {
      execute(spec);
    } catch (const std::exception& e) {
      result.crashed = true;
      result.crash_message = e.what();
    }
  }

private:
  void execute(const ProgramSpec& spec) {
    RuntimeConfig config;
    config.algorithm = spec.subject;
    config.tuning = spec.tuning;
    config.dcr = spec.dcr;
    config.enable_tracing = spec.tracing;
    config.track_values = true;
    config.record_launches = true; // the spy verifier reads the launch log
    config.machine.num_nodes = spec.num_nodes;
    config.provenance = provenance;
    config.telemetry = telemetry;
    config.profile = profile;
    config.order_queries = order_queries;
    runtime = std::make_unique<Runtime>(config);

    for (const TreeSpec& tree : spec.trees)
      regions.push_back(
          runtime->create_region(IntervalSet(0, tree.size - 1), tree.name));
    for (const PartitionSpec& part : spec.partitions) {
      PartitionHandle ph = runtime->create_partition(
          regions[part.parent], part.subspaces, part.name);
      partitions.push_back(ph);
      for (std::size_t c = 0; c < part.subspaces.size(); ++c)
        regions.push_back(runtime->subregion(ph, c));
    }
    for (std::size_t f = 0; f < spec.fields.size(); ++f) {
      const FieldSpec& field = spec.fields[f];
      coord_t mod = field.init_mod;
      FieldID id = runtime->add_field(
          regions[field.tree], field.name,
          [mod](coord_t p) { return static_cast<double>(p % mod); });
      invariant(id == static_cast<FieldID>(f),
                "field-table index must equal the runtime FieldID");
    }

    LaunchID next_expected = 0;
    LaunchID last_retire = 0;
    for (const StreamItem& item : spec.stream) {
      if (retire_every != 0 && next_expected >= last_retire + retire_every) {
        runtime->retire(max_dead_eqsets);
        last_retire = next_expected;
      }
      switch (item.kind) {
      case StreamItem::Kind::Task: {
        TaskLaunch launch;
        launch.name = "fuzz";
        launch.mapped_node = item.task.mapped_node;
        coord_t work = 0;
        for (const ReqSpec& req : item.task.requirements) {
          launch.requirements.push_back(RegionReq{
              regions[req.region], req.field, req.privilege});
          work += region_domain(spec, req.region).volume();
        }
        launch.work_items = work;
        launch.fn = [this](TaskContext& ctx) { body(ctx); };
        LaunchID id = runtime->launch(std::move(launch));
        invariant(id == next_expected, "launch id misaligned with expansion");
        ++next_expected;
        break;
      }
      case StreamItem::Kind::Index: {
        IndexLaunch launch;
        launch.name = "fuzz-index";
        coord_t work = 0;
        for (const IndexReqSpec& req : item.index.requirements) {
          launch.requirements.push_back(IndexReq{
              partitions[req.partition], req.field, req.privilege});
          work += region_domain(spec, req.partition).volume();
        }
        launch.work_items = work;
        launch.fn = [this](TaskContext& ctx, std::size_t) { body(ctx); };
        std::vector<LaunchID> ids = runtime->index_launch(launch);
        for (LaunchID id : ids) {
          invariant(id == next_expected,
                    "launch id misaligned with expansion");
          ++next_expected;
        }
        break;
      }
      case StreamItem::Kind::BeginTrace:
        runtime->begin_trace(item.trace_id);
        break;
      case StreamItem::Kind::EndTrace:
        runtime->end_trace();
        break;
      case StreamItem::Kind::EndIteration:
        runtime->end_iteration();
        break;
      }
    }

    for (std::size_t f = 0; f < spec.fields.size(); ++f) {
      RegionData<double> data = runtime->observe(
          regions[spec.fields[f].tree], static_cast<FieldID>(f));
      result.final_hashes.push_back(hash_region(data));
    }
    result.dep_edges = runtime->dep_graph().edge_count();
    result.traced_launches = runtime->traced_launches();

    // Structural fingerprints for the cross-commit golden and streaming
    // equivalence tests: the dependence DAG (per-launch predecessor lists)
    // and the replayed DES schedule (finish time of each execution op).
    // Both are rolling folds maintained by the dep graph / runtime, so
    // they cover launches retired out of the resident window too and are
    // bit-identical between batch and streaming ingest.
    result.dep_graph_hash = runtime->dep_graph().stream_hash();
    result.schedule_hash = runtime->schedule_hash();
  }

  /// The shared deterministic body: hash the materialized (pre-mutation)
  /// buffers, then apply the canonical writes/reductions.
  void body(TaskContext& ctx) {
    const ExpandedLaunch& launch = expanded.at(ctx.launch_id());
    std::vector<std::uint64_t> hashes;
    std::vector<RegionData<double>*> buffers;
    for (std::size_t i = 0; i < ctx.region_count(); ++i) {
      hashes.push_back(hash_region(ctx.data(i)));
      buffers.push_back(&ctx.data(i));
    }
    result.launch_hashes.at(ctx.launch_id()) = combine_hashes(hashes);
    apply_task_body(launch.requirements, buffers, ctx.launch_id(),
                    launch.salt);
  }
};

/// First retained spy violation of the given kind, or nullptr.
const analysis::SpyViolation* first_violation(const analysis::SpyReport& r,
                                              analysis::SpyViolationKind k) {
  for (const analysis::SpyViolation& v : r.violations)
    if (v.kind == k) return &v;
  return nullptr;
}

} // namespace

RunResult run_program(const ProgramSpec& spec) {
  Execution exec;
  exec.run(spec);
  return exec.result;
}

LiveRun run_program_live(const ProgramSpec& spec,
                         const LiveRunOptions& options) {
  ProgramSpec adjusted = spec;
  if (options.subject.has_value()) adjusted.subject = *options.subject;
  Execution exec;
  exec.provenance = options.provenance;
  exec.telemetry = options.telemetry;
  exec.profile = options.profile;
  exec.order_queries = options.order_queries;
  exec.retire_every = options.retire_every;
  exec.max_dead_eqsets = options.max_dead_eqsets;
  exec.run(adjusted);
  LiveRun live;
  live.result = std::move(exec.result);
  if (!live.result.crashed) live.runtime = std::move(exec.runtime);
  return live;
}

std::string validate_schedule(const Runtime& runtime) {
  const DepGraph& deps = runtime.dep_graph();
  const LaunchID base = runtime.launch_base();
  // Launches with no execution op (pure-analysis ones) have no window.
  const std::vector<ExecWindow> windows = runtime.exec_windows();
  for (LaunchID to = base; to < deps.task_count(); ++to) {
    const ExecWindow& wt = windows[to - base];
    if (!wt.valid) continue;
    for (LaunchID from : deps.preds(to)) {
      // Dependences on retired launches fold into the dependent op's
      // readiness floor (WorkGraph::retire_prefix), so the replay already
      // enforces them; only resident predecessors need checking here.
      if (from < base) continue;
      const ExecWindow& wf = windows[from - base];
      if (!wf.valid) continue;
      if (wf.finish > wt.start) {
        std::ostringstream os;
        os << "launch " << to << " starts at " << wt.start
           << "ns before its dependence " << from << " finishes at "
           << wf.finish << "ns";
        return os.str();
      }
    }
  }
  // Transitive sweep: two launches ordered through *any* path must not
  // overlap in simulated time, even when every intermediate of the path
  // has no execution window of its own (an observe launch, say) and the
  // per-edge check above is blind.  Walk windows in start order keeping
  // the set still executing; each overlapping pair costs one O(1)
  // order-maintenance query (DepGraph::reaches).
  struct Window {
    SimTime start;
    SimTime finish;
    LaunchID id;
  };
  std::vector<Window> order;
  for (LaunchID id = base; id < deps.task_count(); ++id) {
    const ExecWindow& w = windows[id - base];
    if (w.valid) order.push_back({w.start, w.finish, id});
  }
  std::sort(order.begin(), order.end(), [](const Window& x, const Window& y) {
    return x.start != y.start ? x.start < y.start : x.id < y.id;
  });
  std::vector<Window> active;
  for (const Window& w : order) {
    std::erase_if(active,
                  [&](const Window& a) { return a.finish <= w.start; });
    for (const Window& a : active) {
      const LaunchID lo = std::min(a.id, w.id);
      const LaunchID hi = std::max(a.id, w.id);
      if (!deps.reaches(lo, hi)) continue;
      std::ostringstream os;
      os << "launch " << hi << " overlaps launch " << lo
         << " in simulated time despite a transitive dependence path";
      return os.str();
    }
    active.push_back(w);
  }
  return {};
}

DiffReport check_program(const ProgramSpec& spec) {
  // Reference execution: the sequential pseudocode engine in the plainest
  // configuration.  Values are machine-independent, so the reference keeps
  // the spec's node count (mapped nodes stay valid) but drops DCR, tracing
  // and tuning.
  ProgramSpec ref_spec = spec;
  ref_spec.subject = Algorithm::Reference;
  ref_spec.dcr = false;
  ref_spec.tracing = false;
  ref_spec.tuning = EngineTuning{};
  RunResult ref = run_program(ref_spec);
  if (ref.crashed)
    return {FailureKind::Crash, "reference engine: " + ref.crash_message};

  Execution subject;
  subject.run(spec);
  const RunResult& got = subject.result;
  if (got.crashed) return {FailureKind::Crash, got.crash_message};

  invariant(got.launch_hashes.size() == ref.launch_hashes.size() &&
                got.final_hashes.size() == ref.final_hashes.size(),
            "subject and reference executed different launch streams");
  for (std::size_t id = 0; id < got.launch_hashes.size(); ++id) {
    if (got.launch_hashes[id] != ref.launch_hashes[id]) {
      std::ostringstream os;
      os << "launch " << id << " materialized values diverge from reference";
      return {FailureKind::Value, os.str()};
    }
  }
  for (std::size_t f = 0; f < got.final_hashes.size(); ++f) {
    if (got.final_hashes[f] != ref.final_hashes[f]) {
      std::ostringstream os;
      os << "final values of field " << spec.fields[f].name
         << " diverge from reference";
      return {FailureKind::FinalValue, os.str()};
    }
  }

  // Dependence and schedule checks: the spy verifier, recomputing ground
  // truth from region geometry and privileges (covers the expanded stream
  // launches and the trailing observe() launches alike).
  analysis::SpyReport spy = analysis::verify(*subject.runtime);
  if (spy.unordered_pairs > 0) {
    const analysis::SpyViolation* v = first_violation(
        spy, analysis::SpyViolationKind::UnorderedInterference);
    std::ostringstream os;
    os << "interfering launches " << v->earlier << " and " << v->later
       << " are unordered (" << v->detail << ")";
    return {FailureKind::Soundness, os.str()};
  }
  if (spy.imprecise_edges > 0) {
    const analysis::SpyViolation* v =
        first_violation(spy, analysis::SpyViolationKind::ImpreciseEdge);
    std::ostringstream os;
    os << "dependence edge " << v->earlier << " -> " << v->later
       << " joins non-interfering launches";
    // Provenance diff of the offending edge: where the subject emitted it
    // vs. the ground truth (which, for an imprecise edge, has no
    // interference at all).
    if (const obs::EdgeProvenance* p =
            subject.runtime->dep_graph().provenance(v->earlier, v->later)) {
      os << " [subject emitted it at: "
         << describe_provenance(*p, subject.runtime->forest())
         << "; ground truth: no interference]";
    }
    return {FailureKind::Precision, os.str()};
  }
  if (spy.schedule_overlaps > 0) {
    const analysis::SpyViolation* v =
        first_violation(spy, analysis::SpyViolationKind::ScheduleOverlap);
    return {FailureKind::Schedule, v->detail};
  }

  std::string schedule = validate_schedule(*subject.runtime);
  if (!schedule.empty()) return {FailureKind::Schedule, schedule};
  return {};
}

SpyCheckResult spy_check(const ProgramSpec& spec) {
  Execution exec;
  exec.run(spec);
  SpyCheckResult out;
  out.crashed = exec.result.crashed;
  out.crash_message = exec.result.crash_message;
  if (!out.crashed) out.report = analysis::verify(*exec.runtime);
  return out;
}

} // namespace visrt::fuzz
