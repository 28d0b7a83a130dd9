#include "fuzz/oracle.h"

#include <memory>
#include <optional>
#include <sstream>

#include "analysis/spy.h"
#include "common/check.h"
#include "fuzz/executor.h"
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

/// The whole spec through one Executor, with the launch log and order
/// queries every downstream check reads (the spy, the schedule validator,
/// explain).  Invariant violations and API errors become
/// RunResult::crashed instead of aborting the process; the runtime is
/// null then.  A malformed spec throws ApiError to the caller.
LiveRun execute(const ProgramSpec& spec, const LiveRunOptions& options) {
  validate(spec);
  RuntimeConfig config = runtime_config(spec);
  if (options.subject.has_value()) config.algorithm = *options.subject;
  config.track_values = true;
  config.record_launches = true;
  config.order_queries = true;
  config.provenance = options.provenance;
  config.telemetry = options.telemetry;
  config.profile = options.profile;

  LiveRun run;
  RunResult& result = run.result;
  ScopedCheckThrows catch_invariants;
  try {
    Executor exec(spec, config);
    for (const StreamItem& item : spec.stream) {
      std::span<const std::uint64_t> hashes = exec.apply(item);
      result.launch_hashes.insert(result.launch_hashes.end(), hashes.begin(),
                                  hashes.end());
    }
    result.final_hashes = exec.observe_fields();
    const Runtime& rt = exec.runtime();
    result.dep_edges = rt.dep_graph().edge_count();
    result.traced_launches = rt.traced_launches();
    // Structural fingerprints for the cross-commit golden and streaming
    // equivalence tests: rolling folds maintained by the dep graph and the
    // runtime, so they cover launches retired out of the resident window
    // too and are bit-identical between batch and streaming ingest.
    result.dep_graph_hash = rt.dep_graph().stream_hash();
    result.schedule_hash = rt.schedule_hash();
    run.runtime = exec.release_runtime();
  } catch (const std::exception& e) {
    result.crashed = true;
    result.crash_message = e.what();
  }
  return run;
}

/// First retained spy violation of the given kind, or nullptr.
const analysis::SpyViolation* first_violation(const analysis::SpyReport& r,
                                              analysis::SpyViolationKind k) {
  for (const analysis::SpyViolation& v : r.violations)
    if (v.kind == k) return &v;
  return nullptr;
}

} // namespace

RunResult run_program(const ProgramSpec& spec) {
  return execute(spec, {}).result;
}

LiveRun run_program_live(const ProgramSpec& spec,
                         const LiveRunOptions& options) {
  return execute(spec, options);
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

  LiveRun subject = execute(spec, {});
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
  LiveRun run = execute(spec, {});
  SpyCheckResult out;
  out.crashed = run.result.crashed;
  out.crash_message = run.result.crash_message;
  if (!out.crashed) out.report = analysis::verify(*run.runtime);
  return out;
}

} // namespace visrt::fuzz
