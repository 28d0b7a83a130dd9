// visrt/fuzz/oracle.h
//
// The differential oracle.  Executes a ProgramSpec twice through the full
// Runtime stack — once with the subject engine/configuration recorded in
// the spec, once with the sequential Reference engine in its plainest
// configuration — and cross-checks:
//
//   Value       per-launch materialized buffers (hashed inside the task
//               body, before it mutates them) must match the reference,
//   FinalValue  the final observe()d value of every field must match,
//   Soundness   every interfering launch pair must be transitively ordered
//               in the subject's dependence DAG,
//   Precision   every direct dependence edge must be a true interference,
//   Schedule    the replayed DES schedule must start each task only after
//               every dependence's execution has finished,
//   Crash       any CheckFailure / ApiError / exception thrown by the
//               subject (invariants are made catchable via
//               ScopedCheckThrows for the duration of a run).
//
// All checks are deterministic: a failing (spec, seed) reproduces anywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/spy.h"
#include "fuzz/program.h"

namespace visrt {
class Runtime;
}

namespace visrt::fuzz {

enum class FailureKind : std::uint8_t {
  None,
  Value,      ///< per-launch materialized values diverge from the reference
  FinalValue, ///< final field values diverge from the reference
  Soundness,  ///< an interfering pair is unordered in the dependence DAG
  Precision,  ///< a dependence edge joins a non-interfering pair
  Schedule,   ///< the DES schedule violates a dependence edge
  Crash,      ///< the subject threw (invariant/API/other exception)
};

const char* failure_kind_name(FailureKind kind);

/// Outcome of one differential check.
struct DiffReport {
  FailureKind kind = FailureKind::None;
  std::string detail; ///< human-readable description of the first violation

  explicit operator bool() const { return kind != FailureKind::None; }
};

/// Captured results of executing one spec through the Runtime.
struct RunResult {
  bool crashed = false;
  std::string crash_message;
  /// Combined hash of the materialized buffers of each launch, captured
  /// before the body mutates them; indexed by LaunchID.
  std::vector<std::uint64_t> launch_hashes;
  /// Final observe() hash per field-table entry.
  std::vector<std::uint64_t> final_hashes;
  std::size_t dep_edges = 0;
  std::size_t traced_launches = 0;
  /// FNV fingerprint of the dependence DAG (per-launch predecessor lists).
  /// tests/analysis_golden_test.cpp pins these across commits.
  std::uint64_t dep_graph_hash = 0;
  /// FNV fingerprint of the replayed DES schedule (the finish time of
  /// every launch's execution op).
  std::uint64_t schedule_hash = 0;
};

/// Execute a spec exactly as configured (subject engine, DCR, tracing,
/// tuning) and capture values.  Never throws on subject misbehavior —
/// crashes are recorded in the result.
RunResult run_program(const ProgramSpec& spec);

/// Options for run_program_live (the introspection entry point behind
/// `visrt_cli explain` / `inspect`).
struct LiveRunOptions {
  /// Record dependence provenance, the lifecycle ledger and the message
  /// ledger.
  bool provenance = true;
  bool telemetry = false;
  /// Enable the analysis profiler (phase attribution).
  bool profile = false;
  /// Override the spec's subject engine.
  std::optional<Algorithm> subject;
};

/// A finished run whose Runtime — dependence graph with provenance, the
/// lifecycle and message ledgers, the work graph — stays alive for
/// post-hoc introspection.  `runtime` is null iff the run crashed.
struct LiveRun {
  std::unique_ptr<Runtime> runtime;
  RunResult result;
};

LiveRun run_program_live(const ProgramSpec& spec,
                         const LiveRunOptions& options = {});

/// Replay the runtime's work graph through the DES and check the schedule
/// against the dependence order: (1) every direct edge is respected — a
/// task's execution op starts only after each predecessor's execution op
/// finished — and (2) no two *transitively* ordered launches overlap in
/// simulated time, checked with DepGraph::reaches over a start-time
/// sweep (this catches overlaps ordered only through an
/// intermediate with no execution window, which the per-edge check cannot
/// see).  Returns an empty string on success, else a description of the
/// first violation.
std::string validate_schedule(const Runtime& runtime);

/// The full differential check (reference run + subject run + all five
/// check families).  Returns the first failure found, in the order Crash,
/// Value, FinalValue, Soundness, Precision, Schedule.  The dependence and
/// schedule checks are the spy verifier's (analysis/spy.h): recomputed
/// from first principles, no reference engine consulted.
DiffReport check_program(const ProgramSpec& spec);

/// Reference-free verification: execute the spec exactly as configured and
/// spy-verify the emitted dependence graph and DES schedule against ground
/// truth recomputed from geometry and privileges.  Catches bugs shared by
/// every engine, which the differential check cannot.
struct SpyCheckResult {
  bool crashed = false;
  std::string crash_message;
  analysis::SpyReport report; ///< valid iff !crashed

  /// Did the run complete and verify sound + precise?
  bool clean() const { return !crashed && report.clean(); }
};

SpyCheckResult spy_check(const ProgramSpec& spec);

} // namespace visrt::fuzz
