// visrt/serve/session.h
//
// One streaming-analysis session: the incremental counterpart of the
// fuzzer's batch oracle execution.  A session accepts `.visprog` IR a
// chunk of bytes at a time (straight off a socket or stdin), parses it
// statement-by-statement with VisprogStreamParser, and applies each
// launch to a private fuzz::Executor as it arrives — dependence analysis
// is incremental per launch, and completed prefixes are retired
// (Runtime::retire) under the session's residency caps, so memory stays
// flat over unbounded streams.
//
// The batch oracle drives the same executor over a whole spec, so
// everything a session computes is bit-identical to the batch path by
// construction:
//
//   value hash       rolling FNV fold of the per-launch materialized-value
//                    hashes in launch order (fnv1a_all of
//                    RunResult::launch_hashes),
//   dep-graph hash   DepGraph::stream_hash (covers retired launches),
//   schedule hash    Runtime::schedule_hash (frozen prefix + live suffix),
//   final hashes     per-field observe() at end-of-stream.
//
// The serve tests and `visrt_fuzz --stream` assert exactly this
// equivalence against fuzz::run_program.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/spy.h"
#include "fuzz/executor.h"
#include "fuzz/program.h"
#include "fuzz/serialize.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "runtime/runtime.h"

namespace visrt::serve {

/// The serving layer's latency histograms (docs/OBSERVABILITY.md): one
/// block of always-on log-bucketed histograms recording the session hot
/// paths.  The server owns one shared block that every session records
/// into (wait-free, so sessions never serialize on telemetry); a session
/// constructed without one owns a private block (bench/stream_sustained
/// reads per-run percentiles that way).
struct SessionLatency {
  obs::Histogram launch_analysis;  ///< per-launch analysis ns (runtime tap)
  obs::Histogram statement_parse;  ///< per-statement parse ns
  obs::Histogram retire_pause;     ///< Runtime::retire pause ns
  obs::Histogram metrics_request;  ///< @metrics reply-build ns
};

/// Memory-bounding and execution knobs of one session.
struct SessionOptions {
  /// Retire completed prefixes every N ingested launches (0 = only when
  /// max_resident_launches forces it).
  std::size_t retire_every = 1024;
  /// Residency cap: retire whenever more than this many launches are
  /// resident (0 = no cap).  The cap is enforced opportunistically — the
  /// retirement cut can only advance past launches whose schedule is
  /// provably final — so residency plateaus at the cap plus the
  /// analysis-dependent tail rather than truncating it.
  std::size_t max_resident_launches = 8192;
  /// Per-equivalence-set history depth before value payloads collapse into
  /// a composite view (RuntimeConfig::max_history_depth; 0 = never).
  std::size_t max_history_depth = 64;
  /// Husk-compaction slack forwarded to Runtime::retire.
  std::size_t max_dead_eqsets = 1024;
  /// Execute task bodies and track region values (matches the oracle).
  /// Off for analysis-only ingest, where value hashes stay zero.
  bool track_values = true;
  /// Forwarded to RuntimeConfig::analysis_threads, which must be 1.
  /// Kept because perfbench/visbench.cpp assigns it.
  unsigned analysis_threads = 1;
  /// Override the stream's configured engine.
  std::optional<Algorithm> subject;
  /// Verify each launch's emitted edges on arrival with the incremental
  /// spy (analysis/spy.h): interference recomputed from geometry
  /// + privileges, transitive order answered by the O(1)
  /// order-maintenance labels, sustained across retirement epochs.
  /// Each recorded violation (the report's per-kind cap) is reported
  /// through on_error once, as it is found, and the aggregate report
  /// lands in SessionResult::verify.
  bool verify = false;
  /// Shared latency sink (see SessionLatency).  Null: the session owns a
  /// private block.  Must outlive the session.
  SessionLatency* latency = nullptr;
  /// Test hook: trip an internal invariant once this many launches have
  /// been ingested (0 = never).  Exercises the flight-recorder crash-dump
  /// path end-to-end (tests and the CI crash-dump smoke).
  std::uint64_t inject_check_failure_after = 0;
  /// Recoverable statement errors (malformed or semantically invalid
  /// lines) are reported here and the offending statement is skipped; the
  /// session keeps parsing.  Unset: errors are silently counted only.
  std::function<void(const std::string&)> on_error;
};

/// Monotone per-session (and, summed, per-server) ingest counters.
struct SessionCounters {
  std::uint64_t statements = 0; ///< statements applied (excl. rejected)
  std::uint64_t rejected = 0;   ///< statements rejected as recoverable
  std::uint64_t launches = 0;   ///< launches ingested (index points incl.)
  std::uint64_t iterations = 0; ///< end_iteration markers
  std::uint64_t retire_calls = 0;
  std::uint64_t retired_launches = 0;
  std::uint64_t retired_ops = 0;
  std::uint64_t eqset_slots_reclaimed = 0;
  /// Maximum resident launches/ops observed *after* each item's retirement
  /// opportunity — the quantity the residency caps bound.
  std::uint64_t peak_resident_launches = 0;
  std::uint64_t peak_resident_ops = 0;
  /// Inline verification progress (zero unless SessionOptions::verify).
  std::uint64_t verified_launches = 0;
  std::uint64_t verify_violations = 0; ///< unordered + imprecise so far
};

/// Results of a finished session (valid after finish()).
struct SessionResult {
  /// FNV fold of the per-launch materialized-value hashes in launch order;
  /// equals fnv1a_all over fuzz::RunResult::launch_hashes of a batch run.
  /// 0 when value tracking is off.
  std::uint64_t value_hash = 0;
  /// Final observe() hash per field-table entry.
  std::vector<std::uint64_t> final_hashes;
  std::uint64_t dep_graph_hash = 0;
  std::uint64_t schedule_hash = 0;
  std::size_t launches = 0;
  std::size_t dep_edges = 0;
  /// Aggregate incremental-verification report (SessionOptions::verify).
  std::optional<analysis::SpyReport> verify;
};

class StreamSession {
public:
  explicit StreamSession(SessionOptions options = {});
  ~StreamSession();

  /// Ingest raw bytes: parse complete statements and apply them to the
  /// session's Runtime.  Recoverable errors go to options.on_error; a
  /// non-recoverable failure (engine invariant, crash) throws and poisons
  /// the session.
  void feed(std::string_view bytes);

  /// End of input: parse any final unterminated line, close the pending
  /// iteration, run the trailing per-field observes, and capture the
  /// result hashes.  Idempotent.
  void finish();
  bool finished() const { return finished_; }

  /// Valid after finish().
  const SessionResult& result() const { return result_; }
  const SessionCounters& counters() const { return counters_; }

  /// The session's runtime; null until the first stream item (or field
  /// declaration at finish()) instantiates it.
  Runtime* runtime() {
    return executor_ != nullptr ? &executor_->runtime() : nullptr;
  }
  const Runtime* runtime() const {
    return executor_ != nullptr ? &executor_->runtime() : nullptr;
  }

  /// The declaration mirror accumulated so far.
  const fuzz::ProgramSpec& spec() const { return spec_; }

  /// The latency block this session records into (shared or private).
  SessionLatency& latency() { return *latency_; }
  const SessionLatency& latency() const { return *latency_; }

  /// Launches left in the current over-cap retire backoff window (0 =
  /// not backing off).  The @health verdict degrades while any session
  /// is backing off: its live analysis tail exceeds the residency cap.
  std::size_t retire_backoff() const { return retire_backoff_; }

private:
  void apply_parsed();
  void apply(const fuzz::VisprogStatement& st);
  void apply_decl(const fuzz::VisprogStatement& st);
  void apply_item(const fuzz::StreamItem& item);
  void instantiate();
  void drain_verify();
  void maybe_retire(bool force);
  void note_residency();

  SessionOptions options_;
  fuzz::VisprogStreamParser parser_;
  fuzz::ProgramSpec spec_; ///< declaration mirror + config (stream not kept)
  int trace_depth_ = 0;
  std::size_t launches_since_retire_ = 0;
  /// Launches to ingest before the over-cap trigger may force another
  /// retire, set after a retire that failed to get back under the cap.
  std::size_t retire_backoff_ = 0;

  std::unique_ptr<fuzz::Executor> executor_;
  std::unique_ptr<analysis::IncrementalVerifier> verifier_;

  std::unique_ptr<SessionLatency> owned_latency_;
  SessionLatency* latency_ = nullptr;

  SessionCounters counters_;
  SessionResult result_;
  bool finished_ = false;
};

} // namespace visrt::serve
