// visrt/obs/profile.h
//
// The analysis profiler: a phase ledger that attributes the analysis wall
// time of a Runtime to named sites.  The runtime and every engine wrap
// their sections in an obs::Scope (obs/recorder.h) whose catalog label is
// also its ledger label; the report sums each label's events and self
// time and derives how much of the measured analysis wall the ledger
// covers.
//
// Self time: a scope records its wall minus the wall of the scopes nested
// inside it, so nesting never double-counts and the ledger's sum never
// exceeds the wall of the outermost scope.
//
// Report determinism contract: the `structure` half of the JSON report
// (phase labels and event counts) is a pure function of the program,
// because every instrumentation site executes a fixed number of times per
// requirement; the `timing` half (nanoseconds, coverage) depends on the
// host and is excluded from golden comparisons.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace visrt::obs {

/// Always true; perfbench/visbench.cpp prints it in its build record.
inline constexpr bool kProfileEnabled = true;

/// Monotonic wall clock in nanoseconds (steady_clock, epoch-relative).
inline std::uint64_t prof_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Aggregated self time of one instrumentation site.
struct PhaseTotal {
  std::string label;
  std::uint64_t events = 0;  ///< program-determined (structure field)
  std::uint64_t wall_ns = 0; ///< host dependent (timing field)
};

/// What the report builder derives; populated only when the profiler ran.
struct ProfileReport {
  std::uint64_t wall_ns = 0;         ///< measured analysis wall time
  std::uint64_t unattributed_ns = 0; ///< wall not covered by any phase
  double coverage = 0;               ///< attributed / wall
  std::vector<PhaseTotal> phases;    ///< sorted by label
};

/// The profiler.  One instance per Runtime, used from the thread that
/// drives it; disabled (the default) it records nothing.
class Profiler {
public:
  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  /// Where an open scope started: the clock, and the self time every
  /// scope had recorded by then.
  struct Mark {
    std::uint64_t begin_ns = 0;
    std::uint64_t recorded_ns = 0;
  };
  Mark open() const { return Mark{prof_now_ns(), recorded_ns_}; }
  /// Close the scope opened at `mark`: one event of `label` whose time is
  /// the scope's wall minus what the scopes nested in it recorded.
  void close(std::string_view label, const Mark& mark);

  // ----- cold accessors (profile.cc); call after the run.

  /// Derive the report.  `analysis_wall_ns` is the measured wall time
  /// being attributed (RunStats::analysis_wall_s).
  ProfileReport report(std::uint64_t analysis_wall_ns) const;

  /// Deterministic half: {"phases":[{"label","events"}...]}.
  std::string structure_json() const;
  /// Host-dependent half: wall, coverage and per-phase wall times.
  std::string timing_json(std::uint64_t analysis_wall_ns) const;
  /// Full schema-v1 report: {"schema_version":1,"enabled":...,
  /// "structure":{...},"timing":{...}}.
  std::string json(std::uint64_t analysis_wall_ns) const;

private:
  PhaseTotal& phase_slot(std::string_view label);
  /// Phases sorted by label: the report order.
  std::vector<PhaseTotal> sorted_phases() const;

  bool enabled_ = false;
  /// Self time recorded by every closed scope: its growth while a scope
  /// is open is the wall of the scopes nested inside it.
  std::uint64_t recorded_ns_ = 0;
  std::vector<PhaseTotal> phases_;
  std::unordered_map<std::string, std::size_t> phase_ids_;
};

} // namespace visrt::obs
