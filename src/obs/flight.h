// visrt/obs/flight.h
//
// Always-on flight recorder: a fixed-size per-thread ring of recent
// structured events (launch ids, retire epochs, session transitions,
// check-failure breadcrumbs) that costs a handful of relaxed atomic
// stores per event, plus the crash-dump machinery that makes the rings
// useful post-mortem:
//
//   - flight_record(kind, a, b) on the hot paths (session apply loop,
//     retirement, server connection lifecycle),
//   - a visrt::check failure hook and fatal-signal handlers
//     (flight_arm_crash_dumps) that merge every thread's ring, attach
//     the process context (histograms + active-session summaries via a
//     registered provider) and write a timestamped JSON dump, so a soak
//     run or a future multi-process worker that dies without a
//     reproducer still leaves its last ~few-thousand events behind.
//
// Concurrency contract: each ring has exactly one writer (its thread);
// readers (flight_snapshot, the dump path) load the per-slot atomics
// and may observe a torn slot mid-overwrite — acceptable for a
// best-effort crash artifact, and tsan-clean because every slot field
// is individually atomic.  Ordering across threads comes from a global
// sequence counter stamped into each event.
//
// Rings are pooled, never freed: a thread takes the most recently freed
// ring (or allocates one when none is free) on its first event and
// returns it when it exits.  The ring count is the peak number of
// recording threads, not the number ever started, and a dead thread's
// events stay visible until a new thread overwrites them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace visrt::obs {

/// Always true; perfbench/visbench.cpp prints it in its build record.
inline constexpr bool kFlightEnabled = true;

/// What happened.  The two payload words `a`/`b` are kind-specific:
///   Launch        a = launch id              b = statements applied so far
///   RetireEpoch   a = retire-call ordinal    b = resident launches after
///   SessionBegin  a = 0                      b = 0
///   SessionEnd    a = launches ingested      b = statements applied
///   Control       a = control line length    b = reply bytes
///   CheckFailure  a = last launch id recorded process-wide  b = 0
enum class FlightKind : std::uint32_t {
  Launch = 0,
  RetireEpoch,
  SessionBegin,
  SessionEnd,
  Control,
  CheckFailure,
};

inline const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
  case FlightKind::Launch: return "launch";
  case FlightKind::RetireEpoch: return "retire_epoch";
  case FlightKind::SessionBegin: return "session_begin";
  case FlightKind::SessionEnd: return "session_end";
  case FlightKind::Control: return "control";
  case FlightKind::CheckFailure: return "check_failure";
  }
  return "?";
}

/// One merged event as read back out of the rings.
struct FlightEvent {
  std::uint64_t seq = 0; ///< global order (1-based; 0 = empty slot)
  std::uint64_t ns = 0;  ///< prof_now_ns at record time
  FlightKind kind = FlightKind::Launch;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Context the dump attaches beside the events: the serving layer
/// registers a provider that serializes live histograms and
/// active-session summaries.  Must return a complete JSON value and be
/// callable from any thread at any time (it runs during crash
/// handling).
using FlightContextProvider = std::string (*)();

/// Append one event to the calling thread's ring (wait-free: a global
/// seq fetch_add plus five relaxed stores; overwrites the oldest slot
/// once the ring is full).
void flight_record(FlightKind kind, std::uint64_t a = 0, std::uint64_t b = 0);

/// Merge every thread's ring into one seq-ordered event list.
/// Best-effort under concurrent writers (see the header comment).
std::vector<FlightEvent> flight_snapshot();

/// Register the process context provider (nullptr to clear).
void flight_set_context_provider(FlightContextProvider provider);

/// Serialize reason + merged events + context as the dump JSON document
/// ({"schema_version":1,"reason":...,"pid":...,"events":[...],
/// "context":...}).  Exposed separately from flight_dump so tests can
/// validate the document without touching the filesystem.
std::string flight_dump_json(std::string_view reason);

/// Write a dump to `dir` (empty = current directory) as
/// visrt-flight-<epoch_ms>-<pid>.json.  Returns the path, or empty on
/// I/O failure.  Safe to call at any time, not just during crashes.
std::string flight_dump(std::string_view reason, std::string_view dir);

/// Path written by the most recent successful flight_dump (empty if
/// none).  Lets the post-abort parent locate the artifact.
std::string flight_last_dump_path();

/// Arm crash dumps: install the visrt::check failure hook and fatal
/// signal handlers (SEGV/BUS/FPE/ILL/ABRT) that write one dump to `dir`
/// before the process dies.  At most one dump is written per process no
/// matter how many threads crash.  Idempotent; later calls update the
/// directory.
void flight_arm_crash_dumps(std::string_view dir);

} // namespace visrt::obs
