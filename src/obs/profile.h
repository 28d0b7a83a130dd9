// visrt/obs/profile.h
//
// The analysis profiler: a phase ledger that attributes the analysis wall
// time of a Runtime to named sites.  The runtime and every engine wrap
// their sections in ScopedPhase(profiler, label); the report sums each
// label's events and wall time and derives how much of the measured
// analysis wall the ledger covers.
//
// Report determinism contract: the `structure` half of the JSON report
// (phase labels and event counts) is a pure function of the program,
// because every instrumentation site executes a fixed number of times per
// requirement; the `timing` half (nanoseconds, coverage) depends on the
// host and is excluded from golden comparisons.
//
// With -DVISRT_PROFILE=OFF the Profiler compiles to an empty stub: no
// timing calls, no symbols in the binary (the CI provenance-off job
// asserts this with `nm`).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#ifndef VISRT_PROFILE
#define VISRT_PROFILE 1
#endif

namespace visrt::obs {

/// Compile-time switch mirroring kProvenanceEnabled: with
/// -DVISRT_PROFILE=OFF this is false and every hook folds away.
inline constexpr bool kProfileEnabled = VISRT_PROFILE != 0;

/// Monotonic wall clock in nanoseconds (steady_clock, epoch-relative).
inline std::uint64_t prof_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t next_per_thread_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Registry of per-thread slots: each thread that calls local() gets its
/// own T, created on first use, with lock-free access afterwards (one
/// thread_local probe).  Slots are keyed by a process-unique instance id,
/// never by address, so a slot cached for a destroyed registry can never
/// be revived by allocator address reuse.  for_each visits every slot
/// ever created; synchronizing with the writing threads (join them first)
/// is the caller's job.  Memory: one cache entry per (thread, registry)
/// pair ever paired — bounded by design in visrt (the flight recorder's
/// one process-wide registry, written by the server's threads).
template <typename T>
class PerThread {
public:
  PerThread() : uid_(next_per_thread_uid()) {}
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  /// The calling thread's slot, created on first use.
  T& local() {
    thread_local Cache cache;
    if (cache.last_uid == uid_) return *static_cast<T*>(cache.last_slot);
    return lookup_slow(cache);
  }

  /// Visit every slot ever created, in creation order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& slot : slots_) fn(*slot);
  }

private:
  struct Cache {
    std::uint64_t last_uid = 0;
    void* last_slot = nullptr;
    std::unordered_map<std::uint64_t, void*> by_uid;
  };

  T& lookup_slow(Cache& cache) {
    auto it = cache.by_uid.find(uid_);
    if (it == cache.by_uid.end()) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<T>());
      it = cache.by_uid.emplace(uid_, slots_.back().get()).first;
    }
    cache.last_uid = uid_;
    cache.last_slot = it->second;
    return *static_cast<T*>(it->second);
  }

  const std::uint64_t uid_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T>> slots_;
};

/// Aggregated wall time of one instrumentation site.
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

#if VISRT_PROFILE

/// The profiler.  One instance per Runtime, used from the thread that
/// drives it; disabled (the default) every hook is a single branch.
class Profiler {
public:
  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  /// Attribute `wall_ns` of wall time to the site `label`.
  void phase(std::string_view label, std::uint64_t wall_ns) {
    if (!enabled_) return;
    phase_ns_total_ += wall_ns;
    PhaseTotal& t = phase_slot(label);
    ++t.events;
    t.wall_ns += wall_ns;
  }

  /// Running sum of all phase wall time recorded so far.  Snapshot before
  /// and after a section to compute its *self* time (section wall minus
  /// the phase time its callees recorded) -- the runtime attributes the
  /// materialize/commit time outside the engines' named phases this way
  /// without double-counting them.
  std::uint64_t phase_ns_snapshot() const { return phase_ns_total_; }

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
  std::uint64_t phase_ns_total_ = 0;
  std::vector<PhaseTotal> phases_;
  std::unordered_map<std::string, std::size_t> phase_ids_;
};

#else // !VISRT_PROFILE — constexpr stubs; no timing, no symbols.

class Profiler {
public:
  constexpr bool enabled() const { return false; }
  void enable() {}
  void phase(std::string_view, std::uint64_t) {}
  std::uint64_t phase_ns_snapshot() const { return 0; }
  ProfileReport report(std::uint64_t) const { return {}; }
  std::string structure_json() const { return "{\"phases\":[]}"; }
  std::string timing_json(std::uint64_t) const { return "{}"; }
  std::string json(std::uint64_t) const {
    return "{\"schema_version\":1,\"enabled\":false}";
  }
};

#endif // VISRT_PROFILE

/// RAII phase attribution: measures the enclosed scope's wall time and
/// adds it to `label`.  With a null or disabled profiler (or a stubbed
/// build) construction and destruction cost one branch each and no clock
/// reads.
class ScopedPhase {
public:
  ScopedPhase(Profiler* profiler, std::string_view label) {
    if (profiler == nullptr || !profiler->enabled()) return;
    profiler_ = profiler;
    label_ = label;
    begin_ns_ = prof_now_ns();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    profiler_->phase(label_, prof_now_ns() - begin_ns_);
  }

private:
  Profiler* profiler_ = nullptr;
  std::string_view label_;
  std::uint64_t begin_ns_ = 0;
};

} // namespace visrt::obs
