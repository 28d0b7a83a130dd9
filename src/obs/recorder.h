// visrt/obs/recorder.h
//
// The telemetry recorder and the one instrumentation scope that feeds it:
//
//   - Spans mark one unit of analysis on the launch clock: the runtime
//     opens a Launch span per task launch with Materialize/Commit children
//     per region requirement, and the runtime and every engine open Phase
//     spans around their internal phases.  Every span captures the
//     AnalysisCounters delta of the work performed inside it.
//   - Counter time-series sample run-state gauges (live equivalence sets,
//     composite views, history entries, messages, per-node analysis busy
//     time) at launch granularity into bounded ring buffers.
//   - The recorder owns the Runtime's analysis profiler (obs/profile.h),
//     so one pointer reaches both sinks.
//
// Instrumentation sites open an obs::Scope with one catalog label of the
// form <layer>/<site> (docs/OBSERVABILITY.md lists them).  The label is the
// span name when spans are on and the ledger label when the profiler is
// on; each sink is gated at runtime, and with both off a scope costs one
// branch per sink and no clock read.
//
// A recorder belongs to one Runtime and is written from the thread that
// drives it; the read accessors (spans(), series()) are meant for after
// the run.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "obs/counters.h"
#include "obs/profile.h"

namespace visrt::obs {

using SpanID = std::uint32_t;
inline constexpr SpanID kInvalidSpan = std::numeric_limits<SpanID>::max();

enum class SpanKind : std::uint8_t { Launch, Materialize, Commit, Phase };

const char* span_kind_name(SpanKind kind);

/// One closed span.  `counters` is the analysis work performed between
/// begin and end (including work attributed to remote owners).
struct Span {
  SpanKind kind = SpanKind::Phase;
  std::string name;             ///< task name or catalog label
  SpanID parent = kInvalidSpan; ///< enclosing span, if any
  LaunchID launch = kInvalidLaunch;
  NodeID node = 0;              ///< analyzing node
  /// Begin-order stamp: spans()[i].stamp == i.
  std::uint64_t stamp = 0;
  AnalysisCounters counters;
};

/// One sample of a counter series, positioned on the launch clock (launch
/// ids are the paper's global analysis clock).
struct SeriesSample {
  LaunchID launch = 0;
  double value = 0;
};

/// Summary statistics over the retained window of one series.
struct SeriesSummary {
  std::uint64_t count = 0; ///< samples ever pushed (not just retained)
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double last = 0;
};

/// Bounded ring buffer of launch-indexed samples for one counter.  Once
/// `capacity` samples are retained the oldest are overwritten, so memory
/// stays constant for arbitrarily long runs.
class CounterSeries {
public:
  CounterSeries(std::string name, std::size_t capacity);

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  void push(LaunchID launch, double value);

  /// Samples retained (<= capacity).
  std::size_t size() const { return ring_.size(); }
  /// Samples ever pushed.
  std::uint64_t total() const { return total_; }
  /// i-th retained sample, oldest first.
  const SeriesSample& at(std::size_t i) const;

  SeriesSummary summarize() const;

private:
  std::string name_;
  std::size_t capacity_;
  std::vector<SeriesSample> ring_;
  std::size_t head_ = 0; ///< overwrite position once the ring is full
  std::uint64_t total_ = 0;
};

class Recorder {
public:
  bool enabled() const { return enabled_; }

  /// Turn recording on.  Must be called before any spans/samples; the
  /// limits apply to series created afterwards.
  void enable();
  void set_series_capacity(std::size_t capacity);
  void set_max_spans(std::size_t max_spans);

  /// Open a span; returns kInvalidSpan when disabled or at the span cap
  /// (end_span on the result is then a no-op, but must still be called to
  /// balance the nesting stack).  The parent is the innermost open span.
  SpanID begin_span(SpanKind kind, std::string_view name, LaunchID launch,
                    NodeID node);
  /// Close the innermost open span, attributing `work` to it.
  void end_span(SpanID id, const AnalysisCounters& work);

  /// Find-or-create a series.  Ids are stable for the recorder's lifetime.
  std::size_t series_id(std::string_view name);
  void sample(std::size_t series, LaunchID launch, double value);

  /// All recorded spans in stamp order (spans()[i].stamp == i).
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t spans_dropped() const { return dropped_; }
  std::size_t series_count() const { return series_.size(); }
  const CounterSeries& series(std::size_t id) const { return series_[id]; }

  /// The analysis profiler, enabled independently of the spans.
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

private:
  bool enabled_ = false;
  Profiler profiler_;
  std::size_t series_capacity_ = 4096;
  std::size_t max_spans_ = 1u << 20;
  /// A span's id is its index (and stamp); spans past max_spans_ are
  /// dropped, keeping recorded ids dense.
  std::vector<Span> spans_;
  /// Ids of the open spans, innermost last (kInvalidSpan marks a span
  /// dropped at the cap).
  std::vector<SpanID> open_;
  std::uint64_t dropped_ = 0;
  std::vector<CounterSeries> series_;
  std::unordered_map<std::string, std::size_t> series_ids_;
};

/// RAII instrumentation scope: one catalog label fed to whichever sinks
/// are enabled.
///
///   - Spans on: opens a span named `label` whose counters are the
///     counter delta of the enclosed code.  `local` (optional) points at
///     the accumulator the enclosed code increments directly; `steps`
///     (optional) at the step vector it appends attributed work to.  The
///     span's counters are (local now - local at begin) + the counters of
///     the steps appended since begin.
///   - Profiler on: adds one event of `label` with the scope's self time
///     to the ledger.  Launch scopes skip the ledger, so its coverage stays
///     a share of the analysis wall, which excludes task bodies.
///
/// With a null recorder, or with both sinks off, construction and
/// destruction cost one branch per sink and no clock read.
class Scope {
public:
  Scope(Recorder* recorder, SpanKind kind, std::string_view label,
        LaunchID launch, NodeID node, const AnalysisCounters* local = nullptr,
        const std::vector<AnalysisStep>* steps = nullptr)
      : label_(label), local_(local), steps_(steps) {
    if (recorder == nullptr) return;
    if (recorder->enabled()) {
      spans_ = recorder;
      if (local_ != nullptr) local_begin_ = *local_;
      if (steps_ != nullptr) steps_begin_ = steps_->size();
      id_ = recorder->begin_span(kind, label, launch, node);
    }
    if (kind != SpanKind::Launch && recorder->profiler().enabled()) {
      ledger_ = &recorder->profiler();
      mark_ = ledger_->open();
    }
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  ~Scope() {
    if (ledger_ != nullptr) ledger_->close(label_, mark_);
    if (spans_ == nullptr) return;
    AnalysisCounters work;
    if (local_ != nullptr) work += *local_ - local_begin_;
    if (steps_ != nullptr) {
      for (std::size_t i = steps_begin_; i < steps_->size(); ++i)
        work += (*steps_)[i].counters;
    }
    spans_->end_span(id_, work);
  }

private:
  Recorder* spans_ = nullptr; ///< non-null while a span is open
  Profiler* ledger_ = nullptr; ///< non-null while the scope is timed
  std::string_view label_;
  SpanID id_ = kInvalidSpan;
  const AnalysisCounters* local_;
  const std::vector<AnalysisStep>* steps_;
  AnalysisCounters local_begin_;
  std::size_t steps_begin_ = 0;
  Profiler::Mark mark_;
};

} // namespace visrt::obs
