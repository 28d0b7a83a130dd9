#include "obs/recorder.h"

#include <algorithm>

#include "common/check.h"

namespace visrt::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
  case SpanKind::Launch: return "launch";
  case SpanKind::Materialize: return "materialize";
  case SpanKind::Commit: return "commit";
  case SpanKind::Phase: return "phase";
  }
  return "?";
}

CounterSeries::CounterSeries(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(std::max<std::size_t>(1, capacity)) {}

void CounterSeries::push(LaunchID launch, double value) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(SeriesSample{launch, value});
    return;
  }
  ring_[head_] = SeriesSample{launch, value};
  head_ = (head_ + 1) % capacity_;
}

const SeriesSample& CounterSeries::at(std::size_t i) const {
  invariant(i < ring_.size(), "series sample index out of range");
  if (ring_.size() < capacity_) return ring_[i];
  return ring_[(head_ + i) % capacity_];
}

SeriesSummary CounterSeries::summarize() const {
  SeriesSummary s;
  s.count = total_;
  if (ring_.empty()) return s;
  std::vector<double> values;
  values.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) values.push_back(at(i).value);
  auto nth = [&](double q) {
    std::size_t k = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1) + 0.5);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
  };
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  s.p50 = nth(0.5);
  s.p95 = nth(0.95);
  s.last = at(ring_.size() - 1).value;
  return s;
}

void Recorder::enable() { enabled_ = true; }

void Recorder::set_series_capacity(std::size_t capacity) {
  series_capacity_ = std::max<std::size_t>(1, capacity);
}

void Recorder::set_max_spans(std::size_t max_spans) {
  max_spans_ = max_spans;
}

SpanID Recorder::begin_span(SpanKind kind, std::string_view name,
                            LaunchID launch, NodeID node) {
  if (!enabled_) return kInvalidSpan;
  if (spans_.size() >= max_spans_ || spans_.size() >= kInvalidSpan) {
    ++dropped_;
    open_.push_back(kInvalidSpan);
    return kInvalidSpan;
  }
  Span span;
  span.kind = kind;
  span.name.assign(name);
  span.parent = open_.empty() ? kInvalidSpan : open_.back();
  span.launch = launch;
  span.node = node;
  span.stamp = spans_.size();
  const auto id = static_cast<SpanID>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  return id;
}

void Recorder::end_span(SpanID id, const AnalysisCounters& work) {
  if (!enabled_) return;
  invariant(!open_.empty(), "end_span without a matching begin_span");
  invariant(open_.back() == id, "spans must close innermost-first");
  open_.pop_back();
  if (id == kInvalidSpan) return; // dropped at the cap
  spans_[id].counters += work;
}

std::size_t Recorder::series_id(std::string_view name) {
  auto it = series_ids_.find(std::string(name));
  if (it != series_ids_.end()) return it->second;
  std::size_t id = series_.size();
  series_.emplace_back(std::string(name), series_capacity_);
  series_ids_.emplace(std::string(name), id);
  return id;
}

void Recorder::sample(std::size_t series, LaunchID launch, double value) {
  if (!enabled_) return;
  invariant(series < series_.size(), "sample on an unknown series");
  series_[series].push(launch, value);
}

} // namespace visrt::obs
