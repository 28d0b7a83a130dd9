#include "obs/lifecycle.h"

#include <algorithm>
#include <sstream>

namespace visrt::obs {

const char* lifecycle_event_kind_name(LifecycleEventKind kind) {
  switch (kind) {
  case LifecycleEventKind::Create: return "create";
  case LifecycleEventKind::Refine: return "refine";
  case LifecycleEventKind::Coalesce: return "coalesce";
  case LifecycleEventKind::Migrate: return "migrate";
  }
  return "?";
}

void LifecycleLedger::record(LifecycleEventKind kind, LaunchID launch,
                             FieldID field, EqSetID eqset, EqSetID parent,
                             NodeID owner, std::uint64_t live_after) {
  if (!enabled_) return;
  PerField& pf = fields_[field];
  LifecycleEvent ev;
  ev.kind = kind;
  ev.launch = launch;
  ev.field = field;
  ev.eqset = eqset;
  ev.parent = parent;
  ev.owner = owner;
  ev.live_after = live_after;
  // A set's depth is fixed at first sighting: its parent's depth + 1, or 0
  // for roots; later events on the same set reuse it.
  auto dit = pf.depth.find(eqset);
  if (dit != pf.depth.end()) {
    ev.depth = dit->second;
  } else {
    if (parent != kNoEqSetID) {
      auto pit = pf.depth.find(parent);
      ev.depth = (pit == pf.depth.end() ? 0 : pit->second) + 1;
    }
    if (eqset != kNoEqSetID) pf.depth.emplace(eqset, ev.depth);
  }
  pf.peak_live = std::max(pf.peak_live, live_after);
  pf.events.push_back(ev);
}

std::vector<FieldID> LifecycleLedger::fields() const {
  std::vector<FieldID> out;
  for (const auto& [field, pf] : fields_) out.push_back(field);
  return out;
}

std::vector<LifecycleEvent> LifecycleLedger::events(FieldID field) const {
  auto it = fields_.find(field);
  return it == fields_.end() ? std::vector<LifecycleEvent>{}
                             : it->second.events;
}

std::size_t LifecycleLedger::event_count() const {
  std::size_t n = 0;
  for (const auto& [field, pf] : fields_) n += pf.events.size();
  return n;
}

namespace {

LifecycleSummary summarize(const std::vector<LifecycleEvent>& events,
                           std::uint64_t peak_live) {
  LifecycleSummary s;
  s.peak_live = peak_live;
  for (const LifecycleEvent& ev : events) {
    switch (ev.kind) {
    case LifecycleEventKind::Create: ++s.creates; break;
    case LifecycleEventKind::Refine: ++s.refines; break;
    case LifecycleEventKind::Coalesce: ++s.coalesces; break;
    case LifecycleEventKind::Migrate: ++s.migrates; break;
    }
    s.max_depth = std::max(s.max_depth, ev.depth);
  }
  return s;
}

void summary_json(std::ostringstream& os, const LifecycleSummary& s) {
  os << "{\"creates\":" << s.creates << ",\"refines\":" << s.refines
     << ",\"coalesces\":" << s.coalesces << ",\"migrates\":" << s.migrates
     << ",\"peak_live\":" << s.peak_live << ",\"max_depth\":" << s.max_depth
     << "}";
}

} // namespace

LifecycleSummary LifecycleLedger::summary(FieldID field) const {
  auto it = fields_.find(field);
  if (it == fields_.end()) return {};
  return summarize(it->second.events, it->second.peak_live);
}

LifecycleSummary LifecycleLedger::total() const {
  LifecycleSummary t;
  for (const auto& [field, pf] : fields_) {
    LifecycleSummary s = summarize(pf.events, pf.peak_live);
    t.creates += s.creates;
    t.refines += s.refines;
    t.coalesces += s.coalesces;
    t.migrates += s.migrates;
    t.peak_live = std::max(t.peak_live, s.peak_live);
    t.max_depth = std::max(t.max_depth, s.max_depth);
  }
  return t;
}

std::string LifecycleLedger::json() const {
  std::ostringstream os;
  LifecycleSummary t;
  for (const auto& [field, pf] : fields_) {
    LifecycleSummary s = summarize(pf.events, pf.peak_live);
    t.creates += s.creates;
    t.refines += s.refines;
    t.coalesces += s.coalesces;
    t.migrates += s.migrates;
    t.peak_live = std::max(t.peak_live, s.peak_live);
    t.max_depth = std::max(t.max_depth, s.max_depth);
  }
  os << "{\"summary\":";
  summary_json(os, t);
  os << ",\"fields\":{";
  bool first_field = true;
  for (const auto& [field, pf] : fields_) {
    if (!first_field) os << ",";
    first_field = false;
    os << "\"" << field << "\":{\"summary\":";
    summary_json(os, summarize(pf.events, pf.peak_live));
    os << ",\"events\":[";
    for (std::size_t i = 0; i < pf.events.size(); ++i) {
      const LifecycleEvent& ev = pf.events[i];
      if (i) os << ",";
      os << "{\"kind\":\"" << lifecycle_event_kind_name(ev.kind)
         << "\",\"launch\":";
      if (ev.launch == kInvalidLaunch) os << -1;
      else os << ev.launch;
      os << ",\"eqset\":";
      if (ev.eqset == kNoEqSetID) os << -1;
      else os << ev.eqset;
      os << ",\"parent\":";
      if (ev.parent == kNoEqSetID) os << -1;
      else os << ev.parent;
      os << ",\"owner\":" << ev.owner << ",\"depth\":" << ev.depth
         << ",\"live\":" << ev.live_after << "}";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

} // namespace visrt::obs
