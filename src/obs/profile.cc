#include "obs/profile.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"

namespace visrt::obs {

void Profiler::close(std::string_view label, const Mark& mark) {
  const std::uint64_t wall = prof_now_ns() - mark.begin_ns;
  const std::uint64_t nested = recorded_ns_ - mark.recorded_ns;
  const std::uint64_t self = wall > nested ? wall - nested : 0;
  recorded_ns_ += self;
  PhaseTotal& t = phase_slot(label);
  ++t.events;
  t.wall_ns += self;
}

PhaseTotal& Profiler::phase_slot(std::string_view label) {
  auto it = phase_ids_.find(std::string(label));
  if (it != phase_ids_.end()) return phases_[it->second];
  std::size_t id = phases_.size();
  PhaseTotal t;
  t.label.assign(label);
  phases_.push_back(std::move(t));
  phase_ids_.emplace(std::string(label), id);
  return phases_[id];
}

std::vector<PhaseTotal> Profiler::sorted_phases() const {
  std::vector<PhaseTotal> phases = phases_;
  std::sort(phases.begin(), phases.end(),
            [](const PhaseTotal& a, const PhaseTotal& b) {
              return a.label < b.label;
            });
  return phases;
}

ProfileReport Profiler::report(std::uint64_t analysis_wall_ns) const {
  ProfileReport r;
  r.wall_ns = analysis_wall_ns;
  r.phases = sorted_phases();
  std::uint64_t attributed = 0;
  for (const PhaseTotal& p : r.phases) attributed += p.wall_ns;
  r.unattributed_ns =
      analysis_wall_ns > attributed ? analysis_wall_ns - attributed : 0;
  r.coverage = analysis_wall_ns > 0
                   ? static_cast<double>(attributed) /
                         static_cast<double>(analysis_wall_ns)
                   : 0.0;
  return r;
}

std::string Profiler::structure_json() const {
  const std::vector<PhaseTotal> phases = sorted_phases();
  std::ostringstream os;
  os << "{\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"label\":\"" << json_escape(phases[i].label)
       << "\",\"events\":" << phases[i].events << "}";
  }
  os << "]}";
  return os.str();
}

std::string Profiler::timing_json(std::uint64_t analysis_wall_ns) const {
  const ProfileReport r = report(analysis_wall_ns);
  std::ostringstream os;
  os << "{\"wall_ns\":" << r.wall_ns
     << ",\"unattributed_ns\":" << r.unattributed_ns
     << ",\"coverage\":" << json_number(r.coverage) << ",\"phases\":[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"label\":\"" << json_escape(r.phases[i].label)
       << "\",\"wall_ns\":" << r.phases[i].wall_ns << "}";
  }
  os << "]}";
  return os.str();
}

std::string Profiler::json(std::uint64_t analysis_wall_ns) const {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"enabled\":" << (enabled_ ? "true" : "false")
     << ",\"structure\":" << structure_json()
     << ",\"timing\":" << timing_json(analysis_wall_ns) << "}";
  return os.str();
}

} // namespace visrt::obs
