#include "visibility/dep_graph.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "region/region_tree.h"
#include "visibility/engine.h"

namespace visrt {

void DepGraph::add_task(LaunchID id) {
  require(id == task_count(), "launches must be registered in order");
  starts_.push_back(preds_.size());
  depth_.push_back(1);
  best_depth_ = std::max<std::size_t>(best_depth_, 1);
  // Same fold the differential oracle always used for its dep-graph hash.
  stream_hash_ = fnv1a_u64(stream_hash_, 0x9e3779b97f4a7c15ULL + id);
}

void DepGraph::add_edges(LaunchID to, std::span<const LaunchID> froms) {
  require(!starts_.empty() && to + 1 == task_count(),
          "dependence edges must target the newest launch");
  for (LaunchID f : froms) {
    require(f < to, "dependence must point backwards in program order");
    require(f >= base_, "dependence names a retired launch");
  }
  // The newest launch's run is the table's tail: merge by appending, then
  // sort the run.
  const std::size_t start = starts_.back();
  for (LaunchID f : froms) {
    if (std::find(preds_.begin() + static_cast<std::ptrdiff_t>(start),
                  preds_.end(), f) == preds_.end()) {
      preds_.push_back(f);
      ++edges_;
    }
  }
  std::sort(preds_.begin() + static_cast<std::ptrdiff_t>(start), preds_.end());
  std::size_t& d = depth_.back();
  for (LaunchID f : run(to - base_)) {
    stream_hash_ = fnv1a_u64(stream_hash_, f);
    d = std::max(d, depth_[f - base_] + 1);
  }
  best_depth_ = std::max(best_depth_, d);
}

void DepGraph::retire_prefix(LaunchID new_base) {
  require(new_base >= base_ && new_base <= task_count(),
          "dependence-graph retirement point out of range");
  if (new_base == base_) return;
  const auto drop = static_cast<std::ptrdiff_t>(new_base - base_);
  const std::size_t cut =
      new_base == task_count() ? preds_.size() : starts_[new_base - base_];
  preds_.erase(preds_.begin(),
               preds_.begin() + static_cast<std::ptrdiff_t>(cut));
  starts_.erase(starts_.begin(), starts_.begin() + drop);
  for (std::size_t& s : starts_) s -= cut;
  depth_.erase(depth_.begin(), depth_.begin() + drop);
  for (auto it = prov_.begin(); it != prov_.end();) {
    if (it->first.second < new_base)
      it = prov_.erase(it);
    else
      ++it;
  }
  base_ = new_base;
}

std::span<const LaunchID> DepGraph::run(std::size_t slot) const {
  const std::size_t end =
      slot + 1 < starts_.size() ? starts_[slot + 1] : preds_.size();
  return std::span<const LaunchID>(preds_).subspan(starts_[slot],
                                                   end - starts_[slot]);
}

std::span<const LaunchID> DepGraph::preds(LaunchID id) const {
  require(id >= base_ && id < task_count(), "unknown launch");
  return run(id - base_);
}

bool DepGraph::has_edge(LaunchID from, LaunchID to) const {
  std::span<const LaunchID> p = preds(to);
  return std::binary_search(p.begin(), p.end(), from);
}

bool DepGraph::reaches(LaunchID from, LaunchID to) const {
  if (from >= to) return false;
  require(from >= base_, "reachability query names a retired launch");
  // Backwards DFS from `to`; ids below `from` cannot reach it.  Every
  // intermediate of a from->to path lies strictly between them, so the
  // walk never leaves the resident window.
  std::vector<LaunchID> stack{to};
  std::vector<bool> seen(starts_.size(), false);
  while (!stack.empty()) {
    LaunchID cur = stack.back();
    stack.pop_back();
    for (LaunchID p : run(cur - base_)) {
      if (p == from) return true;
      if (p > from && !seen[p - base_]) {
        seen[p - base_] = true;
        stack.push_back(p);
      }
    }
  }
  return false;
}

void DepGraph::set_provenance(LaunchID from, LaunchID to,
                              const obs::EdgeProvenance& prov) {
  prov_.emplace(std::make_pair(from, to), prov);
}

const obs::EdgeProvenance* DepGraph::provenance(LaunchID from,
                                                LaunchID to) const {
  auto it = prov_.find(std::make_pair(from, to));
  return it == prov_.end() ? nullptr : &it->second;
}

std::string describe_provenance(const obs::EdgeProvenance& prov,
                                const RegionTreeForest& forest) {
  std::ostringstream os;
  os << algorithm_name(static_cast<Algorithm>(prov.engine)) << " "
     << obs::prov_phase_name(prov.phase);
  if (prov.eqset != kNoEqSetID) os << " via eqset " << prov.eqset;
  os << " on field " << prov.field;
  RegionHandle region{prov.region};
  if (region.valid() && prov.region < forest.num_regions()) {
    os << " @ ";
    std::vector<RegionHandle> path = forest.path_from_root(region);
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i) os << "/";
      os << forest.name(path[i]);
    }
  }
  os << " (" << to_string(prov.prev) << " -> " << to_string(prov.cur) << ")";
  return os.str();
}

} // namespace visrt
