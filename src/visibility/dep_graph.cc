#include "visibility/dep_graph.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "region/region_tree.h"
#include "visibility/engine.h"

namespace visrt {

void DepGraph::add_task(LaunchID id) {
  require(id == task_count(), "launches must be registered in order");
  preds_.emplace_back();
  depth_.push_back(1);
  best_depth_ = std::max<std::size_t>(best_depth_, 1);
  // Same fold the differential oracle always used for its dep-graph hash.
  stream_hash_ = fnv1a_u64(stream_hash_, 0x9e3779b97f4a7c15ULL + id);
  if (order_) order_->add_node(id);
}

void DepGraph::add_edges(LaunchID to, std::span<const LaunchID> froms) {
  require(to >= base_ && to < task_count(), "unknown destination launch");
  std::span<LaunchID>& p = preds_[to - base_];
  // Merge into the scratch list, then persist it with one arena copy; a
  // re-finalized list abandons its old span (reclaimed at the next
  // retirement compaction).
  merge_scratch_.assign(p.begin(), p.end());
  bool grew = false;
  for (LaunchID f : froms) {
    require(f < to, "dependence must point backwards in program order");
    require(f >= base_, "dependence names a retired launch");
    if (std::find(merge_scratch_.begin(), merge_scratch_.end(), f) ==
        merge_scratch_.end()) {
      merge_scratch_.push_back(f);
      grew = true;
      ++edges_;
      if (order_) order_->add_edge(f, to);
    }
  }
  std::sort(merge_scratch_.begin(), merge_scratch_.end());
  if (grew)
    p = arena_.copy_span<LaunchID>(
        std::span<const LaunchID>(merge_scratch_));
  std::size_t& d = depth_[to - base_];
  for (LaunchID f : p) {
    stream_hash_ = fnv1a_u64(stream_hash_, f);
    d = std::max(d, depth_[f - base_] + 1);
  }
  best_depth_ = std::max(best_depth_, d);
}

void DepGraph::retire_prefix(LaunchID new_base) {
  require(new_base >= base_ && new_base <= task_count(),
          "dependence-graph retirement point out of range");
  if (new_base == base_) return;
  const std::size_t drop = new_base - base_;
  preds_.erase(preds_.begin(), preds_.begin() + static_cast<std::ptrdiff_t>(drop));
  depth_.erase(depth_.begin(), depth_.begin() + static_cast<std::ptrdiff_t>(drop));
  // Compact the surviving lists into a fresh arena so the retired
  // prefix's memory (and any abandoned pre-merge spans) is released —
  // the streaming service's bounded-residency contract.
  Arena compacted;
  for (std::span<LaunchID>& s : preds_)
    s = compacted.copy_span<LaunchID>(std::span<const LaunchID>(s));
  arena_ = std::move(compacted);
  for (auto it = prov_.begin(); it != prov_.end();) {
    if (it->first.second < new_base)
      it = prov_.erase(it);
    else
      ++it;
  }
  base_ = new_base;
  if (order_) order_->retire_prefix(new_base);
}

std::span<const LaunchID> DepGraph::preds(LaunchID id) const {
  require(id >= base_ && id < task_count(), "unknown launch");
  return preds_[id - base_];
}

bool DepGraph::has_edge(LaunchID from, LaunchID to) const {
  require(to >= base_ && to < task_count(), "unknown launch");
  std::span<const LaunchID> p = preds_[to - base_];
  return std::binary_search(p.begin(), p.end(), from);
}

bool DepGraph::reaches(LaunchID from, LaunchID to) const {
  if (from >= to) return false;
  require(from >= base_, "reachability query names a retired launch");
  if (order_) return order_->precedes(from, to);
  // Backwards DFS from `to`; ids below `from` cannot reach it.  Every
  // intermediate of a from->to path lies strictly between them, so the
  // walk never leaves the resident window.
  std::vector<LaunchID> stack{to};
  std::vector<bool> seen(preds_.size(), false);
  while (!stack.empty()) {
    LaunchID cur = stack.back();
    stack.pop_back();
    for (LaunchID p : preds_[cur - base_]) {
      if (p == from) return true;
      if (p > from && !seen[p - base_]) {
        seen[p - base_] = true;
        stack.push_back(p);
      }
    }
  }
  return false;
}

void DepGraph::enable_order_queries() {
  if (order_) return;
  order_.emplace();
  // Replay node-then-its-edges so every edge targets the newest node — the
  // relabel-free fast path.
  for (LaunchID id = base_; id < task_count(); ++id) {
    order_->add_node(id);
    for (LaunchID f : preds_[id - base_])
      if (f >= base_) order_->add_edge(f, id);
  }
}

const OrderMaintenance& DepGraph::order() const {
  require(order_.has_value(),
          "order queries are not enabled on this dependence graph");
  return *order_;
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
