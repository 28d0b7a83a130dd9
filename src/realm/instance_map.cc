#include "realm/instance_map.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>

#include "common/check.h"

namespace visrt {

namespace {
/// Interned holder sets tolerated before the first compaction (small, so
/// the tests exercise compaction).
constexpr std::size_t kMinCompact = 64;
constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();

/// Index level of a pending buffer: its bounds span at most 2^level points.
int span_level(const Interval& b) {
  return std::bit_width(static_cast<std::uint64_t>(b.hi - b.lo));
}
} // namespace

InstanceMap::HolderSets::HolderSets(std::uint32_t nodes)
    : nodes_(nodes), members_(1) {}

bool InstanceMap::HolderSets::contains(SetId s, NodeID n) const {
  if (s == kAllNodes) return true;
  const std::vector<NodeID>& m = members_[s];
  return std::binary_search(m.begin(), m.end(), n);
}

InstanceMap::SetId InstanceMap::HolderSets::intern(std::vector<NodeID> m) {
  if (m.size() == nodes_) return kAllNodes;
  auto [it, fresh] =
      ids_.emplace(std::move(m), static_cast<SetId>(members_.size()));
  if (fresh) members_.push_back(it->first);
  return it->second;
}

InstanceMap::SetId InstanceMap::HolderSets::sole(NodeID n) {
  return intern({n});
}

InstanceMap::SetId InstanceMap::HolderSets::with(SetId s, NodeID n) {
  std::vector<NodeID> m = members_[s];
  m.insert(std::upper_bound(m.begin(), m.end(), n), n);
  return intern(std::move(m));
}

InstanceMap::InstanceMap(std::uint32_t nodes, NodeID home, IntervalSet domain)
    : nodes_(nodes), sets_(nodes), compact_at_(kMinCompact) {
  require(home < nodes, "home node out of range");
  for (const Interval& iv : domain.intervals())
    runs_.emplace_hint(runs_.end(), iv.lo, Run{iv.hi, kAllNodes});
}

InstanceMap::Runs::iterator InstanceMap::seek(coord_t pos) {
  auto it = runs_.upper_bound(pos);
  if (it != runs_.begin() && std::prev(it)->second.hi >= pos) return --it;
  return it;
}

InstanceMap::Runs::iterator InstanceMap::assign(Runs::iterator it, coord_t lo,
                                                coord_t hi, SetId s) {
  Run& run = it->second;
  if (hi < run.hi) {
    runs_.emplace_hint(std::next(it), hi + 1, Run{run.hi, run.holders});
    run.hi = hi;
  }
  if (it->first < lo) {
    run.hi = lo - 1;
    return merge(runs_.emplace_hint(std::next(it), lo, Run{hi, s}));
  }
  run.holders = s;
  return merge(it);
}

InstanceMap::Runs::iterator InstanceMap::merge(Runs::iterator it) {
  auto next = std::next(it);
  if (next != runs_.end() && next->first == it->second.hi + 1 &&
      next->second.holders == it->second.holders) {
    it->second.hi = next->second.hi;
    runs_.erase(next);
  }
  if (it != runs_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.hi + 1 == it->first &&
        prev->second.holders == it->second.holders) {
      prev->second.hi = it->second.hi;
      runs_.erase(it);
      return prev;
    }
  }
  return it;
}

std::vector<CopyPlan> InstanceMap::plan_read(NodeID dst,
                                             const IntervalSet& domain) {
  require(dst < nodes_, "destination node out of range");
  std::vector<CopyPlan> plans;

  // 1. Fetch points not yet valid at dst, each from its lowest-numbered
  // holder; dst joins the holders of the whole domain.
  std::vector<std::pair<NodeID, Interval>> fetch;
  for (const Interval& iv : domain.intervals()) {
    auto it = seek(iv.lo);
    for (coord_t pos = iv.lo;; pos = it->second.hi + 1, ++it) {
      invariant(it != runs_.end() && it->first <= pos,
                "instance map: some requested points valid nowhere");
      const SetId s = it->second.holders;
      if (!sets_.contains(s, dst)) {
        coord_t hi = std::min(iv.hi, it->second.hi);
        fetch.emplace_back(sets_.lowest(s), Interval{pos, hi});
        it = assign(it, pos, hi, sets_.with(s, dst));
      }
      if (it->second.hi >= iv.hi) break;
    }
  }
  std::stable_sort(fetch.begin(), fetch.end(), [](const auto& a,
                                                  const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t k = 0; k < fetch.size();) {
    const NodeID src = fetch[k].first;
    std::vector<Interval> ivs;
    for (; k < fetch.size() && fetch[k].first == src; ++k)
      ivs.push_back(fetch[k].second);
    plans.push_back(CopyPlan{CopyPlan::Kind::Copy, src, dst,
                             IntervalSet::from_intervals(std::move(ivs))});
  }

  // 2. Apply pending reduction buffers overlapping the domain, in creation
  // order.  Applied points change value, so dst becomes the only valid
  // holder of them.
  IntervalSet changed;
  for (std::uint64_t id : overlapping_pending(domain)) {
    auto p = pending_.find(id);
    IntervalSet piece = p->second.domain.intersect(domain);
    if (piece.empty()) continue;
    changed = changed.unite(piece);
    p->second.domain = p->second.domain.subtract(piece);
    plans.push_back(CopyPlan{CopyPlan::Kind::ApplyReduction, p->second.node,
                             dst, std::move(piece), p->second.redop});
    if (p->second.domain.empty()) erase_pending(p);
  }
  set_sole(dst, changed.intervals(), /*fill_gaps=*/false);
  compact_sets();
  return plans;
}

void InstanceMap::set_sole(NodeID node, const std::vector<Interval>& domain,
                           bool fill_gaps) {
  const SetId s = sets_.sole(node);
  for (const Interval& iv : domain) {
    auto it = seek(iv.lo);
    for (coord_t pos = iv.lo;; pos = it->second.hi + 1, ++it) {
      if (it == runs_.end() || it->first > pos) {
        // Points valid nowhere: a write makes them valid at the writer.
        invariant(fill_gaps, "instance map: applied points valid nowhere");
        coord_t hi = it == runs_.end() ? iv.hi : std::min(iv.hi, it->first - 1);
        it = merge(runs_.emplace_hint(it, pos, Run{hi, s}));
      } else if (it->second.holders != s) {
        it = assign(it, pos, std::min(iv.hi, it->second.hi), s);
      }
      if (it->second.hi >= iv.hi) break;
    }
  }
}

std::vector<std::uint64_t>
InstanceMap::overlapping_pending(const IntervalSet& domain) const {
  std::vector<std::uint64_t> ids;
  if (domain.empty()) return ids;
  const Interval b = domain.bounds();
  for (std::uint64_t levels = levels_; levels != 0; levels &= levels - 1) {
    const int level = std::countr_zero(levels);
    // A buffer spanning at most 2^level points that reaches b.lo starts
    // after b.lo - 2^level.
    const coord_t from = level < 62 ? b.lo - (coord_t{1} << level)
                                    : std::numeric_limits<coord_t>::min();
    const PendingIndex& index = by_span_[level];
    for (auto it = index.lower_bound({from, 0});
         it != index.end() && it->first <= b.hi; ++it)
      ids.push_back(it->second);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void InstanceMap::erase_pending(std::map<std::uint64_t, Pending>::iterator it) {
  const Interval& b = it->second.bounds;
  const int level = span_level(b);
  by_span_[level].erase({b.lo, it->first});
  if (by_span_[level].empty()) levels_ &= ~(std::uint64_t{1} << level);
  pending_.erase(it);
}

void InstanceMap::record_write(NodeID node, const IntervalSet& domain) {
  require(node < nodes_, "writer node out of range");
  set_sole(node, domain.intervals(), /*fill_gaps=*/true);
  for (std::uint64_t id : overlapping_pending(domain)) {
    auto p = pending_.find(id);
    if (!p->second.domain.overlaps(domain)) continue;
    p->second.domain = p->second.domain.subtract(domain);
    if (p->second.domain.empty()) erase_pending(p);
  }
  compact_sets();
}

void InstanceMap::record_reduction(NodeID node, const IntervalSet& domain,
                                   ReductionOpID redop) {
  require(node < nodes_, "reducer node out of range");
  if (domain.empty()) return;
  const std::uint64_t id = next_pending_++;
  const Interval b = domain.bounds();
  pending_.emplace_hint(pending_.end(), id, Pending{node, redop, domain, b});
  const int level = span_level(b);
  by_span_[level].emplace(b.lo, id);
  levels_ |= std::uint64_t{1} << level;
}

IntervalSet InstanceMap::valid_at(NodeID node) const {
  require(node < nodes_, "node out of range");
  std::vector<Interval> ivs;
  for (const auto& [lo, run] : runs_) {
    if (!sets_.contains(run.holders, node)) continue;
    if (!ivs.empty() && ivs.back().hi + 1 == lo) {
      ivs.back().hi = run.hi;
    } else {
      ivs.push_back(Interval{lo, run.hi});
    }
  }
  return IntervalSet::from_intervals(std::move(ivs));
}

void InstanceMap::compact_sets() {
  if (sets_.size() < compact_at_) return;
  HolderSets fresh(nodes_);
  std::vector<SetId> remap(sets_.size(), kUnset);
  remap[kAllNodes] = kAllNodes;
  for (auto& [lo, run] : runs_) {
    SetId& to = remap[run.holders];
    if (to == kUnset) to = fresh.intern(sets_.members(run.holders));
    run.holders = to;
  }
  sets_ = std::move(fresh);
  compact_at_ = std::max(kMinCompact, 2 * sets_.size());
}

} // namespace visrt
