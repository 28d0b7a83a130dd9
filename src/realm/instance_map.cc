#include "realm/instance_map.h"

#include <algorithm>
#include <bit>
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

InstanceMap::SetId InstanceMap::HolderSets::add(SetId s, NodeID n) {
  const std::uint64_t key = std::uint64_t{s} << 32 | n;
  if (auto it = added_.find(key); it != added_.end()) return it->second;
  std::vector<NodeID> m;
  if (s != kNoSet) m = members_[s];
  m.insert(std::upper_bound(m.begin(), m.end(), n), n);
  const SetId id = intern(std::move(m));
  added_.emplace(key, id);
  return id;
}

InstanceMap::RunTable::Pos InstanceMap::RunTable::seek(coord_t point,
                                                      Pos from) const {
  const std::size_t leaves = firsts_.size();
  if (from.leaf == leaves) return from;
  std::size_t leaf = from.leaf, idx = from.idx;
  if (leaf + 1 < leaves && firsts_[leaf + 1] <= point) {
    // Gallop to bracket the last leaf starting at or before `point`, then
    // bisect the bracket.  Every run of an earlier leaf ends before it.
    std::size_t lo = leaf + 1, step = 1;
    while (lo + step < leaves && firsts_[lo + step] <= point) {
      lo += step;
      step *= 2;
    }
    const auto first = firsts_.begin();
    leaf = static_cast<std::size_t>(
        std::upper_bound(first + lo + 1, first + std::min(lo + step, leaves),
                         point) -
        first - 1);
    idx = 0;
  }
  const std::vector<Run>& runs = leaves_[leaf];
  auto it = std::partition_point(
      runs.begin() + static_cast<std::ptrdiff_t>(idx), runs.end(),
      [point](const Run& r) { return r.hi < point; });
  if (it == runs.end()) return Pos{leaf + 1, 0};
  return Pos{leaf, static_cast<std::size_t>(it - runs.begin())};
}

InstanceMap::RunTable::Pos InstanceMap::RunTable::insert(Pos before,
                                                        const Run& run) {
  std::size_t leaf = before.leaf, idx = before.idx;
  if (idx == 0 && leaf > 0) {
    // Between two leaves, append to the earlier one: its first point stays.
    --leaf;
    idx = leaves_[leaf].size();
  } else if (leaves_.empty()) {
    leaves_.emplace_back();
    firsts_.push_back(run.lo);
  }
  if (leaves_[leaf].size() == kLeafRuns) {
    constexpr std::size_t kHalf = kLeafRuns / 2;
    std::vector<Run>& full = leaves_[leaf];
    std::vector<Run> upper(full.begin() + kHalf, full.end());
    full.erase(full.begin() + kHalf, full.end());
    firsts_.insert(firsts_.begin() + static_cast<std::ptrdiff_t>(leaf) + 1,
                   upper.front().lo);
    leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(leaf) + 1,
                   std::move(upper));
    if (idx > kHalf) {
      ++leaf;
      idx -= kHalf;
    }
  }
  std::vector<Run>& runs = leaves_[leaf];
  runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(idx), run);
  if (idx == 0) firsts_[leaf] = run.lo;
  return Pos{leaf, idx};
}

void InstanceMap::RunTable::erase(Pos p) {
  std::vector<Run>& runs = leaves_[p.leaf];
  runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(p.idx));
  if (runs.empty()) {
    leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(p.leaf));
    firsts_.erase(firsts_.begin() + static_cast<std::ptrdiff_t>(p.leaf));
  } else if (p.idx == 0) {
    firsts_[p.leaf] = runs.front().lo;
  }
}

InstanceMap::InstanceMap(std::uint32_t nodes, NodeID home, IntervalSet domain)
    : nodes_(nodes), sets_(nodes), per_source_(nodes, 0),
      compact_at_(kMinCompact) {
  require(home < nodes, "home node out of range");
  Pos end;
  for (const Interval& iv : domain.intervals())
    end = runs_.next(runs_.insert(end, Run{iv.lo, iv.hi, kAllNodes}));
}

InstanceMap::Pos InstanceMap::assign(Pos at, coord_t lo, coord_t hi,
                                     SetId s) {
  Run& run = runs_[at];
  if (hi < run.hi) {
    const Run rest{hi + 1, run.hi, run.holders};
    run.hi = hi;
    at = runs_.prev(runs_.insert(runs_.next(at), rest));
  }
  if (runs_[at].lo < lo) {
    runs_[at].hi = lo - 1;
    return merge(runs_.insert(runs_.next(at), Run{lo, hi, s}));
  }
  runs_[at].holders = s;
  return merge(at);
}

InstanceMap::Pos InstanceMap::merge(Pos at) {
  const Pos next = runs_.next(at);
  if (!runs_.is_end(next) && runs_[next].lo == runs_[at].hi + 1 &&
      runs_[next].holders == runs_[at].holders) {
    runs_[at].hi = runs_[next].hi;
    runs_.erase(next);
  }
  if (at.leaf > 0 || at.idx > 0) {
    const Pos prev = runs_.prev(at);
    if (runs_[prev].hi + 1 == runs_[at].lo &&
        runs_[prev].holders == runs_[at].holders) {
      runs_[prev].hi = runs_[at].hi;
      runs_.erase(at);
      return prev;
    }
  }
  return at;
}

std::vector<CopyPlan> InstanceMap::plan_read(NodeID dst,
                                             const IntervalSet& domain) {
  require(dst < nodes_, "destination node out of range");
  std::vector<CopyPlan> plans;

  // 1. Fetch points not yet valid at dst, each from its lowest-numbered
  // holder; dst joins the holders of the whole domain.
  fetch_.clear();
  Pos at;
  for (const Interval& iv : domain.intervals()) {
    at = runs_.seek(iv.lo, at);
    for (coord_t pos = iv.lo;; pos = runs_[at].hi + 1, at = runs_.next(at)) {
      invariant(!runs_.is_end(at) && runs_[at].lo <= pos,
                "instance map: some requested points valid nowhere");
      const Run& run = runs_[at];
      if (!sets_.contains(run.holders, dst)) {
        const coord_t hi = std::min(iv.hi, run.hi);
        fetch_.emplace_back(sets_.lowest(run.holders), Interval{pos, hi});
        at = assign(at, pos, hi, sets_.with(run.holders, dst));
      }
      if (runs_[at].hi >= iv.hi) break;
    }
  }
  // One plan per source, by ascending source, without sorting the
  // fetches: count each source's runs, size its plan's points to them, and
  // append the runs, which arrive in point order.  Between the passes a
  // source's count slot holds the index of its plan.
  sources_.clear();
  for (const auto& [src, iv] : fetch_)
    if (per_source_[src]++ == 0) sources_.push_back(src);
  std::sort(sources_.begin(), sources_.end());
  plans.reserve(sources_.size());
  for (NodeID src : sources_) {
    plans.push_back(CopyPlan{CopyPlan::Kind::Copy, src, dst, {}});
    plans.back().points.reserve(per_source_[src]);
    per_source_[src] = static_cast<std::uint32_t>(plans.size() - 1);
  }
  for (const auto& [src, iv] : fetch_)
    plans[per_source_[src]].points.append(iv);
  for (NodeID src : sources_) per_source_[src] = 0;

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
  // plan_read passes the points its reductions changed, usually none.
  if (domain.empty()) return;
  const SetId s = sets_.sole(node);
  Pos at;
  for (const Interval& iv : domain) {
    at = runs_.seek(iv.lo, at);
    for (coord_t pos = iv.lo;; pos = runs_[at].hi + 1, at = runs_.next(at)) {
      if (runs_.is_end(at) || runs_[at].lo > pos) {
        // Points valid nowhere: a write makes them valid at the writer.
        invariant(fill_gaps, "instance map: applied points valid nowhere");
        const coord_t hi =
            runs_.is_end(at) ? iv.hi : std::min(iv.hi, runs_[at].lo - 1);
        at = merge(runs_.insert(at, Run{pos, hi, s}));
      } else if (runs_[at].holders != s) {
        at = assign(at, pos, std::min(iv.hi, runs_[at].hi), s);
      }
      if (runs_[at].hi >= iv.hi) break;
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
  for (const std::vector<Run>& leaf : runs_.leaves()) {
    for (const Run& run : leaf) {
      if (!sets_.contains(run.holders, node)) continue;
      if (!ivs.empty() && ivs.back().hi + 1 == run.lo) {
        ivs.back().hi = run.hi;
      } else {
        ivs.push_back(Interval{run.lo, run.hi});
      }
    }
  }
  return IntervalSet::from_intervals(std::move(ivs));
}

std::size_t InstanceMap::run_count() const {
  std::size_t n = 0;
  for (const std::vector<Run>& leaf : runs_.leaves()) n += leaf.size();
  return n;
}

void InstanceMap::compact_sets() {
  if (sets_.size() < compact_at_) return;
  HolderSets fresh(nodes_);
  std::vector<SetId> remap(sets_.size(), kUnset);
  remap[kAllNodes] = kAllNodes;
  for (std::vector<Run>& leaf : runs_.leaves()) {
    for (Run& run : leaf) {
      SetId& to = remap[run.holders];
      if (to == kUnset) to = fresh.intern(sets_.members(run.holders));
      run.holders = to;
    }
  }
  sets_ = std::move(fresh);
  compact_at_ = std::max(kMinCompact, 2 * sets_.size());
}

} // namespace visrt
