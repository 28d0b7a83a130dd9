#include "geom/interval_store.h"

#include <utility>

#include "common/hash.h"

namespace visrt {

namespace {
std::uint64_t content_hash(const IntervalSet& s) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Interval& iv : s.intervals()) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(iv.lo));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(iv.hi));
  }
  return h;
}
} // namespace

IntervalStore::IntervalStore() { insert(IntervalSet{}, content_hash({})); }

IntervalStore::Id IntervalStore::insert(IntervalSet&& s, std::uint64_t hash) {
  Id id;
  if (free_.empty()) {
    id = static_cast<Id>(slots_.size());
    slots_.push_back(Slot{std::move(s), hash});
  } else {
    id = free_.back();
    free_.pop_back();
    slots_[id] = Slot{std::move(s), hash};
  }
  by_hash_.emplace(hash, id);
  return id;
}

IntervalStore::Id IntervalStore::intern(IntervalSet s) {
  const std::uint64_t hash = content_hash(s);
  auto [it, end] = by_hash_.equal_range(hash);
  for (; it != end; ++it)
    if (slots_[it->second].set == s) return it->second;
  return insert(std::move(s), hash);
}

template <class Compute>
IntervalStore::Id IntervalStore::memoized(Op op, Id a, Id b,
                                          Compute compute) {
  const std::uint64_t key = std::uint64_t{a} << 32 | b;
  std::unordered_map<std::uint64_t, Id>& memo = memo_[op];
  if (auto it = memo.find(key); it != memo.end()) return it->second;
  const Id id = intern(compute(slots_[a].set, slots_[b].set));
  memo.emplace(key, id);
  return id;
}

IntervalStore::Id IntervalStore::intersect(Id a, Id b) {
  if (a == b || b == kEmpty) return b;
  if (a == kEmpty) return a;
  if (a > b) std::swap(a, b); // commutative: one entry serves both orders
  return memoized(kIntersect, a, b, [](const IntervalSet& x,
                                       const IntervalSet& y) {
    return x.intersect(y);
  });
}

IntervalStore::Id IntervalStore::subtract(Id a, Id b) {
  if (a == b || a == kEmpty) return kEmpty;
  if (b == kEmpty) return a;
  return memoized(kSubtract, a, b, [](const IntervalSet& x,
                                      const IntervalSet& y) {
    return x.subtract(y);
  });
}

IntervalStore::Id IntervalStore::unite(Id a, Id b) {
  if (a == b || b == kEmpty) return a;
  if (a == kEmpty) return b;
  if (a > b) std::swap(a, b);
  return memoized(kUnite, a, b, [](const IntervalSet& x,
                                   const IntervalSet& y) {
    return x.unite(y);
  });
}

std::size_t IntervalStore::memo_size() const {
  std::size_t n = 0;
  for (const auto& memo : memo_) n += memo.size();
  return n;
}

void IntervalStore::sweep(std::span<const Id> keep) {
  std::vector<std::uint8_t> kept(slots_.size(), 0);
  kept[kEmpty] = 1;
  for (Id id : keep) kept[id] = 1;
  for (Id id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (kept[id] || !slot.live) continue;
    auto it = by_hash_.equal_range(slot.hash).first;
    while (it->second != id) ++it; // equal keys are adjacent
    by_hash_.erase(it);
    slot.set = IntervalSet{};
    slot.live = false;
    free_.push_back(id);
  }
  for (auto& memo : memo_) {
    std::erase_if(memo, [&kept](const auto& entry) {
      return !kept[entry.first >> 32] ||
             !kept[entry.first & 0xffffffffu] || !kept[entry.second];
    });
  }
}

} // namespace visrt
