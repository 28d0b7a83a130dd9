// visrt/geom/interval_store.h
//
// A store of immutable, hash-consed IntervalSets: each distinct set is held
// once under a 32-bit id, so equal sets get equal ids and comparing two
// domains is comparing two integers.  Intersection, difference and union
// on ids are memoized by (operation, a, b): a repeat costs one hash probe
// and allocates nothing.  This is the host side of what the cost model
// already assumes, index-space expressions interned as in Legion's region
// forest: ray casting splits the same sets against the same regions every
// iteration, and the model charges a repeated split as one cache lookup.
//
// Hash-consing keys on the exact content (a hash of the intervals, then
// full equality), and memo keys are exact id triples, so no collision can
// merge two different sets.  Sets are kept in a deque, so a reference
// returned by get() stays valid while other sets are interned; only
// sweep() invalidates the ids (and references) it frees.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/interval_set.h"

namespace visrt {

class IntervalStore {
public:
  using Id = std::uint32_t;
  /// The empty set: interned first, never freed.
  static constexpr Id kEmpty = 0;

  IntervalStore();

  /// The id of `s`, interning it when no equal set is held.
  Id intern(IntervalSet s);

  const IntervalSet& get(Id id) const { return slots_[id].set; }
  /// Is `id` a held set (not freed by a sweep)?
  bool holds(Id id) const { return id < slots_.size() && slots_[id].live; }

  /// Memoized set algebra on ids.
  Id intersect(Id a, Id b);
  Id subtract(Id a, Id b);
  Id unite(Id a, Id b);

  /// Distinct sets held, the empty set included.
  std::size_t size() const { return slots_.size() - free_.size(); }
  /// Memoized operations held.
  std::size_t memo_size() const;

  /// Free every set whose id is not in `keep` (the empty set is always
  /// kept), and drop every memo entry that names a freed id as an operand
  /// or a result.  Freed ids are reused by later interns.
  void sweep(std::span<const Id> keep);

private:
  enum Op : std::uint8_t { kIntersect, kSubtract, kUnite, kOps };

  struct Slot {
    IntervalSet set;
    std::uint64_t hash = 0; ///< content hash of `set`
    bool live = true;       ///< false once a sweep freed the id
  };

  Id insert(IntervalSet&& s, std::uint64_t hash);
  template <class Compute> Id memoized(Op op, Id a, Id b, Compute compute);

  std::deque<Slot> slots_;
  std::vector<Id> free_;
  /// Content hash -> ids with that hash (equal sets share one id).
  std::unordered_multimap<std::uint64_t, Id> by_hash_;
  /// Per operation, (a << 32 | b) -> result id.
  std::array<std::unordered_map<std::uint64_t, Id>, kOps> memo_;
};

} // namespace visrt
