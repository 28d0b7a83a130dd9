// Differential tests for geom/interval_store.h: every memoized operation on
// ids against plain IntervalSet (which interval_set_test checks against
// point bitmaps), on random and skewed sets; hash-consing (equal sets get
// equal ids, and sets the cost model's bounds-and-volume signature cannot
// tell apart get different ones); and sweeps, after which the ids still
// held keep their content and no memo entry answers with a freed id.

#include "geom/interval_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace visrt {
namespace {

using Id = IntervalStore::Id;

/// Up to `max_intervals` random intervals in [0, span), unsorted and
/// possibly overlapping, normalized by from_intervals.
IntervalSet random_set(Rng& rng, int max_intervals, coord_t span) {
  std::vector<Interval> ivs;
  const int n = static_cast<int>(rng.below(max_intervals + 1));
  for (int i = 0; i < n; ++i) {
    const coord_t lo = rng.range(0, span - 1);
    ivs.push_back(Interval{lo, std::min(span - 1, lo + rng.range(0, 6))});
  }
  return IntervalSet::from_intervals(std::move(ivs));
}

/// Random sets with some skew: many short sets, some long fragmented ones
/// (a forest of pieces against a halo row), and repeats.
std::vector<IntervalSet> random_sets(Rng& rng, int count) {
  std::vector<IntervalSet> sets;
  for (int i = 0; i < count; ++i) {
    if (i % 7 == 3)
      sets.push_back(random_set(rng, 400, 4000));
    else if (i % 5 == 4 && !sets.empty())
      sets.push_back(sets[rng.below(sets.size())]);
    else
      sets.push_back(random_set(rng, 4, 200));
  }
  return sets;
}

/// Check every operation on every pair of `ids` against the plain sets.
void expect_algebra(IntervalStore& store, const std::vector<Id>& ids,
                    const std::vector<IntervalSet>& plain) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const IntervalSet& a = plain[i];
      const IntervalSet& b = plain[j];
      const Id meet = store.intersect(ids[i], ids[j]);
      const Id diff = store.subtract(ids[i], ids[j]);
      const Id join = store.unite(ids[i], ids[j]);
      ASSERT_EQ(store.get(meet), a.intersect(b)) << a << " & " << b;
      ASSERT_EQ(store.get(diff), a.subtract(b)) << a << " - " << b;
      ASSERT_EQ(store.get(join), a.unite(b)) << a << " | " << b;
      // Results are interned like any other set.
      ASSERT_EQ(meet, store.intern(a.intersect(b)));
      ASSERT_EQ(diff, store.intern(a.subtract(b)));
      ASSERT_EQ(join, store.intern(a.unite(b)));
      // A repeat answers from the memo with the same id.
      ASSERT_EQ(store.intersect(ids[i], ids[j]), meet);
      ASSERT_EQ(store.subtract(ids[i], ids[j]), diff);
      ASSERT_EQ(store.unite(ids[i], ids[j]), join);
    }
  }
}

TEST(IntervalStore, OperationsMatchPlainSets) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    IntervalStore store;
    std::vector<IntervalSet> plain = random_sets(rng, 40);
    std::vector<Id> ids;
    for (const IntervalSet& s : plain) ids.push_back(store.intern(s));
    for (std::size_t i = 0; i < ids.size(); ++i)
      ASSERT_EQ(store.get(ids[i]), plain[i]);
    expect_algebra(store, ids, plain);
  }
}

TEST(IntervalStore, EqualSetsGetEqualIds) {
  Rng rng(7);
  IntervalStore store;
  EXPECT_EQ(store.intern(IntervalSet{}), IntervalStore::kEmpty);
  EXPECT_EQ(store.intern(IntervalSet(5, 4)), IntervalStore::kEmpty);
  std::vector<IntervalSet> plain = random_sets(rng, 200);
  std::vector<Id> ids;
  for (const IntervalSet& s : plain) ids.push_back(store.intern(s));
  for (std::size_t i = 0; i < plain.size(); ++i)
    for (std::size_t j = 0; j < plain.size(); ++j)
      ASSERT_EQ(ids[i] == ids[j], plain[i] == plain[j]) << i << " " << j;
  // The same content built another way: shuffled, split intervals.
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::vector<Interval> pieces;
    for (const Interval& iv : plain[i].intervals()) {
      const coord_t mid = iv.lo + (iv.hi - iv.lo) / 2;
      pieces.push_back(Interval{mid + 1, iv.hi});
      pieces.push_back(Interval{iv.lo, mid});
    }
    std::reverse(pieces.begin(), pieces.end());
    ASSERT_EQ(store.intern(IntervalSet::from_intervals(pieces)), ids[i]);
  }
  // Same bounds and volume (the cost model's split signature), different
  // sets: hash-consing keys on the content, so the ids differ.
  const Id x = store.intern(IntervalSet{{0, 3}, {6, 7}});
  const Id y = store.intern(IntervalSet{{0, 1}, {4, 7}});
  EXPECT_NE(x, y);
  EXPECT_EQ(store.get(store.intersect(x, y)), (IntervalSet{{0, 1}, {6, 7}}));
}

TEST(IntervalStore, SweepKeepsHeldIdsAndDropsStaleMemo) {
  Rng rng(11);
  IntervalStore store;
  std::vector<IntervalSet> plain = random_sets(rng, 60);
  std::vector<Id> ids;
  for (const IntervalSet& s : plain) ids.push_back(store.intern(s));
  for (int round = 0; round < 8; ++round) {
    expect_algebra(store, ids, plain);
    // Keep a random half; everything else, memoized results included, is
    // freed and its ids may come back holding other sets.
    std::vector<Id> keep_ids;
    std::vector<IntervalSet> keep_plain;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (rng.chance(0.5)) {
        keep_ids.push_back(ids[i]);
        keep_plain.push_back(plain[i]);
      }
    }
    store.sweep(keep_ids);
    std::vector<Id> distinct = keep_ids;
    distinct.push_back(IntervalStore::kEmpty);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    ASSERT_EQ(store.size(), distinct.size()) << "round " << round;
    for (std::size_t i = 0; i < keep_ids.size(); ++i) {
      ASSERT_TRUE(store.holds(keep_ids[i]));
      ASSERT_EQ(store.get(keep_ids[i]), keep_plain[i]) << "round " << round;
    }
    for (std::size_t i = 0; i < ids.size(); ++i)
      ASSERT_EQ(store.holds(ids[i]),
                std::binary_search(distinct.begin(), distinct.end(), ids[i]));
    // Fresh sets reuse the freed ids; the kept ones' memo must not answer
    // with a set that a freed id now names.
    ids = keep_ids;
    plain = keep_plain;
    for (const IntervalSet& s : random_sets(rng, 30)) {
      ids.push_back(store.intern(s));
      plain.push_back(s);
    }
  }
  expect_algebra(store, ids, plain);
}

TEST(IntervalStore, SweepDropsMemoEntriesNamingFreedIds) {
  IntervalStore store;
  const Id a = store.intern(IntervalSet(0, 9));
  const Id b = store.intern(IntervalSet(5, 14));
  const Id c = store.intern(IntervalSet(20, 29));
  const Id ab = store.intersect(a, b);
  store.unite(a, c);
  store.subtract(b, c);
  EXPECT_EQ(store.memo_size(), 3u);
  // Keep a and b: the intersection's result and both entries naming c go.
  store.sweep(std::vector<Id>{a, b});
  EXPECT_EQ(store.memo_size(), 0u);
  EXPECT_FALSE(store.holds(ab));
  EXPECT_FALSE(store.holds(c));
  EXPECT_EQ(store.get(store.intersect(a, b)), IntervalSet(5, 9));
  // Keep the result too: the entry survives.
  store.sweep(std::vector<Id>{a, b, store.intersect(a, b)});
  EXPECT_EQ(store.memo_size(), 1u);
}

} // namespace
} // namespace visrt
