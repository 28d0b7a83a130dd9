// Tests for geom/interval_set.h: normalization, algebra, and randomized
// property checks against a brute-force bitset model.
#include "geom/interval_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "common/check.h"

#include "common/rng.h"

namespace visrt {
namespace {

TEST(IntervalSet, DefaultIsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.volume(), 0);
  EXPECT_EQ(s.interval_count(), 0u);
  EXPECT_TRUE(s.bounds().empty());
}

TEST(IntervalSet, SingleInterval) {
  IntervalSet s(3, 7);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.volume(), 5);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(2));
  EXPECT_FALSE(s.contains(8));
}

TEST(IntervalSet, InvertedBoundsMakeEmptySet) {
  IntervalSet s(5, 4);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, NormalizationMergesAdjacent) {
  IntervalSet s{{0, 3}, {4, 6}};
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.volume(), 7);
}

TEST(IntervalSet, NormalizationMergesOverlapping) {
  IntervalSet s{{0, 5}, {3, 9}, {20, 22}};
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_EQ(s.volume(), 13);
}

TEST(IntervalSet, NormalizationKeepsGaps) {
  IntervalSet s{{0, 3}, {5, 6}};
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_FALSE(s.contains(4));
}

TEST(IntervalSet, FromPoints) {
  IntervalSet s = IntervalSet::from_points({5, 1, 2, 3, 9});
  EXPECT_EQ(s.interval_count(), 3u);
  EXPECT_EQ(s.volume(), 5);
  EXPECT_TRUE(s.contains(1) && s.contains(2) && s.contains(3));
  EXPECT_TRUE(s.contains(5) && s.contains(9));
}

TEST(IntervalSet, UniteDisjoint) {
  IntervalSet a(0, 4), b(10, 14);
  IntervalSet u = a | b;
  EXPECT_EQ(u.volume(), 10);
  EXPECT_EQ(u.interval_count(), 2u);
}

TEST(IntervalSet, UniteOverlapping) {
  IntervalSet a(0, 6), b(4, 10);
  EXPECT_EQ((a | b), IntervalSet(0, 10));
}

TEST(IntervalSet, IntersectBasic) {
  IntervalSet a(0, 6), b(4, 10);
  EXPECT_EQ((a & b), IntervalSet(4, 6));
}

TEST(IntervalSet, IntersectDisjointIsEmpty) {
  IntervalSet a(0, 3), b(5, 9);
  EXPECT_TRUE((a & b).empty());
}

TEST(IntervalSet, SubtractSplitsInterval) {
  IntervalSet a(0, 10), b(3, 6);
  IntervalSet d = a - b;
  EXPECT_EQ(d, (IntervalSet{{0, 2}, {7, 10}}));
}

TEST(IntervalSet, SubtractEverything) {
  IntervalSet a(2, 8);
  EXPECT_TRUE((a - IntervalSet(0, 20)).empty());
}

TEST(IntervalSet, SubtractNothing) {
  IntervalSet a(2, 8);
  EXPECT_EQ(a - IntervalSet(9, 20), a);
}

TEST(IntervalSet, ContainsSet) {
  IntervalSet big{{0, 10}, {20, 30}};
  EXPECT_TRUE(big.contains(IntervalSet(2, 5)));
  EXPECT_TRUE(big.contains((IntervalSet{{0, 10}, {22, 25}})));
  EXPECT_FALSE(big.contains(IntervalSet(8, 12)));
  EXPECT_FALSE(big.contains(IntervalSet(15, 16)));
  EXPECT_TRUE(big.contains(IntervalSet{})); // empty subset of anything
}

TEST(IntervalSet, OverlapsSet) {
  IntervalSet a{{0, 3}, {10, 13}};
  EXPECT_TRUE(a.overlaps(IntervalSet(3, 5)));
  EXPECT_TRUE(a.overlaps(IntervalSet(12, 20)));
  EXPECT_FALSE(a.overlaps(IntervalSet(4, 9)));
  EXPECT_FALSE(a.overlaps(IntervalSet{}));
}

TEST(IntervalSet, BoundsSpanGaps) {
  IntervalSet a{{2, 3}, {10, 13}};
  EXPECT_EQ(a.bounds(), (Interval{2, 13}));
}

TEST(IntervalSet, NegativeCoordinates) {
  IntervalSet a(-10, -2);
  EXPECT_EQ(a.volume(), 9);
  EXPECT_TRUE(a.contains(-5));
  IntervalSet b(-4, 4);
  EXPECT_EQ((a & b), IntervalSet(-4, -2));
}

TEST(IntervalSet, ForEachPointVisitsAscending) {
  IntervalSet a{{0, 2}, {5, 6}};
  std::vector<coord_t> pts;
  a.for_each_point([&](coord_t p) { pts.push_back(p); });
  EXPECT_EQ(pts, (std::vector<coord_t>{0, 1, 2, 5, 6}));
}

TEST(IntervalSet, ToStringRendering) {
  IntervalSet a{{0, 2}, {5, 5}};
  EXPECT_EQ(a.to_string(), "{[0,2],[5,5]}");
  EXPECT_EQ(IntervalSet{}.to_string(), "{}");
}

TEST(IntervalSet, ShiftedTranslates) {
  IntervalSet a{{0, 2}, {10, 11}};
  EXPECT_EQ(a.shifted(5), (IntervalSet{{5, 7}, {15, 16}}));
  EXPECT_EQ(a.shifted(-3), (IntervalSet{{-3, -1}, {7, 8}}));
  EXPECT_EQ(a.shifted(0), a);
  EXPECT_TRUE(IntervalSet{}.shifted(100).empty());
}

TEST(IntervalSet, GrownDilates) {
  IntervalSet a{{5, 6}, {20, 20}};
  EXPECT_EQ(a.grown(2), (IntervalSet{{3, 8}, {18, 22}}));
  // Growth merges intervals whose gaps close.
  IntervalSet b{{0, 1}, {4, 5}};
  EXPECT_EQ(b.grown(1), IntervalSet(-1, 6));
  EXPECT_EQ(b.grown(0), b);
  EXPECT_THROW(b.grown(-1), ApiError);
}

// --- Randomized property tests against a std::set<coord_t> model --------

IntervalSet random_set(Rng& rng, coord_t universe, int max_intervals) {
  std::vector<Interval> ivs;
  int n = static_cast<int>(rng.below(static_cast<std::uint64_t>(max_intervals) + 1));
  for (int i = 0; i < n; ++i) {
    coord_t lo = rng.range(0, universe - 1);
    coord_t hi = lo + rng.range(0, universe / 4);
    ivs.push_back(Interval{lo, std::min(hi, universe - 1)});
  }
  return IntervalSet::from_intervals(std::move(ivs));
}

std::set<coord_t> to_model(const IntervalSet& s) {
  std::set<coord_t> m;
  s.for_each_point([&](coord_t p) { m.insert(p); });
  return m;
}

struct AlgebraCase {
  std::uint64_t seed;
};

class IntervalSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetProperty, MatchesSetModel) {
  Rng rng(GetParam());
  constexpr coord_t kUniverse = 200;
  for (int round = 0; round < 20; ++round) {
    IntervalSet a = random_set(rng, kUniverse, 6);
    IntervalSet b = random_set(rng, kUniverse, 6);
    std::set<coord_t> ma = to_model(a), mb = to_model(b);

    // union
    std::set<coord_t> mu = ma;
    mu.insert(mb.begin(), mb.end());
    EXPECT_EQ(to_model(a | b), mu);

    // intersection
    std::set<coord_t> mi;
    for (coord_t p : ma)
      if (mb.count(p)) mi.insert(p);
    EXPECT_EQ(to_model(a & b), mi);

    // difference
    std::set<coord_t> md;
    for (coord_t p : ma)
      if (!mb.count(p)) md.insert(p);
    EXPECT_EQ(to_model(a - b), md);

    // predicates
    EXPECT_EQ(a.overlaps(b), !mi.empty());
    EXPECT_EQ(a.contains(b), std::includes(ma.begin(), ma.end(), mb.begin(),
                                           mb.end()));
    EXPECT_EQ(a.volume(), static_cast<coord_t>(ma.size()));

    // normalization invariants
    IntervalSet ab = a | b;
    const auto& ivs = ab.intervals();
    for (std::size_t k = 1; k < ivs.size(); ++k) {
      EXPECT_GT(ivs[k].lo, ivs[k - 1].hi + 1) << "adjacent or overlapping";
    }
  }
}

TEST_P(IntervalSetProperty, AlgebraicIdentities) {
  Rng rng(GetParam() ^ 0xabcdef);
  constexpr coord_t kUniverse = 150;
  for (int round = 0; round < 20; ++round) {
    IntervalSet a = random_set(rng, kUniverse, 5);
    IntervalSet b = random_set(rng, kUniverse, 5);
    IntervalSet c = random_set(rng, kUniverse, 5);
    // De Morgan-ish over a universe U: a - b = a & (U - b)
    IntervalSet u(0, kUniverse);
    EXPECT_EQ(a - b, a & (u - b));
    // distributivity: a & (b | c) == (a & b) | (a & c)
    EXPECT_EQ(a & (b | c), (a & b) | (a & c));
    // subtraction then union restores: (a - b) | (a & b) == a
    EXPECT_EQ((a - b) | (a & b), a);
    // idempotence
    EXPECT_EQ(a | a, a);
    EXPECT_EQ(a & a, a);
    EXPECT_TRUE((a - a).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1234, 99999));

// --- Skewed sizes: a long operand against a short one --------------------
//
// overlaps() and contains() gallop over the longer side, so these cases
// pair 10^3-10^4 intervals with 1-20 and check all five operators, in both
// orders, against a point bitmap over [0, universe).

using Bits = std::vector<char>;

Bits to_bits(const IntervalSet& s, coord_t universe) {
  Bits bits(static_cast<std::size_t>(universe), 0);
  s.for_each_point([&](coord_t p) { bits[static_cast<std::size_t>(p)] = 1; });
  return bits;
}

IntervalSet from_bits(const Bits& bits) {
  std::vector<Interval> ivs;
  for (std::size_t p = 0; p < bits.size(); ++p) {
    if (!bits[p]) continue;
    const coord_t q = static_cast<coord_t>(p);
    if (!ivs.empty() && ivs.back().hi + 1 == q) ivs.back().hi = q;
    else ivs.push_back(Interval{q, q});
  }
  return IntervalSet::from_intervals(std::move(ivs));
}

/// All five operators on (a, b) against the bitmap model.
void expect_matches_model(const IntervalSet& a, const IntervalSet& b,
                          coord_t universe) {
  const Bits ma = to_bits(a, universe), mb = to_bits(b, universe);
  Bits mu(ma.size()), mi(ma.size()), md(ma.size());
  bool overlap = false, includes = true;
  for (std::size_t p = 0; p < ma.size(); ++p) {
    mu[p] = ma[p] | mb[p];
    mi[p] = ma[p] & mb[p];
    md[p] = ma[p] & !mb[p];
    overlap = overlap || mi[p];
    includes = includes && (ma[p] || !mb[p]);
  }
  SCOPED_TRACE(::testing::Message() << a.interval_count() << " against "
                                    << b.interval_count() << " intervals, b = "
                                    << (b.interval_count() <= 20
                                            ? b.to_string()
                                            : std::string("(long)")));
  EXPECT_EQ(a.overlaps(b), overlap);
  EXPECT_EQ(a.contains(b), includes);
  EXPECT_EQ(a | b, from_bits(mu));
  EXPECT_EQ(a & b, from_bits(mi));
  EXPECT_EQ(a - b, from_bits(md));
}

/// `n` intervals of 1-`len` points separated by gaps of 1-`gap` points.
IntervalSet long_set(Rng& rng, int n, coord_t len, coord_t gap,
                     coord_t* universe) {
  std::vector<Interval> ivs;
  coord_t at = rng.range(0, gap);
  for (int k = 0; k < n; ++k) {
    const coord_t lo = at;
    at += rng.range(1, len);
    ivs.push_back(Interval{lo, at - 1});
    at += rng.range(1, gap);
  }
  *universe = at + gap;
  return IntervalSet::from_intervals(std::move(ivs));
}

/// 1-20 intervals drawn in one of five ways relative to `big`: anywhere;
/// inside single intervals of big (so big contains them); the same with
/// one point pushed into a gap (so it does not); a few intervals spanning
/// all of big (so they contain it); and the same with one hole punched
/// next to a point of big.
IntervalSet short_set(Rng& rng, const IntervalSet& big, coord_t universe) {
  const std::vector<Interval>& ivs = big.intervals();
  const int n = static_cast<int>(rng.range(1, 20));
  std::vector<Interval> out;
  switch (rng.below(5)) {
  case 0:
    for (int k = 0; k < n; ++k) {
      const coord_t lo = rng.range(0, universe - 1);
      out.push_back(Interval{lo, std::min(universe - 1,
                                          lo + rng.range(0, universe / 64))});
    }
    return IntervalSet::from_intervals(std::move(out));
  case 1:
  case 2: {
    for (int k = 0; k < n; ++k) {
      const Interval& host = rng.pick(ivs);
      const coord_t lo = rng.range(host.lo, host.hi);
      out.push_back(Interval{lo, rng.range(lo, host.hi)});
    }
    IntervalSet inside = IntervalSet::from_intervals(std::move(out));
    if (rng.chance(0.5)) return inside;
    // Stretch one interval to the point after its host, a gap of big.
    std::vector<Interval> poked = inside.intervals();
    Interval& iv = poked[rng.below(poked.size())];
    iv.hi = std::prev(std::upper_bound(ivs.begin(), ivs.end(), iv.lo,
                                       [](coord_t v, const Interval& h) {
                                         return v < h.lo;
                                       }))->hi + 1;
    return IntervalSet::from_intervals(std::move(poked));
  }
  default: {
    // Cut [0, universe) at n - 1 points of big's gaps, then maybe drop
    // one point of big.
    std::vector<coord_t> cuts;
    for (int k = 1; k < n; ++k) cuts.push_back(rng.pick(ivs).hi + 1);
    std::sort(cuts.begin(), cuts.end());
    coord_t lo = 0;
    for (coord_t cut : cuts) {
      if (cut > lo) out.push_back(Interval{lo, cut - 1});
      lo = cut + 1;
    }
    out.push_back(Interval{lo, universe - 1});
    IntervalSet cover = IntervalSet::from_intervals(std::move(out));
    if (rng.chance(0.5)) return cover;
    const Interval& host = rng.pick(ivs);
    return cover - IntervalSet(host.hi, host.hi);
  }
  }
}

class IntervalSetSkewed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetSkewed, LongAgainstShortMatchesModel) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ull);
  for (int round = 0; round < 12; ++round) {
    const int n = static_cast<int>(rng.range(1000, 10000));
    coord_t universe = 0;
    const IntervalSet big =
        long_set(rng, n, rng.range(1, 8), rng.range(1, 8), &universe);
    ASSERT_GE(big.interval_count(), 1000u);
    for (int k = 0; k < 8; ++k) {
      const IntervalSet small = short_set(rng, big, universe);
      expect_matches_model(big, small, universe);
      expect_matches_model(small, big, universe);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetSkewed,
                         ::testing::Values(1, 2, 3, 7, 2023));

// Stencil-shaped pairs on a 4x4 grid of 128x128 tiles, linearized row
// major: an interior tile (128 intervals), its radius-2 halo (132) and
// 2-row strips along the edges of both.
TEST(IntervalSetSkewed, StencilTileHaloAndEdgeStrips) {
  constexpr coord_t kTile = 128, kRadius = 2, kWidth = 4 * kTile;
  constexpr coord_t kUniverse = kWidth * kWidth;
  auto rect = [](coord_t r0, coord_t c0, coord_t r1, coord_t c1) {
    std::vector<Interval> ivs;
    for (coord_t r = r0; r <= r1; ++r)
      ivs.push_back(Interval{r * kWidth + c0, r * kWidth + c1});
    return IntervalSet::from_intervals(std::move(ivs));
  };
  const coord_t r0 = kTile, c0 = kTile, r1 = 2 * kTile - 1, c1 = r1;
  const IntervalSet tile = rect(r0, c0, r1, c1);
  const IntervalSet halo =
      rect(r0 - kRadius, c0 - kRadius, r1 + kRadius, c1 + kRadius);
  ASSERT_EQ(tile.interval_count(), 128u);
  ASSERT_EQ(halo.interval_count(), 132u);
  const std::vector<IntervalSet> strips = {
      rect(r0, c0, r0 + 1, c1),                     // tile's top rows
      rect(r1 - 1, c0, r1, c1),                     // tile's bottom rows
      rect(r0 - kRadius, c0, r0 - 1, c1),           // ghost rows above
      rect(r1 + 1, c0, r1 + kRadius, c1),           // ghost rows below
      rect(r1 + 1, c0 - kRadius, r1 + kRadius, c1), // ... and a corner
      rect(r1 + kRadius + 1, c0, r1 + kRadius + 2, c1), // below the halo
      rect(r0 + 60, c0 - kRadius, r0 + 61, c1),     // mid rows, left ghost
  };
  expect_matches_model(tile, halo, kUniverse);
  expect_matches_model(halo, tile, kUniverse);
  EXPECT_TRUE(halo.contains(tile));
  EXPECT_FALSE(tile.contains(halo));
  for (const IntervalSet& strip : strips) {
    for (const IntervalSet* s : {&tile, &halo}) {
      expect_matches_model(*s, strip, kUniverse);
      expect_matches_model(strip, *s, kUniverse);
    }
  }
  EXPECT_TRUE(tile.contains(strips[1]));
  EXPECT_FALSE(tile.overlaps(strips[3]));
  EXPECT_TRUE(halo.contains(strips[4]));
  EXPECT_FALSE(halo.overlaps(strips[5]));
}

} // namespace
} // namespace visrt
