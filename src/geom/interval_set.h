// visrt/geom/interval_set.h
//
// IntervalSet is visrt's canonical representation of a set of points: a
// normalized (sorted, pairwise-disjoint, non-adjacent) list of inclusive
// [lo, hi] intervals over 64-bit coordinates.  All of the paper's region
// algebra — the X/Y, X\Y and X ⊕ Y operators of Section 5, the refinement
// splits of Warnock's algorithm, and the occlusion tests of ray casting —
// bottoms out in the union / intersection / difference operations here.
//
// Multi-dimensional index spaces are linearized onto this representation
// (see geom/rect.h), matching how Legion's sparse index spaces reduce to
// lists of dense runs.
//
// The overlap and superset tests often pair a short set with a long one
// (a halo row against a refined tile, a piece against a forest of
// equivalence sets), so they do not walk the long side one interval at a
// time: the side that lags steps once, and if it still lags it gallops
// (1, 2, 4, ... intervals) and bisects the last step, landing on the
// first interval that can still meet the other side.  Union, intersection
// and difference build their output interval by interval and stay linear
// merges.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace visrt {

/// One inclusive interval of coordinates, lo <= hi.
struct Interval {
  coord_t lo = 0;
  coord_t hi = -1; // default-constructed interval is empty (lo > hi)

  bool empty() const { return lo > hi; }
  coord_t size() const { return empty() ? 0 : hi - lo + 1; }
  bool contains(coord_t p) const { return lo <= p && p <= hi; }
  bool overlaps(const Interval& o) const { return lo <= o.hi && o.lo <= hi; }
  /// True when this interval fully covers `o`.
  bool covers(const Interval& o) const {
    return o.empty() || (lo <= o.lo && o.hi <= hi);
  }
  friend bool operator==(const Interval&, const Interval&) = default;
};

/// A normalized set of intervals.  Value-semantic and cheap to move; the
/// common case in the coherence analyses is a handful of intervals.
class IntervalSet {
public:
  /// The empty set.
  IntervalSet() = default;

  /// Set holding a single interval (may be empty if lo > hi).
  IntervalSet(coord_t lo, coord_t hi);

  /// Set built from arbitrary (possibly overlapping, unsorted) intervals.
  IntervalSet(std::initializer_list<Interval> intervals);
  static IntervalSet from_intervals(std::vector<Interval> intervals);

  /// Set holding exactly the given points.
  static IntervalSet from_points(std::vector<coord_t> points);

  /// Room for `n` intervals, so that `n` appends allocate once.
  void reserve(std::size_t n) { intervals_.reserve(n); }
  /// Add an interval that starts past the set's last point; one that
  /// touches the last interval extends it.  Runs that arrive in point
  /// order build a set this way without a sort.
  void append(const Interval& iv);

  bool empty() const { return intervals_.empty(); }
  /// Number of points in the set.
  coord_t volume() const;
  /// Number of maximal intervals (the storage size).
  std::size_t interval_count() const { return intervals_.size(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Smallest interval covering the whole set; empty interval if empty.
  Interval bounds() const {
    if (intervals_.empty()) return Interval{};
    return Interval{intervals_.front().lo, intervals_.back().hi};
  }

  bool contains(coord_t p) const;
  /// Superset test: does this set contain every point of `o`?
  bool contains(const IntervalSet& o) const;
  /// Do the two sets share at least one point?
  bool overlaps(const IntervalSet& o) const;
  bool overlaps(const Interval& o) const;

  /// Set union.
  IntervalSet unite(const IntervalSet& o) const;
  /// Set intersection (the paper's X/Y restricted to domains).
  IntervalSet intersect(const IntervalSet& o) const;
  /// Set difference (the paper's X\Y restricted to domains).
  IntervalSet subtract(const IntervalSet& o) const;

  /// The set translated by `delta`.
  IntervalSet shifted(coord_t delta) const;

  /// 1-D dilation: every interval grown by `radius` on both sides (useful
  /// for building halo regions of 1-D decompositions).
  IntervalSet grown(coord_t radius) const;

  friend IntervalSet operator|(const IntervalSet& a, const IntervalSet& b) {
    return a.unite(b);
  }
  friend IntervalSet operator&(const IntervalSet& a, const IntervalSet& b) {
    return a.intersect(b);
  }
  friend IntervalSet operator-(const IntervalSet& a, const IntervalSet& b) {
    return a.subtract(b);
  }
  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

  /// Apply `fn(coord_t)` to every point in ascending order.
  template <typename Fn> void for_each_point(Fn&& fn) const {
    for (const Interval& iv : intervals_)
      for (coord_t p = iv.lo; p <= iv.hi; ++p) fn(p);
  }

  /// Debug rendering, e.g. "{[0,3],[7,7]}".
  std::string to_string() const;

private:
  // Invariant: sorted by lo, disjoint, and no two intervals adjacent
  // (iv_[k].hi + 1 < iv_[k+1].lo).
  std::vector<Interval> intervals_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

} // namespace visrt
