#include "geom/interval_set.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace visrt {

namespace {
/// First interval in [it, end) for which `lags` fails, where `lags` holds
/// on a prefix of the range.  The first interval is tested on its own, so
/// a lagging side that catches up in one step pays one comparison; past
/// it the search gallops (steps of 1, 2, 4, ...) and bisects the bracket.
template <typename Lags>
const Interval* skip(const Interval* it, const Interval* end, Lags lags) {
  if (it == end || !lags(*it)) return it;
  // *it lags; the answer lies in (it, it + step] once it[step] does not.
  std::ptrdiff_t step = 1;
  while (step < end - it && lags(it[step])) {
    it += step;
    step *= 2;
  }
  return std::partition_point(it + 1, it + std::min(step, end - it), lags);
}
} // namespace

IntervalSet::IntervalSet(coord_t lo, coord_t hi) {
  if (lo <= hi) intervals_.push_back(Interval{lo, hi});
}

IntervalSet::IntervalSet(std::initializer_list<Interval> intervals)
    : IntervalSet(from_intervals(std::vector<Interval>(intervals))) {}

IntervalSet IntervalSet::from_intervals(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& iv) { return iv.empty(); });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  IntervalSet out;
  for (const Interval& iv : intervals) {
    if (!out.intervals_.empty() && iv.lo <= out.intervals_.back().hi + 1) {
      out.intervals_.back().hi = std::max(out.intervals_.back().hi, iv.hi);
    } else {
      out.intervals_.push_back(iv);
    }
  }
  return out;
}

IntervalSet IntervalSet::from_points(std::vector<coord_t> points) {
  std::vector<Interval> ivs;
  ivs.reserve(points.size());
  for (coord_t p : points) ivs.push_back(Interval{p, p});
  return from_intervals(std::move(ivs));
}

void IntervalSet::append(const Interval& iv) {
  if (iv.empty()) return;
  if (!intervals_.empty()) {
    Interval& last = intervals_.back();
    invariant(iv.lo > last.hi, "IntervalSet::append: interval out of order");
    if (iv.lo == last.hi + 1) {
      last.hi = iv.hi;
      return;
    }
  }
  intervals_.push_back(iv);
}

coord_t IntervalSet::volume() const {
  coord_t total = 0;
  for (const Interval& iv : intervals_) total += iv.size();
  return total;
}

bool IntervalSet::contains(coord_t p) const {
  // Binary search for the first interval with hi >= p.
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), p,
      [](const Interval& iv, coord_t v) { return iv.hi < v; });
  return it != intervals_.end() && it->contains(p);
}

bool IntervalSet::contains(const IntervalSet& o) const {
  // Each of o's intervals must be covered by a single interval of ours
  // (normalization guarantees no interval of o spans a gap of ours if and
  // only if coverage holds interval-by-interval).  Ours skip to the first
  // that reaches the needed interval; once one covers it, o skips every
  // later interval that ends inside it too.
  const Interval* a = intervals_.data();
  const Interval* const a_end = a + intervals_.size();
  const Interval* b = o.intervals_.data();
  const Interval* const b_end = b + o.intervals_.size();
  while (b != b_end) {
    a = skip(a, a_end, [lo = b->lo](const Interval& iv) { return iv.hi < lo; });
    if (a == a_end || !a->covers(*b)) return false;
    b = skip(b + 1, b_end,
             [hi = a->hi](const Interval& iv) { return iv.hi <= hi; });
  }
  return true;
}

bool IntervalSet::overlaps(const Interval& o) const {
  if (o.empty()) return false;
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), o.lo,
      [](const Interval& iv, coord_t v) { return iv.hi < v; });
  return it != intervals_.end() && it->lo <= o.hi;
}

bool IntervalSet::overlaps(const IntervalSet& o) const {
  // Whichever side ends before the other's current interval starts skips
  // to its first interval that reaches it.
  const Interval* a = intervals_.data();
  const Interval* const a_end = a + intervals_.size();
  const Interval* b = o.intervals_.data();
  const Interval* const b_end = b + o.intervals_.size();
  while (a != a_end && b != b_end) {
    if (a->hi < b->lo)
      a = skip(a + 1, a_end,
               [lo = b->lo](const Interval& iv) { return iv.hi < lo; });
    else if (b->hi < a->lo)
      b = skip(b + 1, b_end,
               [lo = a->lo](const Interval& iv) { return iv.hi < lo; });
    else
      return true;
  }
  return false;
}

IntervalSet IntervalSet::unite(const IntervalSet& o) const {
  IntervalSet out;
  out.intervals_.reserve(intervals_.size() + o.intervals_.size());
  std::size_t i = 0, j = 0;
  auto push = [&out](const Interval& iv) {
    if (!out.intervals_.empty() && iv.lo <= out.intervals_.back().hi + 1) {
      out.intervals_.back().hi = std::max(out.intervals_.back().hi, iv.hi);
    } else {
      out.intervals_.push_back(iv);
    }
  };
  while (i < intervals_.size() || j < o.intervals_.size()) {
    if (j == o.intervals_.size() ||
        (i < intervals_.size() && intervals_[i].lo <= o.intervals_[j].lo)) {
      push(intervals_[i++]);
    } else {
      push(o.intervals_[j++]);
    }
  }
  return out;
}

IntervalSet IntervalSet::intersect(const IntervalSet& o) const {
  IntervalSet out;
  std::size_t i = 0, j = 0;
  while (i < intervals_.size() && j < o.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = o.intervals_[j];
    coord_t lo = std::max(a.lo, b.lo);
    coord_t hi = std::min(a.hi, b.hi);
    if (lo <= hi) out.intervals_.push_back(Interval{lo, hi});
    if (a.hi < b.hi) ++i;
    else ++j;
  }
  return out;
}

IntervalSet IntervalSet::subtract(const IntervalSet& o) const {
  IntervalSet out;
  std::size_t j = 0;
  for (Interval rest : intervals_) {
    while (j < o.intervals_.size() && o.intervals_[j].hi < rest.lo) ++j;
    std::size_t k = j;
    while (!rest.empty() && k < o.intervals_.size() &&
           o.intervals_[k].lo <= rest.hi) {
      const Interval& cut = o.intervals_[k];
      if (cut.lo > rest.lo) {
        out.intervals_.push_back(Interval{rest.lo, cut.lo - 1});
      }
      rest.lo = cut.hi + 1;
      ++k;
    }
    if (!rest.empty()) out.intervals_.push_back(rest);
  }
  return out;
}

IntervalSet IntervalSet::shifted(coord_t delta) const {
  IntervalSet out;
  out.intervals_.reserve(intervals_.size());
  for (const Interval& iv : intervals_)
    out.intervals_.push_back(Interval{iv.lo + delta, iv.hi + delta});
  return out;
}

IntervalSet IntervalSet::grown(coord_t radius) const {
  require(radius >= 0, "grow radius must be non-negative");
  std::vector<Interval> grownv;
  grownv.reserve(intervals_.size());
  for (const Interval& iv : intervals_)
    grownv.push_back(Interval{iv.lo - radius, iv.hi + radius});
  return from_intervals(std::move(grownv));
}

std::string IntervalSet::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  os << '{';
  bool first = true;
  for (const Interval& iv : set.intervals()) {
    if (!first) os << ',';
    first = false;
    os << '[' << iv.lo << ',' << iv.hi << ']';
  }
  return os << '}';
}

} // namespace visrt
