// Differential test of realm/instance_map.h against ReferenceInstanceMap
// (tests/reference_instance_map.h), the per-node map it replaced.  Seeded
// traffic shaped like the paper's applications, plus traffic that churns
// the run table's leaves, drives both maps at 4, 64 and 512 nodes; after
// every operation the full plan vectors (kind, source, destination, points,
// operator and position), the valid set of every node and the
// pending-reduction count must be identical, and the map must hold exactly
// the maximal ranges those valid sets imply.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.h"
#include "realm/instance_map.h"
#include "realm/reduction_ops.h"
#include "reference_instance_map.h"

namespace visrt {
namespace {

/// Per-piece domains that a task of that piece reads, writes and reduces,
/// and writes made in order before the seeded traffic, the k-th at node
/// k mod nodes.
struct Traffic {
  IntervalSet universe;
  std::vector<std::vector<IntervalSet>> reads, writes, reduces;
  std::vector<IntervalSet> prologue;
};

/// Stencil: a grid of tiles linearized row-major, so every tile and halo
/// is one interval per row.  Tasks read their halo (radius 2, overlapping
/// up to eight neighbours) or tile, and write or reduce their tile.
Traffic stencil_shaped(std::uint32_t px, std::uint32_t py) {
  constexpr coord_t kTileRows = 5, kTileCols = 6, kRadius = 2;
  const coord_t rows = kTileRows * py, cols = kTileCols * px;
  auto rect = [&](coord_t r0, coord_t c0, coord_t r1, coord_t c1) {
    std::vector<Interval> ivs;
    for (coord_t r = std::max<coord_t>(r0, 0); r <= std::min(r1, rows - 1);
         ++r)
      ivs.push_back(Interval{r * cols + std::max<coord_t>(c0, 0),
                             r * cols + std::min(c1, cols - 1)});
    return IntervalSet::from_intervals(std::move(ivs));
  };
  Traffic t;
  t.universe = IntervalSet(0, rows * cols - 1);
  for (std::uint32_t y = 0; y < py; ++y) {
    for (std::uint32_t x = 0; x < px; ++x) {
      coord_t r0 = y * kTileRows, c0 = x * kTileCols;
      coord_t r1 = r0 + kTileRows - 1, c1 = c0 + kTileCols - 1;
      IntervalSet tile = rect(r0, c0, r1, c1);
      t.reads.push_back({rect(r0 - kRadius, c0 - kRadius, r1 + kRadius,
                              c1 + kRadius),
                         tile});
      t.writes.push_back({tile});
      t.reduces.push_back({tile});
    }
  }
  return t;
}

/// Stencil on a grid 128 tiles wide and 2 high.  The prologue writes each
/// tile at its own node, so one tile's consecutive rows lie 128 or more
/// runs apart, several leaves of the run table, and a tile's walk from row
/// to row gallops over the leaves between.
Traffic wide_stencil_shaped() {
  Traffic t = stencil_shaped(128, 2);
  for (const std::vector<IntervalSet>& writes : t.writes)
    t.prologue.push_back(writes.front());
  return t;
}

/// Circuit: contiguous primary pieces plus scattered ghost points taken
/// from other pieces.  Tasks reduce into their primary and ghost sets, read
/// primary plus ghosts, and write their primary piece.
Traffic circuit_shaped(std::uint32_t pieces, Rng& rng) {
  constexpr coord_t kPerPiece = 24;
  Traffic t;
  t.universe = IntervalSet(0, kPerPiece * pieces - 1);
  for (std::uint32_t i = 0; i < pieces; ++i) {
    IntervalSet primary(i * kPerPiece, (i + 1) * kPerPiece - 1);
    std::vector<coord_t> ghosts;
    for (int g = 0; g < 5; ++g) {
      // Mostly neighbouring pieces, sometimes anywhere.
      std::uint32_t other =
          rng.chance(0.7) ? (i + 1 + static_cast<std::uint32_t>(
                                         rng.below(2))) % pieces
                          : static_cast<std::uint32_t>(rng.below(pieces));
      ghosts.push_back(other * kPerPiece +
                       static_cast<coord_t>(rng.below(kPerPiece)));
    }
    IntervalSet ghost = IntervalSet::from_points(ghosts).subtract(primary);
    t.reads.push_back({primary.unite(ghost), primary});
    t.writes.push_back({primary});
    t.reduces.push_back({primary, ghost});
  }
  return t;
}

/// Random: each piece gets random sets of up to four sub-intervals.
/// Writes and reductions may reach past the initial domain (a write makes
/// those points valid at the writer); reads stay inside it.
Traffic random_shaped(std::uint32_t pieces, Rng& rng) {
  constexpr coord_t kUniverse = 1500;
  auto random_set = [&rng](coord_t limit) {
    if (rng.chance(0.02)) return IntervalSet();
    std::vector<Interval> ivs;
    for (std::uint64_t k = 1 + rng.below(4); k > 0; --k) {
      coord_t lo = rng.range(0, limit - 1);
      ivs.push_back(Interval{lo, std::min(limit - 1, lo + rng.range(0, 120))});
    }
    return IntervalSet::from_intervals(std::move(ivs));
  };
  Traffic t;
  t.universe = IntervalSet(0, kUniverse - 1);
  for (std::uint32_t i = 0; i < pieces; ++i) {
    t.reads.push_back({random_set(kUniverse), random_set(kUniverse)});
    t.writes.push_back({random_set(kUniverse + 200)});
    t.reduces.push_back({random_set(kUniverse + 200)});
  }
  return t;
}

/// Leaf churn: the prologue writes every point on its own, so the run
/// table starts as one run per point over many leaves.  Writes then cover
/// up to 600 points (emptying whole leaves), three points anywhere
/// (merging runs across leaf boundaries), every 40th to 120th point
/// (galloping between intervals), or start before the first point, as do
/// some reductions.  Reads stay inside the initial domain.
Traffic churn_shaped(std::uint32_t pieces, Rng& rng) {
  constexpr coord_t kUniverse = 2000;
  auto span = [&rng](coord_t length) {
    const coord_t lo = rng.range(0, kUniverse - 1);
    return IntervalSet(lo, std::min(kUniverse - 1, lo + length - 1));
  };
  auto strided = [&rng] {
    std::vector<Interval> ivs;
    for (coord_t lo = rng.range(0, 99); lo < kUniverse;
         lo += rng.range(40, 120)) {
      const coord_t hi = std::min(kUniverse - 1, lo + rng.range(0, 3));
      ivs.push_back(Interval{lo, hi});
    }
    return IntervalSet::from_intervals(std::move(ivs));
  };
  auto before_first = [&rng] {
    const coord_t lo = -rng.range(1, 100);
    return IntervalSet(lo, rng.range(0, 50));
  };
  Traffic t;
  t.universe = IntervalSet(0, kUniverse - 1);
  for (coord_t p = 0; p < kUniverse; ++p)
    t.prologue.push_back(IntervalSet(p, p));
  for (std::uint32_t i = 0; i < pieces; ++i) {
    t.reads.push_back({span(1 + rng.range(0, 299)), span(1), strided()});
    t.writes.push_back(
        {span(1 + rng.range(0, 599)), span(3), strided(), before_first()});
    t.reduces.push_back({span(1 + rng.range(0, 299)), before_first()});
  }
  return t;
}

::testing::AssertionResult same_plans(const std::vector<CopyPlan>& got,
                                      const std::vector<CopyPlan>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " plans, reference has " << want.size();
  for (std::size_t k = 0; k < got.size(); ++k) {
    const CopyPlan& a = got[k];
    const CopyPlan& b = want[k];
    if (a.kind != b.kind || a.src != b.src || a.dst != b.dst ||
        a.points != b.points || a.redop != b.redop)
      return ::testing::AssertionFailure()
             << "plan " << k << ": kind " << static_cast<int>(a.kind)
             << " src " << a.src << " dst " << a.dst << " points "
             << a.points << " redop " << a.redop
             << "; reference: kind " << static_cast<int>(b.kind) << " src "
             << b.src << " dst " << b.dst << " points " << b.points
             << " redop " << b.redop;
  }
  return ::testing::AssertionSuccess();
}

/// Maximal point ranges with one non-empty holder set in the reference.
/// A node's intervals are never adjacent, so the holder set changes at
/// every point where some node's interval starts or ends.
std::size_t maximal_runs(const ReferenceInstanceMap& ref,
                         std::uint32_t nodes) {
  std::map<coord_t, int> gained; ///< holders gained at each such point
  for (NodeID n = 0; n < nodes; ++n) {
    for (const Interval& iv : ref.valid_at(n).intervals()) {
      ++gained[iv.lo];
      --gained[iv.hi + 1];
    }
  }
  std::size_t runs = 0;
  int holders = 0;
  for (const auto& [point, count] : gained) {
    holders += count;
    if (holders > 0) ++runs;
  }
  return runs;
}

enum class Shape { Stencil, Circuit, Random, WideStencil, Churn };

struct Param {
  Shape shape;
  std::uint32_t nodes;
};

class InstanceMapDifferential : public ::testing::TestWithParam<Param> {};

TEST_P(InstanceMapDifferential, MatchesReference) {
  const auto [shape, nodes] = GetParam();
  Rng rng(0x5eed0000u + nodes * 3u + static_cast<std::uint32_t>(shape));
  // More pieces than nodes on the small machine, fewer on the large ones.
  const std::uint32_t pieces = nodes == 4 ? 9 : 64;
  const std::uint32_t side = nodes == 4 ? 3 : 8;
  Traffic t = shape == Shape::Stencil       ? stencil_shaped(side, side)
              : shape == Shape::Circuit     ? circuit_shaped(pieces, rng)
              : shape == Shape::Random      ? random_shaped(pieces, rng)
              : shape == Shape::WideStencil ? wide_stencil_shaped()
                                            : churn_shaped(pieces, rng);
  const std::uint32_t npieces = static_cast<std::uint32_t>(t.reads.size());
  InstanceMap map(nodes, 0, t.universe);
  ReferenceInstanceMap ref(nodes, 0, t.universe);
  for (std::size_t k = 0; k < t.prologue.size(); ++k) {
    const NodeID node = static_cast<NodeID>(k % nodes);
    map.record_write(node, t.prologue[k]);
    ref.record_write(node, t.prologue[k]);
  }
  const int steps = nodes >= 512 ? 400 : 1000;

  for (int step = 0; step < steps; ++step) {
    const std::uint32_t i = static_cast<std::uint32_t>(rng.below(npieces));
    // Pieces spread over the machine; a quarter of the tasks run elsewhere.
    NodeID node = rng.chance(0.75)
                      ? static_cast<NodeID>(
                            (static_cast<std::uint64_t>(i) * nodes) / npieces)
                      : static_cast<NodeID>(rng.below(nodes));
    const double roll = rng.uniform();
    std::string what;
    if (roll < 0.5) {
      const IntervalSet& d = rng.pick(t.reads[i]);
      what = "read " + d.to_string();
      ASSERT_TRUE(same_plans(map.plan_read(node, d), ref.plan_read(node, d)))
          << what << " at node " << node << ", step " << step;
    } else if (roll < 0.75) {
      const IntervalSet& d = rng.pick(t.writes[i]);
      what = "write " + d.to_string();
      map.record_write(node, d);
      ref.record_write(node, d);
    } else {
      const IntervalSet& d = rng.pick(t.reduces[i]);
      ReductionOpID redop = rng.chance(0.5) ? kRedopSum : kRedopMin;
      what = "reduce " + d.to_string();
      // The reference counts a buffer over no points until the next read
      // or write; the map drops it, and neither ever plans from it.
      if (!d.empty()) {
        map.record_reduction(node, d, redop);
        ref.record_reduction(node, d, redop);
      }
    }
    ASSERT_EQ(map.pending_reductions(), ref.pending_reductions())
        << what << " at node " << node << ", step " << step;
    for (NodeID n = 0; n < nodes; ++n)
      ASSERT_EQ(map.valid_at(n), ref.valid_at(n))
          << "node " << n << " after " << what << " at node " << node
          << ", step " << step;
    ASSERT_EQ(map.run_count(), maximal_runs(ref, nodes))
        << "ranges after " << what << " at node " << node << ", step "
        << step;
  }
}

// Holder-set ids are renumbered when the interned sets are compacted, and
// the map remembers which set adding a node to a set gives.  Here a write
// at node 0 and reads at nodes 1-6 give each point 10 + mask the set of
// node 0 and the mask's nodes, interning every such subset in mask order,
// and after each mask point 0 is written at node 3 and read at node 2
// ({3}, then {2, 3}).  The sets compact once, late in the sweep, and are
// renumbered in point order: afterwards the same (set id, node) pairs come
// back naming other sets (the id that named {0} names {0, 1, 2}), and {3}
// and {2, 3} get new ids, so a transition kept from before would answer
// with a stale id.
TEST(InstanceMapDifferential, TransitionsDoNotOutliveCompaction) {
  constexpr std::uint32_t kNodes = 8;
  const IntervalSet universe(0, 199);
  InstanceMap map(kNodes, 0, universe);
  ReferenceInstanceMap ref(kNodes, 0, universe);
  int step = 0;
  auto read = [&](NodeID node, const IntervalSet& d) {
    ASSERT_TRUE(same_plans(map.plan_read(node, d), ref.plan_read(node, d)))
        << "read " << d << " at node " << node << ", step " << step;
  };
  auto write = [&](NodeID node, const IntervalSet& d) {
    map.record_write(node, d);
    ref.record_write(node, d);
  };
  auto check = [&] {
    for (NodeID n = 0; n < kNodes; ++n)
      ASSERT_EQ(map.valid_at(n), ref.valid_at(n))
          << "node " << n << ", step " << step;
    ASSERT_EQ(map.run_count(), maximal_runs(ref, kNodes)) << "step " << step;
  };
  const IntervalSet zero(0, 0);
  write(1, zero);
  ASSERT_NO_FATAL_FAILURE(read(2, zero));
  for (coord_t mask = 1; mask < 64; ++mask, ++step) {
    const IntervalSet point(10 + mask, 10 + mask);
    write(0, point);
    for (NodeID bit = 0; bit < 6; ++bit) {
      if ((mask >> bit & 1) == 0) continue;
      ASSERT_NO_FATAL_FAILURE(read(bit + 1, point));
      ASSERT_NO_FATAL_FAILURE(check());
    }
    write(3, zero);
    ASSERT_NO_FATAL_FAILURE(check());
    ASSERT_NO_FATAL_FAILURE(read(2, zero));
    ASSERT_NO_FATAL_FAILURE(check());
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const char* shape = info.param.shape == Shape::Stencil       ? "stencil"
                      : info.param.shape == Shape::Circuit     ? "circuit"
                      : info.param.shape == Shape::Random      ? "random"
                      : info.param.shape == Shape::WideStencil ? "wide_stencil"
                                                               : "churn";
  return std::string(shape) + "_" + std::to_string(info.param.nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, InstanceMapDifferential,
    ::testing::Values(Param{Shape::Stencil, 4}, Param{Shape::Stencil, 64},
                      Param{Shape::Stencil, 512}, Param{Shape::Circuit, 4},
                      Param{Shape::Circuit, 64}, Param{Shape::Circuit, 512},
                      Param{Shape::Random, 4}, Param{Shape::Random, 64},
                      Param{Shape::Random, 512}, Param{Shape::WideStencil, 4},
                      Param{Shape::WideStencil, 64},
                      Param{Shape::WideStencil, 512}, Param{Shape::Churn, 4},
                      Param{Shape::Churn, 64}, Param{Shape::Churn, 512}),
    param_name);

} // namespace
} // namespace visrt
