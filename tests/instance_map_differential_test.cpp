// Differential test of realm/instance_map.h against ReferenceInstanceMap
// (tests/reference_instance_map.h), the per-node map it replaced.  Seeded
// traffic shaped like the paper's applications drives both maps at 4, 64
// and 512 nodes; after every operation the full plan vectors (kind, source,
// destination, points, operator and position), the valid set of every node
// and the pending-reduction count must be identical.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "realm/instance_map.h"
#include "realm/reduction_ops.h"
#include "reference_instance_map.h"

namespace visrt {
namespace {

/// Per-piece domains that a task of that piece reads, writes and reduces.
struct Traffic {
  IntervalSet universe;
  std::vector<std::vector<IntervalSet>> reads, writes, reduces;
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

enum class Shape { Stencil, Circuit, Random };

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
  Traffic t = shape == Shape::Stencil   ? stencil_shaped(side, side)
              : shape == Shape::Circuit ? circuit_shaped(pieces, rng)
                                        : random_shaped(pieces, rng);
  const std::uint32_t npieces = static_cast<std::uint32_t>(t.reads.size());
  InstanceMap map(nodes, 0, t.universe);
  ReferenceInstanceMap ref(nodes, 0, t.universe);
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
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const char* shape = info.param.shape == Shape::Stencil   ? "stencil"
                      : info.param.shape == Shape::Circuit ? "circuit"
                                                           : "random";
  return std::string(shape) + "_" + std::to_string(info.param.nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, InstanceMapDifferential,
    ::testing::Values(Param{Shape::Stencil, 4}, Param{Shape::Stencil, 64},
                      Param{Shape::Stencil, 512}, Param{Shape::Circuit, 4},
                      Param{Shape::Circuit, 64}, Param{Shape::Circuit, 512},
                      Param{Shape::Random, 4}, Param{Shape::Random, 64},
                      Param{Shape::Random, 512}),
    param_name);

} // namespace
} // namespace visrt
