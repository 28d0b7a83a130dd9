// Randomized property tests for realm/instance_map.h against a simple
// model: after any sequence of reads/writes/reductions,
//   - every requested read is fully covered by planned copies plus local
//     validity,
//   - at least one node holds a valid copy of every point,
//   - pending reductions never target points a later write overwrote: a
//     read applies exactly the pending buffers that overlap it, once each,
//     in creation order, over their surviving points.
#include <gtest/gtest.h>

#include <utility>

#include "common/rng.h"
#include "realm/instance_map.h"

namespace visrt {
namespace {

IntervalSet random_sub(Rng& rng, coord_t universe) {
  coord_t lo = rng.range(0, universe - 2);
  return IntervalSet(lo, lo + rng.range(0, (universe - 1 - lo) / 2));
}

void check_random_traffic(std::uint64_t seed, std::uint32_t nodes,
                          coord_t universe) {
  Rng rng(seed);
  IntervalSet domain(0, universe - 1);
  InstanceMap map(nodes, 0, domain);

  // Model: the set of valid points per node (validity only; values are the
  // engines' business), and the pending reduction buffers as (node,
  // surviving domain) in creation order.
  std::vector<IntervalSet> model(nodes, domain);
  std::vector<std::pair<NodeID, IntervalSet>> pending;

  for (int step = 0; step < 300; ++step) {
    NodeID node = static_cast<NodeID>(rng.below(nodes));
    IntervalSet sub = random_sub(rng, universe);
    double roll = rng.uniform();
    if (roll < 0.45) {
      // Read: plan must cover exactly the points missing at `node`, and
      // every copy source must be valid there per the model.
      IntervalSet missing = sub.subtract(model[node]);
      auto plans = map.plan_read(node, sub);
      IntervalSet copied;
      std::vector<CopyPlan> applies;
      for (const CopyPlan& p : plans) {
        EXPECT_EQ(p.dst, node);
        if (p.kind == CopyPlan::Kind::Copy) {
          EXPECT_TRUE(applies.empty()) << "copy after a reduction applied";
          EXPECT_TRUE(model[p.src].contains(p.points))
              << "copy from a stale source";
          copied = copied.unite(p.points);
        } else {
          applies.push_back(p);
        }
      }
      EXPECT_EQ(copied, missing);
      model[node] = model[node].unite(sub);
      // Exactly one application per overlapping pending buffer, in
      // creation order, over the buffer's surviving points in the read.
      std::size_t k = 0;
      for (auto& [reducer, left] : pending) {
        IntervalSet piece = left.intersect(sub);
        if (piece.empty()) continue;
        ASSERT_LT(k, applies.size()) << "pending buffer not applied, step "
                                     << step;
        EXPECT_EQ(applies[k].src, reducer) << "step " << step;
        EXPECT_EQ(applies[k].points, piece) << "step " << step;
        ++k;
        left = left.subtract(piece);
      }
      EXPECT_EQ(k, applies.size()) << "stale reduction applied, step "
                                   << step;
      std::erase_if(pending, [](const auto& p) { return p.second.empty(); });
      // ApplyReduction plans change values: points become valid only at
      // the reader.
      for (const CopyPlan& p : applies) {
        for (NodeID n = 0; n < nodes; ++n) {
          if (n != node) model[n] = model[n].subtract(p.points);
        }
      }
    } else if (roll < 0.8) {
      map.record_write(node, sub);
      for (NodeID n = 0; n < nodes; ++n) {
        model[n] = n == node ? model[n].unite(sub) : model[n].subtract(sub);
      }
      // The write overwrites buffered contributions to its points.
      for (auto& p : pending) p.second = p.second.subtract(sub);
      std::erase_if(pending, [](const auto& p) { return p.second.empty(); });
    } else {
      map.record_reduction(node, sub, 1);
      pending.emplace_back(node, sub);
    }

    // Global invariants.
    EXPECT_EQ(map.pending_reductions(), pending.size()) << "step " << step;
    IntervalSet anywhere;
    for (NodeID n = 0; n < nodes; ++n) {
      EXPECT_EQ(map.valid_at(n), model[n]) << "node " << n << " step "
                                           << step;
      anywhere = anywhere.unite(map.valid_at(n));
    }
    EXPECT_EQ(anywhere, domain) << "some points valid nowhere";
  }
}

class InstanceMapProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(InstanceMapProperty, InvariantsHoldUnderRandomTraffic) {
  check_random_traffic(GetParam(), 4, 200);
}

TEST_P(InstanceMapProperty, InvariantsHoldAtSixtyFourNodes) {
  check_random_traffic(GetParam(), 64, 2000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstanceMapProperty,
                         ::testing::Values(5, 77, 901, 20240707));

} // namespace
} // namespace visrt
