// Differential property suite for the order-maintenance structure
// (common/order_maintenance.h): `precedes()` is compared bit-for-bit
// against a brute-force transitive closure over randomized DAGs, through
// append-order edge streams, late-edge relabels, retirement-style prefix
// removal, and op-id remapping (contiguous and scattered, as
// WorkGraph::retire_ready_before produces).  Labeled `concurrency` so the
// tsan leg also exercises the concurrent const-query path.

#include "common/order_maintenance.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace visrt {
namespace {

constexpr std::uint64_t kRetired = ~std::uint64_t{0};

/// Brute-force ground truth: reach[b] holds one bit per node a with a
/// transitive path a -> b.  Node ids are absolute; rows are dense over
/// [0, n).
class Closure {
public:
  explicit Closure(std::size_t n) : n_(n), reach_(n, std::vector<bool>(n)) {}

  void add_edge(std::size_t from, std::size_t to) {
    if (reach_[to][from]) return;
    reach_[to][from] = true;
    // Re-close: to (and everything downstream of it) now sees from's
    // ancestors.  Quadratic is fine — this is the oracle.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t b = 0; b < n_; ++b)
        for (std::size_t a = 0; a < n_; ++a) {
          if (!reach_[b][a]) continue;
          for (std::size_t p = 0; p < n_; ++p)
            if (reach_[a][p] && !reach_[b][p]) {
              reach_[b][p] = true;
              changed = true;
            }
        }
    }
  }

  bool precedes(std::size_t a, std::size_t b) const { return reach_[b][a]; }

private:
  std::size_t n_;
  std::vector<std::vector<bool>> reach_;
};

/// Compare every resident pair of `om` against the oracle, with ids
/// translated through `om_of_truth` (entry t = om id of truth node t, or
/// kRetired when that node retired out of the structure).
void expect_equivalent(const OrderMaintenance& om, const Closure& truth,
                       const std::vector<std::uint64_t>& om_of_truth) {
  for (std::size_t a = 0; a < om_of_truth.size(); ++a) {
    if (om_of_truth[a] == kRetired) continue;
    for (std::size_t b = 0; b < om_of_truth.size(); ++b) {
      if (om_of_truth[b] == kRetired) continue;
      ASSERT_EQ(om.precedes(om_of_truth[a], om_of_truth[b]),
                truth.precedes(a, b))
          << "pair " << a << " -> " << b;
    }
  }
}

TEST(OrderMaintenance, HandBuiltDiamond) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3; 4 isolated.
  OrderMaintenance om;
  for (std::uint64_t id = 0; id < 5; ++id) om.add_node(id);
  om.add_edge(0, 1);
  om.add_edge(0, 2);
  om.add_edge(1, 3);
  om.add_edge(2, 3);
  EXPECT_TRUE(om.precedes(0, 1));
  EXPECT_TRUE(om.precedes(0, 2));
  EXPECT_TRUE(om.precedes(0, 3));
  EXPECT_TRUE(om.precedes(1, 3));
  EXPECT_TRUE(om.precedes(2, 3));
  EXPECT_FALSE(om.precedes(1, 2));
  EXPECT_FALSE(om.precedes(2, 1));
  EXPECT_FALSE(om.precedes(3, 0));
  for (std::uint64_t id = 0; id < 4; ++id) {
    EXPECT_FALSE(om.precedes(id, 4));
    EXPECT_FALSE(om.precedes(4, id));
    EXPECT_FALSE(om.precedes(id, id));
  }
}

TEST(OrderMaintenance, AppendOrderEdgesNeverRelabel) {
  Rng rng(7);
  OrderMaintenance om;
  for (std::uint64_t id = 0; id < 200; ++id) {
    om.add_node(id);
    if (id == 0) continue;
    std::size_t degree = rng.below(4);
    for (std::size_t e = 0; e < degree; ++e)
      om.add_edge(rng.below(id), id);
  }
  EXPECT_EQ(om.stats().relabels, 0u);
  EXPECT_EQ(om.stats().nodes, 200u);
}

TEST(OrderMaintenance, LateEdgesRelabelAndStayCorrect) {
  // Grow a random DAG in append order, then add edges to *older* targets
  // and check the suffix relabel restores exact equivalence.
  Rng rng(21);
  const std::size_t n = 60;
  OrderMaintenance om;
  Closure truth(n);
  std::vector<std::uint64_t> ids(n);
  for (std::size_t id = 0; id < n; ++id) {
    ids[id] = id;
    om.add_node(id);
    for (std::size_t e = 0; e < rng.below(3); ++e) {
      std::size_t from = rng.below(id ? id : 1);
      if (from == id) continue;
      om.add_edge(from, id);
      truth.add_edge(from, id);
    }
  }
  for (int late = 0; late < 30; ++late) {
    std::size_t to = 1 + rng.below(n - 1);
    std::size_t from = rng.below(to);
    om.add_edge(from, to);
    truth.add_edge(from, to);
  }
  EXPECT_GT(om.stats().relabels, 0u);
  expect_equivalent(om, truth, ids);
}

TEST(OrderMaintenance, RandomDagsDifferentialSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 977);
    const std::size_t n = 20 + rng.below(60);
    OrderMaintenance om;
    Closure truth(n);
    std::vector<std::uint64_t> ids(n);
    for (std::size_t id = 0; id < n; ++id) {
      ids[id] = id;
      om.add_node(id);
      // Mixed shape: mostly fresh-node edges, occasionally a late edge to
      // an earlier target.
      for (std::size_t e = 0; e < rng.below(4); ++e) {
        std::size_t to = id;
        if (id >= 2 && rng.chance(0.15)) to = 1 + rng.below(id - 1);
        if (to == 0) continue;
        std::size_t from = rng.below(to);
        om.add_edge(from, to);
        truth.add_edge(from, to);
      }
    }
    expect_equivalent(om, truth, ids);
    const OrderStats& stats = om.stats();
    EXPECT_EQ(stats.nodes, n);
    EXPECT_GE(stats.chains, stats.active_chains);
  }
}

TEST(OrderMaintenance, RetirePrefixKeepsResidentOrder) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 1313);
    const std::size_t n = 80;
    OrderMaintenance om;
    Closure truth(n);
    std::vector<std::uint64_t> ids(n, kRetired);
    std::size_t next = 0;
    std::uint64_t base = 0;
    while (next < n) {
      // Grow a chunk...
      std::size_t chunk = 1 + rng.below(20);
      for (; chunk > 0 && next < n; --chunk, ++next) {
        ids[next] = next;
        om.add_node(next);
        for (std::size_t e = 0; e < rng.below(3); ++e) {
          std::uint64_t from = base + rng.below(next - base ? next - base : 1);
          if (from >= next) continue;
          om.add_edge(from, next);
          truth.add_edge(from, next);
        }
      }
      // ...then retire a random prefix of the resident window.
      if (next > base && rng.chance(0.7)) {
        std::uint64_t new_base = base + rng.below(next - base + 1);
        om.retire_prefix(new_base);
        for (std::uint64_t id = base; id < new_base; ++id) ids[id] = kRetired;
        base = new_base;
        EXPECT_EQ(om.base(), base);
      }
      expect_equivalent(om, truth, ids);
    }
  }
}

TEST(OrderMaintenance, RemapContiguousRenumbering) {
  // Retire a prefix by renumbering survivors down to a new origin — the
  // WorkGraph::retire_ready_before compaction shape.
  Rng rng(4242);
  const std::size_t n = 50;
  OrderMaintenance om;
  Closure truth(n);
  std::vector<std::uint64_t> ids(n);
  for (std::size_t id = 0; id < n; ++id) {
    ids[id] = id;
    om.add_node(id);
    for (std::size_t e = 0; e < rng.below(3); ++e) {
      std::size_t from = rng.below(id ? id : 1);
      if (from == id) continue;
      om.add_edge(from, id);
      truth.add_edge(from, id);
    }
  }
  const std::size_t drop = 17;
  std::vector<std::uint64_t> old_to_new(n);
  for (std::size_t i = 0; i < n; ++i)
    old_to_new[i] = i < drop ? kRetired : i - drop;
  om.remap_ids(old_to_new, kRetired);
  EXPECT_EQ(om.base(), 0u);
  EXPECT_EQ(om.end(), n - drop);
  for (std::size_t i = 0; i < n; ++i)
    ids[i] = i < drop ? kRetired : i - drop;
  expect_equivalent(om, truth, ids);
  // The structure keeps growing at the remapped origin.
  om.add_node(n - drop);
  om.add_edge(0, n - drop);
  EXPECT_TRUE(om.precedes(0, n - drop));
}

TEST(OrderMaintenance, RemapScatteredRetirement) {
  // Scattered retirement: interior nodes drop out and survivors compact,
  // including chain tails (their chains seal but stay queryable).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 31337);
    const std::size_t n = 40;
    OrderMaintenance om;
    Closure truth(n);
    std::vector<std::uint64_t> ids(n);
    for (std::size_t id = 0; id < n; ++id) {
      ids[id] = id;
      om.add_node(id);
      for (std::size_t e = 0; e < rng.below(3); ++e) {
        std::size_t from = rng.below(id ? id : 1);
        if (from == id) continue;
        om.add_edge(from, id);
        truth.add_edge(from, id);
      }
    }
    std::vector<std::uint64_t> old_to_new(n);
    std::uint64_t next_id = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.chance(0.4)) {
        old_to_new[i] = kRetired;
        ids[i] = kRetired;
      } else {
        old_to_new[i] = next_id;
        ids[i] = next_id;
        ++next_id;
      }
    }
    om.remap_ids(old_to_new, kRetired);
    expect_equivalent(om, truth, ids);
  }
}

TEST(OrderMaintenance, ConcurrentConstQueries) {
  // precedes() is const and must be safe to call from many threads once
  // the structure is quiescent (concurrent readers of one finished
  // verification).  stats() first forces label finalization.
  Rng rng(99);
  const std::size_t n = 300;
  OrderMaintenance om;
  for (std::size_t id = 0; id < n; ++id) {
    om.add_node(id);
    for (std::size_t e = 0; e < rng.below(3); ++e) {
      std::size_t from = rng.below(id ? id : 1);
      if (from != id) om.add_edge(from, id);
    }
  }
  (void)om.stats();
  std::vector<std::uint64_t> counts(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < counts.size(); ++t) {
    threads.emplace_back([&om, &counts, t, n] {
      std::uint64_t hits = 0;
      for (std::size_t a = t; a < n; a += 4)
        for (std::size_t b = 0; b < n; ++b)
          if (om.precedes(a, b)) ++hits;
      counts[t] = hits + 1;
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::uint64_t c : counts) EXPECT_GT(c, 0u);
}

} // namespace
} // namespace visrt
