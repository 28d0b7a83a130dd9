// Differential property suite for the order labels
// (common/order_maintenance.h): `precedes()` is compared bit-for-bit with a
// brute-force transitive closure over random DAGs appended node by node,
// with and without prefix retirement.  Labeled `concurrency` so the tsan
// leg also exercises concurrent const queries.

#include "common/order_maintenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace visrt {
namespace {

using Preds = std::vector<std::uint64_t>;

/// Brute-force ground truth, independent of the labels: row b holds one
/// bit per earlier node a with a path a -> b, the union of b's
/// predecessors and their rows.
class Closure {
public:
  void add_node(std::span<const std::uint64_t> preds) {
    std::vector<bool> row(reach_.size());
    for (std::uint64_t q : preds) {
      row[q] = true;
      for (std::size_t a = 0; a < reach_[q].size(); ++a)
        if (reach_[q][a]) row[a] = true;
    }
    reach_.push_back(std::move(row));
  }

  bool precedes(std::uint64_t a, std::uint64_t b) const {
    return a < b && reach_[b][a];
  }

private:
  std::vector<std::vector<bool>> reach_;
};

/// Up to `max_degree` distinct ids from [lo, hi), in random order.
Preds random_preds(Rng& rng, std::uint64_t lo, std::uint64_t hi,
                   std::size_t max_degree) {
  Preds preds;
  if (lo == hi) return preds;
  for (std::size_t e = rng.below(max_degree + 1); e > 0; --e) {
    const std::uint64_t q = lo + rng.below(hi - lo);
    if (std::find(preds.begin(), preds.end(), q) == preds.end())
      preds.push_back(q);
  }
  return preds;
}

void append(OrderMaintenance& om, Closure& truth, const Preds& preds) {
  om.add_node(preds);
  truth.add_node(preds);
}

/// Compare every resident pair of `om` with the oracle (same ids).
void expect_equivalent(const OrderMaintenance& om, const Closure& truth) {
  for (std::uint64_t a = om.base(); a < om.end(); ++a)
    for (std::uint64_t b = om.base(); b < om.end(); ++b)
      ASSERT_EQ(om.precedes(a, b), truth.precedes(a, b))
          << "pair " << a << " -> " << b;
}

TEST(OrderMaintenance, HandBuiltDiamond) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3; 4 isolated.
  OrderMaintenance om;
  om.add_node(Preds{});
  om.add_node(Preds{0});
  om.add_node(Preds{0});
  om.add_node(Preds{1, 2});
  om.add_node(Preds{});
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
  // Chains 0-1-3, 2 and 4.
  EXPECT_EQ(om.chains(), 3u);
}

TEST(OrderMaintenance, RandomDagsDifferentialSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 977);
    const std::uint64_t n = 20 + rng.below(60);
    OrderMaintenance om;
    Closure truth;
    for (std::uint64_t id = 0; id < n; ++id)
      append(om, truth, random_preds(rng, 0, id, 4));
    EXPECT_EQ(om.end(), n);
    EXPECT_LE(om.chains(), n);
    expect_equivalent(om, truth);
  }
}

TEST(OrderMaintenance, RetirePrefixKeepsResidentOrder) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 1313);
    const std::uint64_t n = 80;
    OrderMaintenance om;
    Closure truth;
    while (om.end() < n) {
      // Grow a chunk over the resident window...
      for (std::size_t chunk = 1 + rng.below(20); chunk > 0 && om.end() < n;
           --chunk)
        append(om, truth, random_preds(rng, om.base(), om.end(), 3));
      // ...then retire a random prefix of it.
      if (rng.chance(0.7)) {
        const std::uint64_t new_base =
            om.base() + rng.below(om.end() - om.base() + 1);
        om.retire_prefix(new_base);
        EXPECT_EQ(om.base(), new_base);
        // Only chains with a resident member survive.
        EXPECT_LE(om.chains(), om.end() - om.base());
      }
      expect_equivalent(om, truth);
    }
  }
}

TEST(OrderMaintenance, RejectsRetiredAndUnappendedNodes) {
  OrderMaintenance om(10);
  om.add_node(Preds{});   // 10
  om.add_node(Preds{10}); // 11
  om.add_node(Preds{11}); // 12
  om.retire_prefix(11);
  EXPECT_THROW(om.add_node(Preds{11, 10}), ApiError); // retired
  EXPECT_THROW(om.add_node(Preds{12, 13}), ApiError); // not yet appended
  EXPECT_THROW((void)om.precedes(10, 12), ApiError);  // retired
  EXPECT_THROW((void)om.precedes(11, 13), ApiError);  // not yet appended
  // A rejected append leaves the labels as they were.
  EXPECT_EQ(om.end(), 13u);
  EXPECT_EQ(om.chains(), 1u);
  om.add_node(Preds{12});
  EXPECT_TRUE(om.precedes(11, 13));
}

TEST(OrderMaintenance, ConcurrentConstQueries) {
  // precedes() is const and safe to call from many threads once the
  // labels are quiescent (concurrent readers of one finished
  // verification).
  Rng rng(99);
  const std::uint64_t n = 300;
  OrderMaintenance om;
  for (std::uint64_t id = 0; id < n; ++id)
    om.add_node(random_preds(rng, 0, id, 2));
  std::uint64_t expected = 0;
  for (std::uint64_t a = 0; a < n; ++a)
    for (std::uint64_t b = 0; b < n; ++b)
      if (om.precedes(a, b)) ++expected;
  std::vector<std::uint64_t> counts(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < counts.size(); ++t) {
    threads.emplace_back([&om, &counts, t, n] {
      for (std::uint64_t a = t; a < n; a += 4)
        for (std::uint64_t b = 0; b < n; ++b)
          if (om.precedes(a, b)) ++counts[t];
    });
  }
  for (std::thread& th : threads) th.join();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, expected);
  EXPECT_GT(expected, 0u);
}

} // namespace
} // namespace visrt
