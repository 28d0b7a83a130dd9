// Tests for sim/replay.h: scheduling semantics of the discrete-event
// machine model — CPU serialization, message timing, causality.
#include "sim/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.h"
#include "reference_replay.h"

namespace visrt::sim {
namespace {

MachineConfig machine(std::uint32_t nodes) {
  MachineConfig m;
  m.num_nodes = nodes;
  m.network_latency_ns = 1000;
  m.network_bytes_per_ns = 1.0; // 1 byte/ns for easy arithmetic
  m.message_handler_ns = 100;
  return m;
}

TEST(Replay, SequentialChainOnOneNode) {
  WorkGraph g;
  OpID a = g.compute(0, 100, {});
  OpID b = g.compute(0, 200, std::array{a});
  ReplayResult r = replay(g, machine(1));
  EXPECT_EQ(r.finish[a], 100);
  EXPECT_EQ(r.finish[b], 300);
  EXPECT_EQ(r.makespan, 300);
  EXPECT_EQ(r.node_busy[0], 300);
}

TEST(Replay, IndependentOpsOnOneCpuSerialize) {
  WorkGraph g;
  OpID a = g.compute(0, 100, {});
  OpID b = g.compute(0, 100, {});
  ReplayResult r = replay(g, machine(1));
  // No dependence, but one CPU: they serialize.
  EXPECT_EQ(std::max(r.finish[a], r.finish[b]), 200);
}

TEST(Replay, IndependentOpsOnTwoNodesRunInParallel) {
  WorkGraph g;
  OpID a = g.compute(0, 100, {});
  OpID b = g.compute(1, 100, {});
  ReplayResult r = replay(g, machine(2));
  EXPECT_EQ(r.finish[a], 100);
  EXPECT_EQ(r.finish[b], 100);
  EXPECT_EQ(r.makespan, 100);
}

TEST(Replay, MessageTiming) {
  WorkGraph g;
  OpID m = g.message(0, 1, 500, {});
  ReplayResult r = replay(g, machine(2));
  // 100 ns sender injection + 500 bytes at 1 B/ns + 1000 ns latency +
  // 100 ns receive handler.
  EXPECT_EQ(r.finish[m], 100 + 500 + 1000 + 100);
}

TEST(Replay, IntraNodeMessageSkipsWire) {
  WorkGraph g;
  OpID m = g.message(0, 0, 1 << 20, {});
  ReplayResult r = replay(g, machine(1));
  EXPECT_EQ(r.finish[m], 100); // handler cost only
}

TEST(Replay, NicSerializesOutgoingTransfers) {
  WorkGraph g;
  OpID m1 = g.message(0, 1, 1000, {});
  OpID m2 = g.message(0, 2, 1000, {});
  ReplayResult r = replay(g, machine(3));
  // The second transfer waits for the first to clear the sender's NIC
  // (and each pays sender injection on the shared CPU first).
  SimTime first = std::min(r.finish[m1], r.finish[m2]);
  SimTime second = std::max(r.finish[m1], r.finish[m2]);
  EXPECT_EQ(first, 100 + 1000 + 1000 + 100);
  // The second injection finishes at 200 but waits for the first
  // transfer to clear the NIC at 1100 before its own 1000 ns of wire.
  EXPECT_EQ(second, 1100 + 1000 + 1000 + 100);
}

TEST(Replay, FanInMessagesSerializeAtReceiver) {
  // Many nodes sending to node 0 at once: receive side serializes — the
  // sequential-bottleneck effect of the paper's no-DCR configurations.
  constexpr int kSenders = 8;
  WorkGraph g;
  std::vector<OpID> msgs;
  for (int s = 1; s <= kSenders; ++s) {
    msgs.push_back(g.message(static_cast<NodeID>(s), 0, 10000, {}));
  }
  ReplayResult r = replay(g, machine(kSenders + 1));
  SimTime last = 0;
  for (OpID m : msgs) last = std::max(last, r.finish[m]);
  // All transfers must pass through node 0's NIC-in one at a time.
  EXPECT_GE(last, static_cast<SimTime>(kSenders) * 10000);
}

TEST(Replay, DependenceAcrossNodesWaitsForMessage) {
  WorkGraph g;
  OpID a = g.compute(0, 100, {});
  OpID m = g.message(0, 1, 100, std::array{a});
  OpID b = g.compute(1, 50, std::array{m});
  ReplayResult r = replay(g, machine(2));
  EXPECT_EQ(r.finish[b], 100 + (100 + 100 + 1000 + 100) + 50);
}

TEST(Replay, CausalityNeverViolated) {
  // Random-ish graph: finish(op) >= finish(dep) for every edge.
  WorkGraph g;
  std::vector<OpID> ops;
  for (int i = 0; i < 200; ++i) {
    std::vector<OpID> deps;
    if (!ops.empty() && i % 3 != 0) deps.push_back(ops[ops.size() / 2]);
    if (!ops.empty() && i % 5 == 0) deps.push_back(ops.back());
    if (i % 4 == 0 && !ops.empty()) {
      ops.push_back(g.message(static_cast<NodeID>(i % 4), (i + 1) % 4, 64,
                              deps));
    } else {
      ops.push_back(g.compute(static_cast<NodeID>(i % 4), 10 + i, deps));
    }
  }
  ReplayResult r = replay(g, machine(4));
  for (OpID id = 0; id < g.size(); ++id) {
    for (OpID d : g.deps(id)) {
      EXPECT_GE(r.finish[id], r.finish[d]);
    }
  }
}

TEST(Replay, DeterministicAcrossRuns) {
  WorkGraph g;
  std::vector<OpID> ops;
  for (int i = 0; i < 100; ++i) {
    std::vector<OpID> deps;
    if (!ops.empty()) deps.push_back(ops[static_cast<std::size_t>(i) / 2]);
    ops.push_back(g.compute(static_cast<NodeID>(i % 3), 7 * i + 1, deps));
  }
  ReplayResult r1 = replay(g, machine(3));
  ReplayResult r2 = replay(g, machine(3));
  EXPECT_EQ(r1.finish, r2.finish);
  EXPECT_EQ(r1.makespan, r2.makespan);
}

TEST(Replay, MarkerFinishesWithLastDep) {
  WorkGraph g;
  OpID a = g.compute(0, 100, {});
  OpID b = g.compute(1, 250, {});
  OpID m = g.marker(0, std::array{a, b});
  ReplayResult r = replay(g, machine(2));
  EXPECT_EQ(r.finish[m], 250);
}

// The event loop orders ready ops by one integer key; the reference keeps
// the two-field (ready, id) comparator.  Random graphs built for ties —
// zero-cost markers, a handful of equal costs, many ops ready at the same
// instant — with readiness floors and a resumed checkpoint above 2^32 ns
// must schedule identically.
TEST(Replay, OneKeyQueueMatchesTwoFieldReference) {
  constexpr SimTime kHigh = SimTime{1} << 33;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::uint32_t nodes = 1 + static_cast<std::uint32_t>(rng.below(4));
    WorkGraph g;
    for (int i = 0; i < 300; ++i) {
      std::vector<OpID> deps;
      const std::size_t fan = g.size() == 0 ? 0 : rng.below(4);
      for (std::size_t k = 0; k < fan; ++k)
        deps.push_back(static_cast<OpID>(rng.below(g.size())));
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      // Floors from a few values far above 2^32 ns, so ops tie on them.
      const SimTime floor =
          rng.chance(0.3) ? kHigh + 100 * static_cast<SimTime>(rng.below(3))
                          : 0;
      const NodeID node = static_cast<NodeID>(rng.below(nodes));
      switch (rng.below(3)) {
      case 0:
        g.marker(node, deps, floor);
        break;
      case 1:
        g.message(node, static_cast<NodeID>(rng.below(nodes)),
                  64 * rng.below(3), deps, OpCategory::Runtime, floor);
        break;
      default:
        g.compute(node, 50 * static_cast<SimTime>(rng.below(3)), deps,
                  rng.chance(0.5) ? OpCategory::TaskExec
                                  : OpCategory::Analysis,
                  floor);
      }
    }
    ReplayCheckpoint start;
    if (seed % 2 == 0) {
      for (auto* v : {&start.cpu_free, &start.accel_free, &start.nic_out_free,
                      &start.nic_in_free, &start.node_busy})
        v->assign(nodes, kHigh);
      start.makespan = kHigh;
    }
    const MachineConfig m = machine(nodes);
    ReplayResult got = replay(g, m, &start);
    ReplayResult want = reference::replay(g, m, &start);
    EXPECT_EQ(got.finish, want.finish) << "seed " << seed;
    EXPECT_EQ(got.ready, want.ready) << "seed " << seed;
    EXPECT_EQ(got.makespan, want.makespan) << "seed " << seed;
    EXPECT_EQ(got.node_busy, want.node_busy) << "seed " << seed;
    EXPECT_GT(got.makespan, kHigh) << "seed " << seed;
  }
}

} // namespace
} // namespace visrt::sim
