// Differential test of the work-graph retirement cut against the two-pass
// reference (tests/reference_replay.h).  One seeded op stream shaped like
// Runtime::launch — per-node issue chains, analysis computes with request
// and response messages, copies, task executions waiting on analysis and
// on earlier executions, iteration markers, and the DCR per-iteration
// charge — feeds three work graphs: one cut by the reference, one cut as
// Runtime::retire cuts, and one never cut.  After every cut the two
// retiring graphs must agree on the future floor, the retired ids and
// their finishes, the cut state and the remap; at the end their resident
// windows must replay identically, and every finish on the cut side must
// equal the never-cut graph's.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "reference_replay.h"
#include "sim/replay.h"
#include "sim/work_graph.h"

namespace visrt::sim {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// One work graph plus what its driver holds for every stream op: the
/// resident id, or kFrozenOp and the final finish once retired.
struct Side {
  WorkGraph graph;
  ReplayCheckpoint ckpt;
  std::vector<OpID> id;               ///< per stream op
  std::vector<SimTime> frozen;        ///< per stream op, once retired
  std::vector<std::size_t> stream_of; ///< per resident slot: stream index

  explicit Side(std::uint32_t nodes) {
    ckpt.cpu_free.assign(nodes, 0);
    ckpt.accel_free.assign(nodes, 0);
    ckpt.nic_out_free.assign(nodes, 0);
    ckpt.nic_in_free.assign(nodes, 0);
    ckpt.node_busy.assign(nodes, 0);
  }
};

/// What one cut decided, in terms the two cut implementations share.
struct CutView {
  SimTime floor = 0;
  std::vector<std::pair<OpID, SimTime>> retired; ///< old id, finish
  std::vector<OpID> remap;
};

/// An op in stream terms: dependences are stream indices.
struct StreamOp {
  OpKind kind;
  NodeID node, dst;
  SimTime cost;
  std::uint64_t bytes;
  OpCategory category;
  std::vector<std::size_t> deps;
};

void push(Side& s, const StreamOp& sop) {
  std::vector<OpID> deps;
  SimTime floor = 0;
  for (std::size_t k : sop.deps) {
    if (s.id[k] == kFrozenOp)
      floor = std::max(floor, s.frozen[k]);
    else
      deps.push_back(s.id[k]);
  }
  OpID id = kInvalidOp;
  switch (sop.kind) {
  case OpKind::Compute:
    id = s.graph.compute(sop.node, sop.cost, deps, sop.category, floor);
    break;
  case OpKind::Message:
    id = s.graph.message(sop.node, sop.dst, sop.bytes, deps, sop.category,
                         floor);
    break;
  case OpKind::Marker:
    id = s.graph.marker(sop.node, deps, floor);
    break;
  }
  s.stream_of.push_back(s.id.size());
  s.id.push_back(id);
  s.frozen.push_back(0);
}

/// Apply a cut's compaction to the driver's references: retired stream
/// ops keep their finishes, survivors follow the remap.
CutView record(Side& s, OpID old_base, SimTime floor,
               const ReplayResult& r, std::vector<OpID> remap) {
  CutView v;
  v.floor = floor;
  if (remap.empty()) return v;
  std::vector<std::size_t> stream_of;
  for (std::size_t i = 0; i < remap.size(); ++i) {
    const std::size_t k = s.stream_of[i];
    if (remap[i] == kFrozenOp) {
      s.id[k] = kFrozenOp;
      s.frozen[k] = r.finish[i];
      v.retired.emplace_back(old_base + static_cast<OpID>(i), r.finish[i]);
    } else {
      s.id[k] = remap[i];
      stream_of.push_back(k);
    }
  }
  s.stream_of = std::move(stream_of);
  v.remap = std::move(remap);
  return v;
}

/// The issue tails as a side holds them: resident ids, kFrozenOp (finish
/// in `finish`) or kInvalidOp.
void tails_of(const Side& s, const std::vector<std::size_t>& issue_tail,
              std::vector<OpID>& ids, std::vector<SimTime>& finish) {
  ids.assign(issue_tail.size(), kInvalidOp);
  finish.assign(issue_tail.size(), 0);
  for (std::size_t n = 0; n < issue_tail.size(); ++n) {
    if (issue_tail[n] == kNone) continue;
    ids[n] = s.id[issue_tail[n]];
    if (ids[n] == kFrozenOp) finish[n] = s.frozen[issue_tail[n]];
  }
}

CutView reference_cut(Side& s, const MachineConfig& m,
                      const std::vector<std::size_t>& issue_tail,
                      NodeID relevant) {
  std::vector<OpID> ids;
  std::vector<SimTime> finish;
  tails_of(s, issue_tail, ids, finish);
  const OpID old_base = s.graph.base();
  reference::Cut cut =
      reference::retire(s.graph, m, s.ckpt, ids, finish, relevant);
  return record(s, old_base, cut.future_floor, cut.replay,
                std::move(cut.remap));
}

/// The cut under test, made as Runtime::retire makes it: one pass from
/// the checkpoint, F from the frozen tails and lowered by the live ones.
CutView runtime_cut(Side& s, const MachineConfig& m,
                    const std::vector<std::size_t>& issue_tail,
                    NodeID relevant) {
  std::vector<OpID> ids;
  std::vector<SimTime> finish;
  tails_of(s, issue_tail, ids, finish);
  SimTime floor = std::numeric_limits<SimTime>::max();
  std::vector<OpID> live_tails;
  for (NodeID n = 0; n < relevant; ++n) {
    if (ids[n] == kFrozenOp)
      floor = std::min(floor, finish[n]);
    else if (ids[n] == kInvalidOp)
      floor = 0;
    else
      live_tails.push_back(ids[n]);
  }
  const OpID old_base = s.graph.base();
  if (s.graph.size() == old_base) return CutView{};
  ReplayResult r = replay_below_floor(s.graph, m, s.ckpt, floor, live_tails);
  std::vector<OpID> remap;
  const std::size_t retired =
      s.graph.retire_ready_before(r.ready, r.floor, r.finish, remap);
  EXPECT_EQ(retired, r.scheduled);
  if (retired == 0) remap.clear();
  return record(s, old_base, r.floor, r, std::move(remap));
}

/// Generates a Runtime::launch-shaped op stream in stream indices and
/// pushes every op into all sides.
class Stream {
public:
  Stream(std::uint32_t nodes, bool dcr, std::uint64_t seed,
         std::vector<Side*> sides)
      : nodes_(nodes), dcr_(dcr), rng_(seed), sides_(std::move(sides)),
        issue_tail_(nodes, kNone) {}

  const std::vector<std::size_t>& issue_tail() const { return issue_tail_; }
  Rng& rng() { return rng_; }

  void launch() {
    const NodeID mapped = static_cast<NodeID>(rng_.below(nodes_));
    const NodeID analysis = dcr_ ? mapped : 0;
    // Issue ops have positive cost, like every requirement_base_ns charge.
    const std::size_t issue =
        compute(analysis, 200 + rng_.below(600), {tail(analysis)},
                OpCategory::Runtime);

    // Earlier launches this one depends on: mostly recent ones, sometimes
    // long-retired ones whose finishes become floors.
    std::vector<std::size_t> producers;
    const std::size_t dep_count = execs_.empty() ? 0 : rng_.below(4);
    for (std::size_t i = 0; i < dep_count; ++i) {
      const std::size_t back = rng_.chance(0.8)
                                   ? rng_.below(std::min<std::size_t>(
                                         execs_.size(), 2 * nodes_ + 4))
                                   : rng_.below(execs_.size());
      producers.push_back(execs_[execs_.size() - 1 - back]);
    }

    std::vector<std::size_t> exec_deps;
    const std::size_t reqs = 1 + rng_.below(3);
    for (std::size_t q = 0; q < reqs; ++q) {
      std::vector<std::size_t> tails =
          steps(analysis, issue, rng_.below(4));
      if (rng_.chance(0.7)) { // not a reduction: copies to the mapped node
        std::vector<std::size_t> copy_deps = tails;
        copy_deps.insert(copy_deps.end(), producers.begin(), producers.end());
        const std::size_t copies = rng_.below(3);
        for (std::size_t c = 0; c < copies; ++c) {
          const NodeID src = static_cast<NodeID>(rng_.below(nodes_));
          exec_deps.push_back(
              message(src, mapped, 8 * (1 + rng_.below(4096)), copy_deps,
                      rng_.chance(0.8) ? OpCategory::Copy
                                       : OpCategory::Reduction));
        }
      }
      exec_deps.insert(exec_deps.end(), tails.begin(), tails.end());
    }
    exec_deps.insert(exec_deps.end(), producers.begin(), producers.end());
    const std::size_t exec = compute(mapped, 1000 + rng_.below(40000),
                                     exec_deps, OpCategory::TaskExec);
    execs_.push_back(exec);
    iteration_.push_back(exec);
    for (std::size_t t : steps(analysis, exec, rng_.below(3)))
      iteration_.push_back(t);
    issue_tail_[analysis] = issue;
    ++launches_this_iteration_;
  }

  void end_iteration() {
    if (dcr_ && launches_this_iteration_ > 0) {
      for (NodeID n = 0; n < nodes_; ++n) {
        issue_tail_[n] = compute(n, 40 * launches_this_iteration_,
                                 {tail(n)}, OpCategory::Runtime);
        iteration_.push_back(issue_tail_[n]);
      }
    }
    launches_this_iteration_ = 0;
    std::vector<std::size_t> deps = std::move(iteration_);
    iteration_.clear();
    if (last_marker_ != kNone) deps.push_back(last_marker_);
    last_marker_ = emit(StreamOp{OpKind::Marker, 0, 0, 0, 0,
                                 OpCategory::Other, std::move(deps)});
  }

private:
  std::size_t emit(StreamOp op) {
    std::erase(op.deps, kNone);
    for (Side* s : sides_) push(*s, op);
    return next_++;
  }
  std::size_t compute(NodeID node, SimTime cost, std::vector<std::size_t> deps,
                      OpCategory category) {
    return emit(StreamOp{OpKind::Compute, node, 0, cost, 0, category,
                         std::move(deps)});
  }
  std::size_t message(NodeID src, NodeID dst, std::uint64_t bytes,
                      std::vector<std::size_t> deps, OpCategory category) {
    return emit(StreamOp{OpKind::Message, src, dst, 0, bytes, category,
                         std::move(deps)});
  }
  std::size_t tail(NodeID n) const { return issue_tail_[n]; }

  /// Runtime::emit_steps: local steps chain on the analysis node, remote
  /// ones are a request, a compute on the owner and a response.
  std::vector<std::size_t> steps(NodeID analysis, std::size_t head,
                                 std::size_t count) {
    std::vector<std::size_t> tails;
    std::size_t local = head;
    for (std::size_t i = 0; i < count; ++i) {
      const SimTime cost = 50 + rng_.below(3000);
      const NodeID owner = rng_.chance(0.5)
                               ? analysis
                               : static_cast<NodeID>(rng_.below(nodes_));
      if (owner == analysis) {
        local = compute(analysis, cost, {local}, OpCategory::Analysis);
        continue;
      }
      const std::size_t request =
          message(analysis, owner, 128, {head}, OpCategory::Analysis);
      const std::size_t remote =
          compute(owner, cost, {request}, OpCategory::Analysis);
      tails.push_back(message(owner, analysis, 128 + rng_.below(1024),
                              {remote}, OpCategory::Analysis));
    }
    tails.push_back(local);
    return tails;
  }

  std::uint32_t nodes_;
  bool dcr_;
  Rng rng_;
  std::vector<Side*> sides_;
  std::size_t next_ = 0;
  std::vector<std::size_t> issue_tail_;
  std::vector<std::size_t> execs_;
  std::vector<std::size_t> iteration_;
  std::size_t last_marker_ = kNone;
  std::size_t launches_this_iteration_ = 0;
};

void expect_same_state(const ReplayCheckpoint& a, const ReplayCheckpoint& b,
                       const std::string& where) {
  EXPECT_EQ(a.cpu_free, b.cpu_free) << where;
  EXPECT_EQ(a.accel_free, b.accel_free) << where;
  EXPECT_EQ(a.nic_out_free, b.nic_out_free) << where;
  EXPECT_EQ(a.nic_in_free, b.nic_in_free) << where;
  EXPECT_EQ(a.node_busy, b.node_busy) << where;
  EXPECT_EQ(a.makespan, b.makespan) << where;
}

/// Drive `launches` launches at a random retire cadence and check every
/// cut; `retired_ops` receives the number of ops the cuts retired.
void run(std::uint32_t nodes, bool dcr, std::uint64_t seed,
         std::size_t launches, std::size_t& retired_ops) {
  MachineConfig m;
  m.num_nodes = nodes;
  Side ref(nodes), cut(nodes), whole(nodes);
  Stream stream(nodes, dcr, seed, {&ref, &cut, &whole});
  const NodeID relevant = dcr ? nodes : 1;
  const std::string tag = std::to_string(nodes) + " nodes, dcr " +
                          std::to_string(dcr) + ", seed " +
                          std::to_string(seed);

  std::vector<std::pair<std::size_t, SimTime>> retired; // stream op, finish
  std::size_t cuts = 0;
  std::size_t until_cut = 1 + stream.rng().below(24);
  auto iteration_length = [&] { return 4 + stream.rng().below(60); };
  std::size_t until_iteration = iteration_length();
  for (std::size_t l = 0; l < launches; ++l) {
    stream.launch();
    if (--until_iteration == 0) {
      stream.end_iteration();
      until_iteration = iteration_length();
    }
    if (--until_cut != 0) continue;
    until_cut = 1 + stream.rng().below(24);

    const std::vector<std::size_t> before = cut.stream_of;
    const OpID old_base = cut.graph.base();
    CutView want = reference_cut(ref, m, stream.issue_tail(), relevant);
    CutView got = runtime_cut(cut, m, stream.issue_tail(), relevant);
    const std::string where = tag + ", cut " + std::to_string(cuts++);
    ASSERT_EQ(got.floor, want.floor) << where;
    ASSERT_EQ(got.retired, want.retired) << where;
    ASSERT_EQ(got.remap, want.remap) << where;
    expect_same_state(cut.ckpt, ref.ckpt, where);
    ASSERT_EQ(cut.graph.base(), ref.graph.base()) << where;
    for (const auto& [old_id, fin] : got.retired)
      retired.emplace_back(before[old_id - old_base], fin);
  }
  stream.end_iteration();

  // Both resident windows replay identically from their cut states.
  ReplayResult got = replay(cut.graph, m, &cut.ckpt);
  ReplayResult want = reference::replay(ref.graph, m, &ref.ckpt);
  EXPECT_EQ(got.base, want.base) << tag;
  EXPECT_EQ(got.finish, want.finish) << tag;
  EXPECT_EQ(got.ready, want.ready) << tag;
  EXPECT_EQ(got.makespan, want.makespan) << tag;
  EXPECT_EQ(got.node_busy, want.node_busy) << tag;

  // Retirement is invisible: every finish, retired or resident, is the
  // never-cut graph's.
  ReplayResult all = reference::replay(whole.graph, m);
  for (const auto& [k, fin] : retired)
    ASSERT_EQ(fin, all.finish[k]) << tag << ", retired stream op " << k;
  for (std::size_t i = 0; i < cut.stream_of.size(); ++i)
    ASSERT_EQ(got.finish[i], all.finish[cut.stream_of[i]])
        << tag << ", resident stream op " << cut.stream_of[i];
  EXPECT_EQ(got.makespan, all.makespan) << tag;
  EXPECT_EQ(got.node_busy, all.node_busy) << tag;
  retired_ops = retired.size();
}

/// Every configuration must retire something, or it checks nothing.
void check(std::uint32_t nodes, bool dcr, std::uint64_t seed,
           std::size_t launches) {
  std::size_t retired_ops = 0;
  run(nodes, dcr, seed, launches, retired_ops);
  EXPECT_GT(retired_ops, 0u) << nodes << " nodes, dcr " << dcr;
}

TEST(RetireDifferential, FourNodes) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check(4, false, seed, 600);
    check(4, true, seed, 600);
  }
}

TEST(RetireDifferential, SixtyFourNodes) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    check(64, false, seed, 800);
    check(64, true, seed, 800);
  }
}

TEST(RetireDifferential, FiveHundredTwelveNodes) {
  check(512, false, 1, 1500);
  check(512, true, 1, 1500);
}

} // namespace
} // namespace visrt::sim
