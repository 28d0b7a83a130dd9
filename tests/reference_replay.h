// Test-only reference for sim/replay.h and the work-graph cut of
// Runtime::retire: the two-pass retirement visrt shipped before the
// one-pass rewrite, kept verbatim apart from names.  Every cut replays the
// whole resident window to find the future floor F, then replays it again
// (`replay_split`) only to snapshot the resource state after the ops with
// ready < F, then compacts with WorkGraph::retire_ready_before.  It pays
// for every window twice and is obviously exact; the differential test
// drives it and the one-pass cut with the same op stream and demands
// identical retired sets, finishes, cut states and remaps.
#pragma once

#include <algorithm>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "common/check.h"
#include "sim/machine.h"
#include "sim/replay.h"
#include "sim/work_graph.h"

namespace visrt::sim::reference {
namespace detail {

struct ReadyOp {
  SimTime ready;
  OpID id;
  // Earliest-ready first; ties by op id (program order) for determinism.
  bool operator>(const ReadyOp& o) const {
    return ready != o.ready ? ready > o.ready : id > o.id;
  }
};

inline ReplayResult replay_impl(const WorkGraph& graph,
                                const MachineConfig& machine,
                                const ReplayCheckpoint* start,
                                ReplayCheckpoint* end_state, OpID limit,
                                SimTime cut_bound,
                                ReplayCheckpoint* cut_state) {
  machine.validate();
  const OpID base = graph.base();
  const OpID end = static_cast<OpID>(
      std::min<std::size_t>(limit, graph.size()));
  invariant(end >= base, "replay limit precedes the graph base");
  const std::size_t n = end - base;
  ReplayResult result;
  result.base = base;
  result.finish.assign(n, 0);
  result.ready.assign(n, 0);
  result.node_busy.assign(machine.num_nodes, 0);

  // Dependence bookkeeping: count of unfinished deps, and reverse edges.
  // Dependences always point backwards, so an id-prefix window is closed.
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::vector<OpID>> users(n);
  for (OpID id = base; id < end; ++id) {
    auto deps = graph.deps(id);
    pending[id - base] = static_cast<std::uint32_t>(deps.size());
    for (OpID d : deps) users[d - base].push_back(id);
  }

  // Per-resource next-free times.  Each node has a runtime CPU (analysis,
  // handlers), an accelerator for leaf tasks (the paper's evaluation maps
  // every task to the node's GPU), and a NIC in each direction.  A start
  // checkpoint resumes from the state a retired prefix left behind.
  std::vector<SimTime> cpu_free(machine.num_nodes, 0);
  std::vector<SimTime> accel_free(machine.num_nodes, 0);
  std::vector<SimTime> nic_out_free(machine.num_nodes, 0);
  std::vector<SimTime> nic_in_free(machine.num_nodes, 0);
  if (start != nullptr && !start->empty()) {
    invariant(start->cpu_free.size() == machine.num_nodes,
              "replay checkpoint does not match the machine");
    cpu_free = start->cpu_free;
    accel_free = start->accel_free;
    nic_out_free = start->nic_out_free;
    nic_in_free = start->nic_in_free;
    result.node_busy = start->node_busy;
    result.makespan = start->makespan;
  }

  std::priority_queue<ReadyOp, std::vector<ReadyOp>, std::greater<ReadyOp>>
      ready;
  std::vector<SimTime>& ready_time = result.ready;
  for (OpID id = base; id < end; ++id)
    ready_time[id - base] = graph.op(id).floor;
  for (OpID id = base; id < end; ++id) {
    if (pending[id - base] == 0) ready.push(ReadyOp{ready_time[id - base], id});
  }

  // The pop sequence is ordered by (readiness, id), so the ops below
  // `cut_bound` form a prefix of it: snapshot the resource state the
  // moment the first at-or-above-bound op pops.
  bool cut_taken = cut_state == nullptr;
  auto take_cut = [&] {
    cut_state->cpu_free = cpu_free;
    cut_state->accel_free = accel_free;
    cut_state->nic_out_free = nic_out_free;
    cut_state->nic_in_free = nic_in_free;
    cut_state->node_busy = result.node_busy;
    cut_state->makespan = result.makespan;
    cut_taken = true;
  };

  std::size_t executed = 0;
  while (!ready.empty()) {
    auto [at, id] = ready.top();
    ready.pop();
    if (!cut_taken && at >= cut_bound) take_cut();
    const Op& op = graph.op(id);
    invariant(op.node < machine.num_nodes, "op placed on nonexistent node");

    SimTime fin = at;
    switch (op.kind) {
    case OpKind::Compute: {
      std::vector<SimTime>& res =
          op.category == static_cast<std::uint8_t>(OpCategory::TaskExec)
              ? accel_free
              : cpu_free;
      SimTime start_at = std::max(at, res[op.node]);
      fin = start_at + op.cost;
      res[op.node] = fin;
      result.node_busy[op.node] += op.cost;
      break;
    }
    case OpKind::Message: {
      invariant(op.dst < machine.num_nodes, "message to nonexistent node");
      if (op.dst == op.node) {
        // Intra-node transfer: charge only the handler dispatch.
        SimTime start_at = std::max(at, cpu_free[op.node]);
        fin = start_at + machine.message_handler_ns;
        cpu_free[op.node] = fin;
        result.node_busy[op.node] += machine.message_handler_ns;
        break;
      }
      SimTime xfer =
          static_cast<SimTime>(static_cast<double>(op.bytes) /
                               machine.network_bytes_per_ns);
      // Injection costs sender CPU (marshalling + active-message launch)
      // before the NIC serializes the payload.
      SimTime inject_start = std::max(at, cpu_free[op.node]);
      SimTime injected = inject_start + machine.message_handler_ns;
      cpu_free[op.node] = injected;
      result.node_busy[op.node] += machine.message_handler_ns;
      SimTime send_start = std::max(injected, nic_out_free[op.node]);
      SimTime wire_done = send_start + xfer + machine.network_latency_ns;
      nic_out_free[op.node] = send_start + xfer;
      // Receiving: NIC-in serializes the payload, then the destination CPU
      // runs the active-message handler.
      SimTime recv_start = std::max(wire_done - xfer, nic_in_free[op.dst]);
      SimTime recv_done = std::max(recv_start + xfer, wire_done);
      nic_in_free[op.dst] = recv_done;
      SimTime handler_start = std::max(recv_done, cpu_free[op.dst]);
      fin = handler_start + machine.message_handler_ns;
      cpu_free[op.dst] = fin;
      result.node_busy[op.dst] += machine.message_handler_ns;
      break;
    }
    case OpKind::Marker:
      fin = at;
      break;
    }

    result.finish[id - base] = fin;
    result.makespan = std::max(result.makespan, fin);
    ++executed;

    for (OpID user : users[id - base]) {
      std::size_t u = user - base;
      ready_time[u] = std::max(ready_time[u], fin);
      if (--pending[u] == 0) ready.push(ReadyOp{ready_time[u], user});
    }
  }

  invariant(executed == n, "work graph contains a dependence cycle");
  if (!cut_taken) take_cut();

  if (end_state != nullptr) {
    end_state->cpu_free = std::move(cpu_free);
    end_state->accel_free = std::move(accel_free);
    end_state->nic_out_free = std::move(nic_out_free);
    end_state->nic_in_free = std::move(nic_in_free);
    end_state->node_busy = result.node_busy;
    end_state->makespan = result.makespan;
  }
  return result;
}

} // namespace detail

/// Schedule the whole resident window from `start` (fresh when null).
inline ReplayResult replay(const WorkGraph& graph,
                           const MachineConfig& machine,
                           const ReplayCheckpoint* start = nullptr) {
  return detail::replay_impl(graph, machine, start, nullptr, kInvalidOp, 0,
                             nullptr);
}

/// Replay the whole resident window, additionally capturing in
/// `cut_state` the resource state after the pop-order prefix of ops whose
/// readiness is strictly below `ready_bound`.
inline ReplayResult replay_split(const WorkGraph& graph,
                                 const MachineConfig& machine,
                                 const ReplayCheckpoint* start,
                                 SimTime ready_bound,
                                 ReplayCheckpoint& cut_state) {
  return detail::replay_impl(graph, machine, start, nullptr, kInvalidOp,
                             ready_bound, &cut_state);
}

/// What one two-pass cut decided.  `replay` is the full replay of the
/// window before the cut (indexed by old id - old base); `remap` is empty
/// when nothing retired.
struct Cut {
  SimTime future_floor = 0;
  ReplayResult replay;
  std::vector<OpID> remap;
  std::size_t retired = 0;
};

/// Runtime::retire's work-graph cut: replay the resident window, take F as
/// the minimum finish over the first `relevant` issue tails (a frozen
/// tail's recorded finish, 0 for a node without one), replay again to
/// capture the state after the ops with ready < F, then compact.
/// `issue_tail` holds resident ids, kFrozenOp or kInvalidOp.
inline Cut retire(WorkGraph& graph, const MachineConfig& machine,
                  ReplayCheckpoint& ckpt, std::span<const OpID> issue_tail,
                  std::span<const SimTime> issue_tail_finish,
                  NodeID relevant) {
  Cut cut;
  if (graph.size() == graph.base()) return cut;
  ReplayResult r = reference::replay(graph, machine, &ckpt);

  SimTime future_floor = std::numeric_limits<SimTime>::max();
  for (NodeID n = 0; n < relevant; ++n) {
    SimTime t = 0;
    if (issue_tail[n] == kFrozenOp)
      t = issue_tail_finish[n];
    else if (issue_tail[n] != kInvalidOp)
      t = r.finish_of(issue_tail[n]);
    future_floor = std::min(future_floor, t);
  }

  std::size_t retiring_count = 0;
  for (SimTime t : r.ready)
    if (t < future_floor) ++retiring_count;

  cut.future_floor = future_floor;
  if (retiring_count != 0) {
    ReplayCheckpoint next_ckpt;
    reference::replay_split(graph, machine, &ckpt, future_floor, next_ckpt);
    cut.retired =
        graph.retire_ready_before(r.ready, future_floor, r.finish, cut.remap);
    invariant(cut.retired == retiring_count,
              "retirement dropped a different op set than it froze");
    ckpt = std::move(next_ckpt);
  }
  cut.replay = std::move(r);
  return cut;
}

} // namespace visrt::sim::reference
