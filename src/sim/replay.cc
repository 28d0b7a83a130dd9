#include "sim/replay.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace visrt::sim {
namespace {

// A ready op as one integer, ready * 2^32 + id: its order is exactly
// (ready, id), earliest-ready first and ties by op id (program order) for
// determinism.  Ready times pass 2^31 ns on long streams, so the key is
// 128 bits wide; the heap then compares one integer instead of two fields.
__extension__ using ReadyKey = __int128;

ReadyKey ready_key(SimTime ready, OpID id) {
  return static_cast<ReadyKey>(ready) * (ReadyKey{1} << 32) + id;
}

} // namespace

// The one event loop; `replay` is its drain form.
ReplayResult replay_below_floor(const WorkGraph& graph,
                                const MachineConfig& machine,
                                ReplayCheckpoint& state, SimTime floor,
                                std::span<const OpID> lowering) {
  machine.validate();
  const OpID base = graph.base();
  const std::size_t n = graph.size() - base;
  ReplayResult result;
  result.base = base;
  result.finish.assign(n, 0);
  result.ready.resize(n);
  std::vector<SimTime>& ready_time = result.ready;

  // Per-resource next-free times.  Each node has a runtime CPU (analysis,
  // handlers), an accelerator for leaf tasks (the paper's evaluation maps
  // every task to the node's GPU), and a NIC in each direction.  A
  // checkpoint resumes from the state a retired prefix left behind.
  if (state.empty()) {
    state.cpu_free.assign(machine.num_nodes, 0);
    state.accel_free.assign(machine.num_nodes, 0);
    state.nic_out_free.assign(machine.num_nodes, 0);
    state.nic_in_free.assign(machine.num_nodes, 0);
    state.node_busy.assign(machine.num_nodes, 0);
    state.makespan = 0;
  }
  invariant(state.cpu_free.size() == machine.num_nodes,
            "replay checkpoint does not match the machine");
  std::vector<SimTime>& cpu_free = state.cpu_free;
  std::vector<SimTime>& accel_free = state.accel_free;
  std::vector<SimTime>& nic_out_free = state.nic_out_free;
  std::vector<SimTime>& nic_in_free = state.nic_in_free;
  std::vector<SimTime>& node_busy = state.node_busy;

  // Dependence bookkeeping: unfinished-dependence counts, and the reverse
  // edges as one flat array — the users of slot i are
  // users[first_user[i], first_user[i + 1]).  Dependences always point
  // backwards into the resident window.
  std::vector<std::uint32_t> pending(n);
  std::vector<std::uint32_t> first_user(n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = graph.op(base + static_cast<OpID>(i));
    pending[i] = op.dep_count;
    ready_time[i] = op.floor;
    for (OpID d : graph.deps(base + static_cast<OpID>(i)))
      ++first_user[d - base + 2];
  }
  for (std::size_t i = 2; i < n + 2; ++i) first_user[i] += first_user[i - 1];
  std::vector<OpID> users(first_user[n + 1]);
  for (std::size_t i = 0; i < n; ++i) {
    const OpID id = base + static_cast<OpID>(i);
    for (OpID d : graph.deps(id)) users[first_user[d - base + 1]++] = id;
  }

  std::vector<std::uint8_t> lowers(lowering.empty() ? 0 : n, 0);
  for (OpID t : lowering) lowers[t - base] = 1;

  std::priority_queue<ReadyKey, std::vector<ReadyKey>, std::greater<>> ready;
  for (std::size_t i = 0; i < n; ++i)
    if (pending[i] == 0)
      ready.push(ready_key(ready_time[i], base + static_cast<OpID>(i)));

  SimTime last_at = 0;
  while (!ready.empty() && ready.top() < ready_key(floor, 0)) {
    const SimTime at = static_cast<SimTime>(ready.top() >> 32);
    const OpID id = static_cast<OpID>(ready.top());
    ready.pop();
    const std::size_t i = id - base;
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
      node_busy[op.node] += op.cost;
      break;
    }
    case OpKind::Message: {
      invariant(op.dst < machine.num_nodes, "message to nonexistent node");
      if (op.dst == op.node) {
        // Intra-node transfer: charge only the handler dispatch.
        SimTime start_at = std::max(at, cpu_free[op.node]);
        fin = start_at + machine.message_handler_ns;
        cpu_free[op.node] = fin;
        node_busy[op.node] += machine.message_handler_ns;
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
      node_busy[op.node] += machine.message_handler_ns;
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
      node_busy[op.dst] += machine.message_handler_ns;
      break;
    }
    case OpKind::Marker:
      fin = at;
      break;
    }

    result.finish[i] = fin;
    state.makespan = std::max(state.makespan, fin);
    ++result.scheduled;
    last_at = at;
    if (!lowers.empty() && lowers[i]) floor = std::min(floor, fin);

    for (std::uint32_t k = first_user[i]; k < first_user[i + 1]; ++k) {
      const std::size_t u = users[k] - base;
      ready_time[u] = std::max(ready_time[u], fin);
      if (--pending[u] == 0) ready.push(ready_key(ready_time[u], users[k]));
    }
  }

  // Pops never decrease in readiness, so the last one bounds them all.
  invariant(result.scheduled == 0 || last_at < floor,
            "an op popped at or above the floor it lowered");
  if (result.scheduled < n) {
    // Ops still waiting on an unscheduled dependence become ready no
    // earlier than it, which is at or above the floor.
    for (std::size_t i = 0; i < n; ++i)
      if (pending[i] != 0) ready_time[i] = std::max(ready_time[i], floor);
  }
  result.floor = floor;
  result.makespan = state.makespan;
  result.node_busy = state.node_busy;
  return result;
}

ReplayResult replay(const WorkGraph& graph, const MachineConfig& machine,
                    const ReplayCheckpoint* start) {
  ReplayCheckpoint state = start != nullptr ? *start : ReplayCheckpoint{};
  ReplayResult result = replay_below_floor(
      graph, machine, state, std::numeric_limits<SimTime>::max(), {});
  invariant(result.scheduled == result.finish.size(),
            "work graph contains a dependence cycle");
  return result;
}

} // namespace visrt::sim
