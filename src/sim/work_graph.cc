#include "sim/work_graph.h"

#include <algorithm>

#include "common/check.h"

namespace visrt::sim {

OpID WorkGraph::push(Op op, std::span<const OpID> deps) {
  op.dep_begin = static_cast<std::uint32_t>(deps_.size());
  op.dep_count = static_cast<std::uint32_t>(deps.size());
  OpID id = static_cast<OpID>(size());
  for (OpID d : deps) {
    invariant(d < id, "work graph dependence must refer to an earlier op");
    invariant(d >= base_, "work graph dependence refers to a retired op");
    deps_.push_back(d);
  }
  if (op.kind == OpKind::Compute) {
    cost_by_category_[op.category] += op.cost;
  } else if (op.kind == OpKind::Message) {
    ++message_count_;
    message_bytes_ += op.bytes;
    if (op.node >= messages_by_src_.size())
      messages_by_src_.resize(op.node + 1, 0);
    ++messages_by_src_[op.node];
  }
  ops_.push_back(op);
  return id;
}

OpID WorkGraph::compute(NodeID node, SimTime cost, std::span<const OpID> deps,
                        OpCategory category, SimTime floor) {
  Op op;
  op.kind = OpKind::Compute;
  op.node = node;
  op.cost = cost;
  op.category = static_cast<std::uint8_t>(category);
  op.floor = floor;
  return push(op, deps);
}

OpID WorkGraph::message(NodeID src, NodeID dst, std::uint64_t bytes,
                        std::span<const OpID> deps, OpCategory category,
                        SimTime floor) {
  Op op;
  op.kind = OpKind::Message;
  op.node = src;
  op.dst = dst;
  op.bytes = bytes;
  op.category = static_cast<std::uint8_t>(category);
  op.floor = floor;
  return push(op, deps);
}

OpID WorkGraph::marker(NodeID node, std::span<const OpID> deps,
                       SimTime floor) {
  Op op;
  op.kind = OpKind::Marker;
  op.node = node;
  op.category = static_cast<std::uint8_t>(OpCategory::Other);
  op.floor = floor;
  return push(op, deps);
}

std::size_t WorkGraph::retire_ready_before(std::span<const SimTime> ready,
                                           SimTime ready_bound,
                                           std::span<const SimTime> finish,
                                           std::vector<OpID>& remap) {
  const std::size_t n = ops_.size();
  invariant(ready.size() >= n && finish.size() >= n,
            "work graph retirement needs replay results per resident op");
  remap.assign(n, kFrozenOp);
  std::size_t retired = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (ready[i] < ready_bound) ++retired;
  if (retired == 0) return 0;

  // Compact in place, keeping both vectors' capacity for the ops pushed
  // before the next retirement.  Ops and their dependence ranges lie in
  // push order, so a survivor's write index never passes its read index.
  const OpID new_base = base_ + static_cast<OpID>(retired);
  std::size_t kept = 0, kept_deps = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ready[i] < ready_bound) continue;
    Op op = ops_[i];
    const std::uint32_t begin = static_cast<std::uint32_t>(kept_deps);
    for (std::uint32_t k = 0; k < op.dep_count; ++k) {
      const OpID d = deps_[op.dep_begin + k];
      const OpID nd = remap[d - base_];
      if (nd == kFrozenOp)
        op.floor = std::max(op.floor, finish[d - base_]);
      else
        deps_[kept_deps++] = nd;
    }
    op.dep_begin = begin;
    op.dep_count = static_cast<std::uint32_t>(kept_deps) - begin;
    remap[i] = new_base + static_cast<OpID>(kept);
    ops_[kept++] = op;
  }
  ops_.resize(kept);
  deps_.resize(kept_deps);
  base_ = new_base;
  return retired;
}

} // namespace visrt::sim
