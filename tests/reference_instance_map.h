// Test-only reference for realm/instance_map.h: the per-node InstanceMap
// that visrt shipped before the interval-map rewrite, kept verbatim apart
// from its name.  It stores one IntervalSet of valid points per node and
// scans every node (and every pending reduction) on each operation, which
// makes it slow at scale and obviously correct.  The differential test
// drives both maps with the same traffic and demands identical plans,
// validity and pending-reduction counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "realm/instance_map.h"

namespace visrt {

class ReferenceInstanceMap {
public:
  ReferenceInstanceMap(std::uint32_t nodes, NodeID home, IntervalSet domain) {
    require(home < nodes, "home node out of range");
    valid_.assign(nodes, domain);
  }

  std::vector<CopyPlan> plan_read(NodeID dst, const IntervalSet& domain) {
    require(dst < valid_.size(), "destination node out of range");
    std::vector<CopyPlan> plans;

    // 1. Fetch points not yet valid at dst from nodes that hold them.
    IntervalSet needed = domain.subtract(valid_[dst]);
    for (NodeID src = 0; src < valid_.size() && !needed.empty(); ++src) {
      if (src == dst) continue;
      IntervalSet piece = needed.intersect(valid_[src]);
      if (piece.empty()) continue;
      plans.push_back(CopyPlan{CopyPlan::Kind::Copy, src, dst, piece});
      needed = needed.subtract(piece);
    }
    invariant(needed.empty(),
              "instance map: some requested points valid nowhere");
    valid_[dst] = valid_[dst].unite(domain);

    // 2. Apply pending reduction buffers overlapping the domain, in
    // creation order.  Applied points change value, so dst becomes the only
    // valid holder of them.
    IntervalSet changed;
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const PendingReduction& a, const PendingReduction& b) {
                       return a.order < b.order;
                     });
    for (PendingReduction& p : pending_) {
      IntervalSet piece = p.domain.intersect(domain);
      if (piece.empty()) continue;
      plans.push_back(CopyPlan{CopyPlan::Kind::ApplyReduction, p.node, dst,
                               piece, p.redop});
      changed = changed.unite(piece);
      p.domain = p.domain.subtract(piece);
    }
    std::erase_if(pending_,
                  [](const PendingReduction& p) { return p.domain.empty(); });
    if (!changed.empty()) {
      for (NodeID n = 0; n < valid_.size(); ++n) {
        if (n != dst) valid_[n] = valid_[n].subtract(changed);
      }
    }
    return plans;
  }

  void record_write(NodeID node, const IntervalSet& domain) {
    require(node < valid_.size(), "writer node out of range");
    for (NodeID n = 0; n < valid_.size(); ++n) {
      if (n != node) valid_[n] = valid_[n].subtract(domain);
    }
    valid_[node] = valid_[node].unite(domain);
    for (PendingReduction& p : pending_) {
      p.domain = p.domain.subtract(domain);
    }
    std::erase_if(pending_,
                  [](const PendingReduction& p) { return p.domain.empty(); });
  }

  void record_reduction(NodeID node, const IntervalSet& domain,
                        ReductionOpID redop) {
    require(node < valid_.size(), "reducer node out of range");
    pending_.push_back(PendingReduction{node, domain, redop, next_order_++});
  }

  const IntervalSet& valid_at(NodeID node) const {
    require(node < valid_.size(), "node out of range");
    return valid_[node];
  }
  std::size_t pending_reductions() const { return pending_.size(); }

private:
  struct PendingReduction {
    NodeID node;
    IntervalSet domain;
    ReductionOpID redop;
    LaunchID order; ///< creation order; applications preserve it
  };

  std::vector<IntervalSet> valid_; // per node
  std::vector<PendingReduction> pending_;
  LaunchID next_order_ = 0;
};

} // namespace visrt
