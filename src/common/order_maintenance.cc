#include "common/order_maintenance.h"

#include <algorithm>

#include "common/check.h"

namespace visrt {

void OrderMaintenance::add_node(std::span<const std::uint64_t> preds) {
  const std::uint64_t id = end();
  // The node extends the chain of the first predecessor that is its
  // chain's tail.
  Node n{0, 0, labels_.size()};
  bool extends = false;
  std::size_t width = 0;
  for (std::uint64_t q : preds) {
    require(q >= base_ && q < id,
            "order-maintenance predecessor is retired or not yet appended");
    const std::size_t slot = q - base_;
    const Node& p = nodes_[slot];
    width = std::max({width, label(slot).size(), std::size_t{p.chain} + 1});
    if (!extends && tails_[p.chain] == q) {
      n.chain = p.chain;
      n.pos = p.pos + 1;
      extends = true;
    }
  }
  if (extends) {
    tails_[n.chain] = id;
  } else {
    n.chain = static_cast<std::uint32_t>(tails_.size());
    tails_.push_back(id);
  }
  // Push the node before growing the table, so the newest predecessor's
  // label ends where this one starts.
  nodes_.push_back(n);
  labels_.resize(n.start + width, 0);
  std::uint32_t* out = labels_.data() + n.start;
  for (std::uint64_t q : preds) {
    const std::size_t slot = q - base_;
    const std::span<const std::uint32_t> in = label(slot);
    for (std::size_t c = 0; c < in.size(); ++c)
      out[c] = std::max(out[c], in[c]);
    const Node& p = nodes_[slot];
    out[p.chain] = std::max(out[p.chain], p.pos + 1);
  }
}

bool OrderMaintenance::precedes(std::uint64_t a, std::uint64_t b) const {
  if (a >= b) return false; // append order is topological
  require(a >= base_ && b < end(),
          "order query names a retired or unknown node");
  const Node& na = nodes_[a - base_];
  const std::span<const std::uint32_t> lb = label(b - base_);
  return na.chain < lb.size() && lb[na.chain] > na.pos;
}

void OrderMaintenance::retire_prefix(std::uint64_t new_base) {
  require(new_base >= base_ && new_base <= end(),
          "order-maintenance retirement point out of range");
  if (new_base == base_) return;
  nodes_.erase(nodes_.begin(),
               nodes_.begin() + static_cast<std::ptrdiff_t>(new_base - base_));
  base_ = new_base;
  // Renumber the live chains in order.  A dead chain's entries name only
  // retired positions, which no resident query can ask about.
  constexpr std::uint32_t kDead = 0xffffffffu;
  std::vector<std::uint32_t> renumber(tails_.size(), kDead);
  std::size_t live = 0;
  for (std::size_t c = 0; c < tails_.size(); ++c) {
    if (tails_[c] < base_) continue;
    renumber[c] = static_cast<std::uint32_t>(live);
    tails_[live++] = tails_[c];
  }
  tails_.resize(live);
  // Rewrite the resident labels in place, front to back.  A compacted
  // label is never longer than the original, so writes never overtake
  // reads.
  std::size_t out = 0;
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    Node& n = nodes_[slot];
    const std::size_t stop =
        slot + 1 < nodes_.size() ? nodes_[slot + 1].start : labels_.size();
    n.chain = renumber[n.chain];
    const std::size_t start = out;
    for (std::size_t k = n.start; k < stop; ++k)
      if (renumber[k - n.start] != kDead) labels_[out++] = labels_[k];
    n.start = start;
  }
  labels_.resize(out);
}

std::span<const std::uint32_t> OrderMaintenance::label(std::size_t slot) const {
  const std::size_t stop =
      slot + 1 < nodes_.size() ? nodes_[slot + 1].start : labels_.size();
  return std::span<const std::uint32_t>(labels_).subspan(
      nodes_[slot].start, stop - nodes_[slot].start);
}

} // namespace visrt
