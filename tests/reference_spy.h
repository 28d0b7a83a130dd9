// Test-only reference for the spy verifier (analysis/spy.h): the spy as it
// was before the order-maintenance structure.  Ground-truth interference
// goes into a pairwise BitMatrix and transitive order into an
// O(n²)-memory closure matrix folded over predecessor rows in id order.
// It is obviously exact and quadratic in memory; spy_differential_test and
// bench/verify_scale compare the shipped sweep's counts with it.  It
// covers a whole program: entry i of `launches` is launch i of `deps`.
// As SpyReport documents, an imprecise edge counts as imprecise only,
// never also as transitively implied.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "runtime/runtime.h"

namespace visrt::analysis::reference {

class BitMatrix {
public:
  explicit BitMatrix(std::size_t n)
      : words_((n + 63) / 64), bits_(n * words_, 0) {}

  void set(std::size_t row, std::size_t bit) {
    bits_[row * words_ + bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  bool test(std::size_t row, std::size_t bit) const {
    return (bits_[row * words_ + bit / 64] >> (bit % 64)) & 1;
  }
  void merge_row(std::size_t into, std::size_t from) {
    for (std::size_t w = 0; w < words_; ++w)
      bits_[into * words_ + w] |= bits_[from * words_ + w];
  }

private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

struct BaselineReport {
  std::size_t interfering_pairs = 0;
  std::size_t unordered_pairs = 0;
  std::size_t imprecise_edges = 0;
  std::size_t transitive_edges = 0;

  bool clean() const { return unordered_pairs == 0 && imprecise_edges == 0; }
};

inline BaselineReport baseline_verify(const RegionTreeForest& forest,
                                      const DepGraph& deps,
                                      std::span<const LaunchRecord> launches) {
  const std::size_t n = launches.size();
  BaselineReport report;

  // Transitive closure: row b accumulates every ancestor of b.
  BitMatrix reach(n);
  for (std::size_t id = 0; id < n; ++id) {
    for (LaunchID p : deps.preds(static_cast<LaunchID>(id))) {
      reach.merge_row(id, p);
      reach.set(id, p);
    }
  }

  // Ground-truth interference, grouped by field exactly like the spy.
  BitMatrix interf(n);
  std::map<FieldID, std::vector<std::pair<LaunchID, const Requirement*>>>
      by_field;
  for (std::size_t id = 0; id < n; ++id)
    for (const Requirement& req : launches[id].requirements)
      by_field[req.field].push_back({static_cast<LaunchID>(id), &req});
  for (const auto& [field, entries] : by_field) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        const auto& [ai, ri] = entries[i];
        const auto& [aj, rj] = entries[j];
        if (ai == aj || interf.test(aj, ai)) continue;
        if (!interferes(ri->privilege, rj->privilege)) continue;
        if (!forest.domain(ri->region).overlaps(forest.domain(rj->region)))
          continue;
        interf.set(aj, ai);
        ++report.interfering_pairs;
        if (!reach.test(aj, ai)) ++report.unordered_pairs;
      }
    }
  }

  // Precision: direct edges joining non-interfering pairs, plus the
  // informational count of edges already implied through another path.
  for (std::size_t id = 0; id < n; ++id) {
    std::span<const LaunchID> preds = deps.preds(static_cast<LaunchID>(id));
    for (LaunchID p : preds) {
      if (!interf.test(id, p)) {
        ++report.imprecise_edges;
        continue; // counted as a violation, not as a transitive edge
      }
      for (LaunchID q : preds) {
        if (q != p && reach.test(q, p)) {
          ++report.transitive_edges;
          break;
        }
      }
    }
  }
  return report;
}

} // namespace visrt::analysis::reference
