#include "analysis/spy.h"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/order_maintenance.h"
#include "obs/metrics.h"

namespace visrt::analysis {

const char* spy_violation_kind_name(SpyViolationKind kind) {
  switch (kind) {
  case SpyViolationKind::UnorderedInterference:
    return "unordered-interference";
  case SpyViolationKind::ImpreciseEdge: return "imprecise-edge";
  case SpyViolationKind::ScheduleOverlap: return "schedule-overlap";
  }
  return "?";
}

namespace {

/// First interfering requirement pair of two launches, as a witness
/// string; empty when the launches do not interfere.
std::string interference_witness(const RegionTreeForest& forest,
                                 const LaunchRecord& a,
                                 const LaunchRecord& b) {
  for (const Requirement& ra : a.requirements) {
    for (const Requirement& rb : b.requirements) {
      if (ra.field != rb.field) continue;
      if (!interferes(ra.privilege, rb.privilege)) continue;
      if (!forest.domain(ra.region).overlaps(forest.domain(rb.region)))
        continue;
      std::ostringstream os;
      os << "field " << ra.field << ": " << to_string(ra.privilege) << " on "
         << forest.name(ra.region) << " "
         << forest.domain(ra.region).to_string() << " vs "
         << to_string(rb.privilege) << " on " << forest.name(rb.region) << " "
         << forest.domain(rb.region).to_string();
      return os.str();
    }
  }
  return {};
}

} // namespace

/// The one interference sweep behind verify() and IncrementalVerifier: a
/// per-field index of the resident requirements, order-maintenance labels
/// over the resident launches (common/order_maintenance.h), and the
/// per-launch step that labels the next launch, checks it against the
/// index and then indexes it.
class Sweep {
public:
  /// What a step reads.  `log` and `windows` (which only the batch
  /// schedule check passes) are indexed by LaunchID minus the sweep's base.
  struct Scope {
    const RegionTreeForest& forest;
    const DepGraph& deps;
    std::span<const LaunchRecord> log;
    std::span<const ExecWindow> windows;
  };

  explicit Sweep(LaunchID base) : base_(base), order_(base) {}

  /// The launch the next step() checks.
  LaunchID next() const {
    return base_ + static_cast<LaunchID>(stamps_.size());
  }

  /// Drop the launches below `base` (retired) from the index and the
  /// labels.
  void prune(LaunchID base);

  /// Label launch next(), check it, then index it.
  void step(const Scope& s);

  /// Put the records in SpyReport::violations order and copy the labels'
  /// chain count into the tally.
  void close();

  /// Counts and records so far; records in discovery order until
  /// close().
  SpyReport tally;

private:
  struct Entry {
    LaunchID id;
    Requirement req;
  };

  void record(const Scope& s, SpyViolationKind kind, LaunchID a, LaunchID b);

  LaunchID base_;
  /// Transitive order over the stepped launches: each step appends its
  /// launch with the launch's resident predecessors.  Its base and end are
  /// base_ and next().
  OrderMaintenance order_;
  /// Indexed requirements per field, each list in launch order.
  std::map<FieldID, std::vector<Entry>> by_field_;
  /// Per indexed launch: the last launch that found it as a partner.
  std::vector<LaunchID> stamps_;
  /// Records kept so far, per kind.
  std::array<std::size_t, 3> kept_{};
  /// step() scratch: the partners of the launch being checked.
  std::vector<LaunchID> partners_;
};

void Sweep::prune(LaunchID base) {
  if (base <= base_) return;
  for (auto& [field, entries] : by_field_)
    entries.erase(entries.begin(),
                  std::partition_point(
                      entries.begin(), entries.end(),
                      [base](const Entry& e) { return e.id < base; }));
  // Launches retired before the sweep reached them are never checked; the
  // labels then restart at `base`.
  if (base > next())
    order_ = OrderMaintenance(base);
  else
    order_.retire_prefix(base);
  const std::size_t drop = std::min<std::size_t>(base - base_, stamps_.size());
  stamps_.erase(stamps_.begin(),
                stamps_.begin() + static_cast<std::ptrdiff_t>(drop));
  base_ = base;
}

void Sweep::step(const Scope& s) {
  const LaunchID b = next();
  const LaunchRecord& rec = s.log[b - base_];
  ++tally.launches;

  // 0. Label b with its resident predecessors, a suffix of the sorted
  // list.  Predecessors below the window were proven ordered by the
  // retirement cut; any path between two window launches stays inside
  // the window (every intermediate id lies between the endpoints).
  std::span<const LaunchID> preds = s.deps.preds(b);
  preds = preds.subspan(static_cast<std::size_t>(
      std::lower_bound(preds.begin(), preds.end(), base_) - preds.begin()));
  order_.add_node(preds);

  // 1. Partners: earlier resident launches with a requirement on the same
  // field, an interfering privilege and an overlapping domain, each found
  // once however many of its requirements interfere.
  partners_.clear();
  for (const Requirement& rb : rec.requirements) {
    auto it = by_field_.find(rb.field);
    if (it == by_field_.end()) continue;
    const IntervalSet& domain = s.forest.domain(rb.region);
    for (const Entry& e : it->second) {
      if (!interferes(e.req.privilege, rb.privilege)) continue;
      LaunchID& stamp = stamps_[e.id - base_];
      if (stamp == b || !s.forest.domain(e.req.region).overlaps(domain))
        continue;
      stamp = b;
      partners_.push_back(e.id);
    }
  }

  // 2. Soundness: every partner precedes b.  3. Schedule: b starts no
  // earlier than each partner finishes.
  tally.interfering_pairs += partners_.size();
  std::vector<std::pair<SpyViolationKind, LaunchID>> to_record;
  auto note = [&](SpyViolationKind kind, LaunchID a) {
    if (kept_[static_cast<std::size_t>(kind)] < kMaxViolationRecords)
      to_record.emplace_back(kind, a);
  };
  for (LaunchID a : partners_) {
    if (!order_.precedes(a, b)) {
      ++tally.unordered_pairs;
      note(SpyViolationKind::UnorderedInterference, a);
    }
    if (s.windows.empty()) continue;
    const ExecWindow& wa = s.windows[a - base_];
    const ExecWindow& wb = s.windows[b - base_];
    if (wa.valid && wb.valid && wb.start < wa.finish) {
      ++tally.schedule_overlaps;
      note(SpyViolationKind::ScheduleOverlap, a);
    }
  }
  // Partners come field by field; records go in launch order.
  std::sort(to_record.begin(), to_record.end());
  for (const auto& [kind, a] : to_record) record(s, kind, a, b);

  // 4. Precision: every resident direct predecessor must be a partner.  An
  // edge that is, but is already implied through another predecessor
  // (a -> ... -> q -> b), adds no ordering constraint: counted as
  // informational.
  for (LaunchID a : preds) {
    if (stamps_[a - base_] != b) {
      ++tally.imprecise_edges;
      record(s, SpyViolationKind::ImpreciseEdge, a, b);
      continue;
    }
    for (LaunchID q : preds) {
      if (order_.precedes(a, q)) {
        ++tally.transitive_edges;
        break;
      }
    }
  }

  // 5. Index b.
  for (const Requirement& rb : rec.requirements)
    by_field_[rb.field].push_back({b, rb});
  stamps_.push_back(kInvalidLaunch);
}

void Sweep::record(const Scope& s, SpyViolationKind kind, LaunchID a,
                   LaunchID b) {
  std::size_t& kept = kept_[static_cast<std::size_t>(kind)];
  if (kept == kMaxViolationRecords) return;
  ++kept;
  std::ostringstream os;
  switch (kind) {
  case SpyViolationKind::UnorderedInterference:
    os << interference_witness(s.forest, s.log[a - base_], s.log[b - base_]);
    break;
  case SpyViolationKind::ImpreciseEdge:
    os << "edge " << a << " -> " << b
       << " joins launches with no interfering requirement pair";
    break;
  case SpyViolationKind::ScheduleOverlap:
    os << "launch " << b << " starts at " << s.windows[b - base_].start
       << "ns before interfering launch " << a << " finishes at "
       << s.windows[a - base_].finish << "ns";
    break;
  }
  tally.violations.push_back({kind, a, b, os.str()});
}

void Sweep::close() {
  std::stable_sort(tally.violations.begin(), tally.violations.end(),
                   [](const SpyViolation& x, const SpyViolation& y) {
                     return x.kind < y.kind;
                   });
  tally.order_chains = order_.chains();
}

namespace {

SpyReport verify_window(const RegionTreeForest& forest, const DepGraph& deps,
                        std::span<const LaunchRecord> launches,
                        std::span<const ExecWindow> windows) {
  // `launches` covers the trailing window [base, task_count) of the
  // dependence graph — the whole program when nothing was retired, the
  // resident suffix after Runtime::retire.  Verification is over pairs
  // wholly inside the window; edges reaching below it were proven ordered
  // by the retirement cut and are skipped.
  const std::size_t n = launches.size();
  require(deps.task_count() >= n,
          "spy: launch log is larger than the dependence graph");
  const LaunchID base = static_cast<LaunchID>(deps.task_count() - n);

  Sweep sweep(base);
  const Sweep::Scope scope{forest, deps, launches, windows};
  while (sweep.next() < deps.task_count()) sweep.step(scope);
  sweep.close();

  SpyReport report = std::move(sweep.tally);
  report.dep_edges = deps.edge_count();
  return report;
}

} // namespace

SpyReport verify(const RegionTreeForest& forest, const DepGraph& deps,
                 std::span<const LaunchRecord> launches) {
  return verify_window(forest, deps, launches, {});
}

SpyReport verify(const Runtime& runtime) {
  require(runtime.config().record_launches,
          "spy verification requires RuntimeConfig::record_launches");
  return verify_window(runtime.forest(), runtime.dep_graph(),
                       runtime.launch_log(), runtime.exec_windows());
}

IncrementalVerifier::IncrementalVerifier()
    : sweep_(std::make_unique<Sweep>(0)) {}

IncrementalVerifier::~IncrementalVerifier() = default;

std::span<const SpyViolation>
IncrementalVerifier::drain(const Runtime& runtime) {
  require(runtime.config().record_launches,
          "incremental verification requires RuntimeConfig::record_launches");
  const DepGraph& deps = runtime.dep_graph();

  // Retirement since the previous drain moved the resident window; the
  // launches below it were verified while resident.
  sweep_->prune(deps.base());
  const Sweep::Scope scope{runtime.forest(), deps, runtime.launch_log(), {}};
  const std::size_t before = sweep_->tally.violations.size();
  while (sweep_->next() < deps.task_count()) sweep_->step(scope);
  return std::span<const SpyViolation>(sweep_->tally.violations)
      .subspan(before);
}

const SpyReport& IncrementalVerifier::peek() const { return sweep_->tally; }

const SpyReport& IncrementalVerifier::report(const Runtime& runtime) {
  sweep_->tally.dep_edges = runtime.dep_graph().edge_count();
  sweep_->close();
  return sweep_->tally;
}

std::string SpyReport::summary() const {
  std::ostringstream os;
  os << launches << " launches, " << dep_edges << " edges, "
     << interfering_pairs << " interfering pairs: ";
  if (sound()) {
    os << "sound";
  } else {
    os << "UNSOUND (" << unordered_pairs << " unordered";
    if (schedule_overlaps > 0)
      os << ", " << schedule_overlaps << " schedule overlaps";
    os << ")";
  }
  if (imprecise_edges > 0) {
    os << ", imprecise (" << imprecise_edges << " extra edges)";
  } else {
    os << ", precise";
  }
  if (transitive_edges > 0)
    os << " [" << transitive_edges << " transitively implied]";
  return os.str();
}

std::string SpyReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"launches\":" << launches
     << ",\"dep_edges\":" << dep_edges
     << ",\"interfering_pairs\":" << interfering_pairs
     << ",\"unordered_pairs\":" << unordered_pairs
     << ",\"imprecise_edges\":" << imprecise_edges
     << ",\"transitive_edges\":" << transitive_edges
     << ",\"schedule_overlaps\":" << schedule_overlaps
     << ",\"order_chains\":" << order_chains
     << ",\"sound\":" << (sound() ? "true" : "false")
     << ",\"precise\":" << (precise() ? "true" : "false")
     << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const SpyViolation& v = violations[i];
    os << (i ? "," : "") << "{\"kind\":\"" << spy_violation_kind_name(v.kind)
       << "\",\"earlier\":" << v.earlier << ",\"later\":" << v.later
       << ",\"detail\":\"" << obs::json_escape(v.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

} // namespace visrt::analysis
