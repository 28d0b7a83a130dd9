// visrt/analysis/spy.h
//
// The spy verifier: an independent checker of engine-emitted dependence
// graphs and schedules, in the spirit of Legion Spy.  None of the six
// coherence engines is trusted here — ground truth is recomputed from
// first principles, directly from region-tree geometry and privilege
// semantics (visibility/privilege.h):
//
//   two launches interfere iff some pair of their requirements names the
//   same field, holds interfering privileges, and covers overlapping
//   domains.
//
// Against that relation the verifier checks
//
//   soundness   every interfering pair is transitively ordered in the
//               dependence DAG (O(1) order-maintenance label queries,
//               common/order_maintenance.h),
//   precision   no direct edge joins a non-interfering pair (and, as an
//               informational count, how many edges are transitively
//               implied by other paths), and
//   schedule    (live-runtime overload) interfering pairs do not overlap
//               in the replayed discrete-event schedule: the later task
//               starts only after the earlier one finished.
//
// One sweep does it, launch by launch in program order: a launch is
// appended to the sweep's order labels with its resident predecessors from
// the dependence graph, its interference partners are found in a per-field
// index of the earlier resident requirements, checked, and the launch is
// indexed in turn.  The sweep is the labels' only owner; the graph itself
// keeps only edges.  Memory is O(resident requirements + resident launches
// * chain width); no pairwise structure is kept.  The batch verify() runs
// the sweep over a whole launch log from a fresh index; IncrementalVerifier
// runs it over a stream as launches arrive.
//
// Unlike the differential oracle (fuzz/oracle.h), the spy needs no
// reference engine — a blind spot shared by every engine is still caught,
// because the interference relation is recomputed, not re-derived.  The
// oracle's soundness/precision stages are built on this verifier.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/runtime.h"

namespace visrt::analysis {

/// In the order SpyReport::violations lists them.
enum class SpyViolationKind : std::uint8_t {
  UnorderedInterference, ///< soundness: interfering pair left unordered
  ScheduleOverlap,       ///< DES: interfering pair overlaps in sim time
  ImpreciseEdge,         ///< precision: edge joins a non-interfering pair
};

const char* spy_violation_kind_name(SpyViolationKind kind);

struct SpyViolation {
  SpyViolationKind kind = SpyViolationKind::UnorderedInterference;
  LaunchID earlier = kInvalidLaunch;
  LaunchID later = kInvalidLaunch;
  std::string detail; ///< human-readable witness
};

/// Violation records a report keeps per kind; counts stay exact.
inline constexpr std::size_t kMaxViolationRecords = 16;

/// Machine-readable verification result (JSON schema in docs/ANALYSIS.md).
struct SpyReport {
  std::size_t launches = 0;
  std::size_t dep_edges = 0;
  std::size_t interfering_pairs = 0;
  /// Soundness violations: interfering pairs with no transitive order.
  std::size_t unordered_pairs = 0;
  /// Precision violations: direct edges joining non-interfering pairs.
  std::size_t imprecise_edges = 0;
  /// Informational: direct edges already implied through another path
  /// (harmless — they add no ordering constraint).
  std::size_t transitive_edges = 0;
  /// Schedule violations: interfering pairs overlapping in sim time.
  std::size_t schedule_overlaps = 0;
  /// Chains in the order-maintenance structure that answered the order
  /// queries (a parallelism measure: label width).
  std::size_t order_chains = 0;
  /// Suffix-relabel events the structure suffered — nonzero means edges
  /// arrived out of append order and the O(1) guarantee degraded.
  std::size_t order_relabels = 0;
  /// The first kMaxViolationRecords violations of each kind, ordered
  /// unordered-interference, schedule-overlap, imprecise-edge, and within
  /// a kind by (later, earlier) launch.
  std::vector<SpyViolation> violations;

  bool sound() const { return unordered_pairs == 0 && schedule_overlaps == 0; }
  bool precise() const { return imprecise_edges == 0; }
  bool clean() const { return sound() && precise(); }

  /// One-line human summary, e.g.
  /// "12 launches, 18 edges, 31 interfering pairs: sound, precise".
  std::string summary() const;
  /// Machine-readable report (schema_version 1, docs/ANALYSIS.md).
  std::string to_json() const;
};

/// Verify an engine-emitted dependence graph against ground truth
/// recomputed from the forest's geometry and the launches' privileges.
/// `launches` covers the trailing window of `deps`: entry i describes
/// launch `deps.task_count() - launches.size() + i`.  With no retirement
/// that is the whole program; after Runtime::retire it is the resident
/// suffix, and pairs/edges reaching below the window (already proven
/// ordered by the retirement cut) are skipped.
SpyReport verify(const RegionTreeForest& forest, const DepGraph& deps,
                 std::span<const LaunchRecord> launches);

/// Verify a finished Runtime run (requires RuntimeConfig::record_launches).
/// Additionally replays the work graph and checks the DES schedule orders
/// every interfering pair in simulated time; launches retired out of the
/// work graph use their frozen execution windows.
SpyReport verify(const Runtime& runtime);

class Sweep; // the sweep's index, order labels and tally (spy.cc)

/// Streamed spy verification.  The batch verifier checks a finished run,
/// so on an unbounded stream it only ever sees whatever launches happen to
/// be resident at the end.  IncrementalVerifier instead rides along with
/// the run — `drain()` after each ingested statement checks every launch
/// analyzed since the last call *while its interference partners are
/// still resident*, then lets retirement reclaim them.  Across the whole
/// stream that verifies strictly more pairs than a final batch sweep:
/// every launch is checked against its full resident window at arrival
/// time, with transitive order answered by the sweep's O(1)
/// order-maintenance labels (RuntimeConfig::record_launches is required).
///
/// The tally is a SpyReport with the batch verifier's semantics and
/// violation rule, aggregated over every epoch rather than the final
/// window — counts are therefore >= the final batch report's on a retired
/// run, and equal on an unretired one apart from the schedule check, which
/// only the batch verifier runs.
class IncrementalVerifier {
public:
  IncrementalVerifier();
  ~IncrementalVerifier();

  /// Check every launch the runtime analyzed since the last drain against
  /// the launches still resident.  Call after each ingested statement (or
  /// any batch of them) and once after the final one, always *before* the
  /// next Runtime::retire so partners are still resident.  Returns the
  /// violation records this call added, valid until the next drain() or
  /// report().
  std::span<const SpyViolation> drain(const Runtime& runtime);

  /// Counts so far, without refreshing the graph-derived counters; the
  /// records are in discovery order (use report() for the publishable
  /// form).
  const SpyReport& peek() const;

  /// Aggregate verdict over every drained epoch.  Refreshes the edge
  /// count from the runtime's graph and the order counters from the
  /// sweep's labels as of the last drain.
  const SpyReport& report(const Runtime& runtime);

private:
  std::unique_ptr<Sweep> sweep_;
};

} // namespace visrt::analysis
