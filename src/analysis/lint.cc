#include "analysis/lint.h"

#include <map>
#include <set>
#include <sstream>

#include "common/order_maintenance.h"
#include "obs/metrics.h"

namespace visrt::analysis {

const char* lint_rule_id(LintRule rule) {
  switch (rule) {
  case LintRule::PartitionClaim: return "VL001";
  case LintRule::PrivilegeSubsumption: return "VL002";
  case LintRule::AliasedWrite: return "VL003";
  case LintRule::OverPrivilege: return "VL004";
  case LintRule::UnusedPrivilege: return "VL005";
  case LintRule::TraceShape: return "VL006";
  case LintRule::RedundantEdges: return "VL007";
  }
  return "?";
}

const char* lint_rule_name(LintRule rule) {
  switch (rule) {
  case LintRule::PartitionClaim: return "partition-claim";
  case LintRule::PrivilegeSubsumption: return "privilege-subsumption";
  case LintRule::AliasedWrite: return "aliased-write";
  case LintRule::OverPrivilege: return "over-privilege";
  case LintRule::UnusedPrivilege: return "unused-privilege";
  case LintRule::TraceShape: return "trace-shape";
  case LintRule::RedundantEdges: return "redundant-edge-producer";
  }
  return "?";
}

namespace {

/// Can a task holding privilege `outer` do everything one holding `inner`
/// can?  read-write subsumes everything (a task may read, write, or fold
/// by hand); weaker privileges subsume only themselves.
bool subsumes(const Privilege& outer, const Privilege& inner) {
  if (outer.is_write()) return true;
  return outer == inner;
}

class Linter {
public:
  Linter(const RegionTreeForest& forest, std::span<const LintEvent> stream,
         const LintOptions& options)
      : forest_(forest), stream_(stream), options_(options) {}

  LintReport run() {
    check_partition_claims();
    for (std::size_t i = 0; i < stream_.size(); ++i) {
      const LintEvent& ev = stream_[i];
      switch (ev.kind) {
      case LintEvent::Kind::Task: check_task(i, ev); break;
      case LintEvent::Kind::Index: check_index(i, ev); break;
      case LintEvent::Kind::BeginTrace:
      case LintEvent::Kind::EndTrace:
      case LintEvent::Kind::EndIteration: break;
      }
    }
    check_traces();
    check_redundant_edges();

    LintReport report;
    report.errors = errors_.size();
    report.warnings = warnings_.size();
    report.findings = std::move(errors_);
    report.findings.insert(report.findings.end(), warnings_.begin(),
                           warnings_.end());
    if (report.findings.size() > options_.max_findings)
      report.findings.resize(options_.max_findings);
    return report;
  }

private:
  void add(LintRule rule, LintSeverity severity, std::size_t item,
           std::string message) {
    auto& sink = severity == LintSeverity::Error ? errors_ : warnings_;
    sink.push_back(LintFinding{rule, severity, item, std::move(message)});
  }

  /// VL001: a committed partition whose declared disjoint/complete flags
  /// contradict its actual subspaces (possible in release builds, where
  /// claims are trusted without the debug-mode cross-check).
  void check_partition_claims() {
    for (std::uint32_t p = 0; p < forest_.num_partitions(); ++p) {
      PartitionHandle ph{p};
      if (!forest_.is_claimed(ph)) continue; // computed flags can't be wrong
      std::span<const RegionHandle> children = forest_.children(ph);
      std::vector<IntervalSet> domains;
      domains.reserve(children.size());
      IntervalSet all_union;
      for (RegionHandle child : children) {
        domains.push_back(forest_.domain(child));
        all_union = all_union.unite(domains.back());
      }
      bool disjoint = all_pairwise_disjoint(domains);
      bool complete = all_union == forest_.domain(forest_.parent_of(ph));
      if (disjoint != forest_.is_disjoint(ph)) {
        std::ostringstream os;
        os << "partition '" << forest_.name(ph) << "' is declared "
           << (forest_.is_disjoint(ph) ? "disjoint" : "aliased")
           << " but its subspaces are "
           << (disjoint ? "pairwise disjoint" : "overlapping");
        add(LintRule::PartitionClaim, LintSeverity::Error, SIZE_MAX,
            os.str());
      }
      if (complete != forest_.is_complete(ph)) {
        std::ostringstream os;
        os << "partition '" << forest_.name(ph) << "' is declared "
           << (forest_.is_complete(ph) ? "complete" : "incomplete")
           << " but its subspaces "
           << (complete ? "cover" : "do not cover") << " the parent";
        add(LintRule::PartitionClaim, LintSeverity::Error, SIZE_MAX,
            os.str());
      }
    }
  }

  /// VL002 / VL004 / VL005 over one task's requirement list.
  void check_reqs(std::size_t item, std::span<const Requirement> reqs,
                  const char* what) {
    for (std::size_t j = 0; j < reqs.size(); ++j) {
      const Requirement& rj = reqs[j];
      const IntervalSet& dj = forest_.domain(rj.region);
      if (dj.empty()) {
        std::ostringstream os;
        os << what << " requirement " << j << " on "
           << forest_.name(rj.region)
           << " has an empty domain; its privilege can never be used";
        add(LintRule::UnusedPrivilege, LintSeverity::Warning, item, os.str());
      }
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (i == j) continue;
        const Requirement& ri = reqs[i];
        if (ri.field != rj.field) continue;
        const IntervalSet& di = forest_.domain(ri.region);
        if (i < j && ri.region == rj.region) {
          std::ostringstream os;
          os << what << " names " << forest_.name(rj.region) << " field "
             << rj.field << " twice (requirements " << i << " and " << j
             << "); the duplicate is unused";
          add(LintRule::UnusedPrivilege, LintSeverity::Warning, item,
              os.str());
          continue;
        }
        if (i < j && di.overlaps(dj) &&
            interferes(ri.privilege, rj.privilege)) {
          std::ostringstream os;
          os << what << " holds interfering privileges ("
             << to_string(ri.privilege) << " vs " << to_string(rj.privilege)
             << ") on overlapping regions " << forest_.name(ri.region)
             << " and " << forest_.name(rj.region) << " of field " << rj.field
             << "; in-task ordering is undefined (the paper forbids aliased "
                "interfering arguments)";
          add(LintRule::PrivilegeSubsumption, LintSeverity::Error, item,
              os.str());
          continue;
        }
        if (ri.region != rj.region && di.contains(dj) &&
            !interferes(ri.privilege, rj.privilege) &&
            subsumes(ri.privilege, rj.privilege) && (di != dj || i < j)) {
          std::ostringstream os;
          os << what << " requirement " << j << " ("
             << to_string(rj.privilege) << " on " << forest_.name(rj.region)
             << ") is covered by requirement " << i << " ("
             << to_string(ri.privilege) << " on " << forest_.name(ri.region)
             << ") and can be dropped";
          add(LintRule::OverPrivilege, LintSeverity::Warning, item, os.str());
        }
      }
    }
  }

  void check_task(std::size_t item, const LintEvent& ev) {
    check_reqs(item, ev.requirements, "task");
  }

  /// Index launches: per-point requirement checks (VL002/4/5 on the
  /// expanded point task) plus VL003, cross-point interference — point
  /// tasks of one index launch are meant to run in parallel, so any
  /// interference between two colors serializes them.
  void check_index(std::size_t item, const LintEvent& ev) {
    if (ev.index_requirements.empty()) return;
    std::size_t colors = SIZE_MAX;
    for (const LintIndexReq& req : ev.index_requirements)
      colors = std::min(colors, forest_.partition_size(req.partition));

    for (std::size_t c = 0; c < colors; ++c) {
      std::vector<Requirement> point;
      point.reserve(ev.index_requirements.size());
      for (const LintIndexReq& req : ev.index_requirements)
        point.push_back(Requirement{forest_.subregion(req.partition, c),
                                    req.field, req.privilege});
      check_reqs(item, point, "index-launch point task");
    }

    for (std::size_t c1 = 0; c1 < colors; ++c1) {
      for (std::size_t c2 = c1 + 1; c2 < colors; ++c2) {
        for (const LintIndexReq& ri : ev.index_requirements) {
          for (const LintIndexReq& rj : ev.index_requirements) {
            if (ri.field != rj.field) continue;
            if (!interferes(ri.privilege, rj.privilege)) continue;
            RegionHandle a = forest_.subregion(ri.partition, c1);
            RegionHandle b = forest_.subregion(rj.partition, c2);
            if (!forest_.domain(a).overlaps(forest_.domain(b))) continue;
            std::ostringstream os;
            os << "index launch points " << c1 << " and " << c2
               << " interfere (" << to_string(ri.privilege) << " on "
               << forest_.name(a) << " vs " << to_string(rj.privilege)
               << " on " << forest_.name(b) << ", partition '"
               << forest_.name(ri.partition)
               << "' is aliased): the points serialize instead of running "
                  "in parallel";
            add(LintRule::AliasedWrite, LintSeverity::Warning, item,
                os.str());
            return; // one witness per index launch is enough
          }
        }
      }
    }
  }

  /// VL006: trace bracket shape and replayability.
  void check_traces() {
    bool active = false;
    std::uint32_t active_id = 0;
    std::size_t begin_item = 0;
    std::vector<const LintEvent*> body;
    std::map<std::uint32_t, std::vector<LintEvent>> first_bodies;

    auto close_body = [&](std::size_t item) {
      if (body.empty()) {
        std::ostringstream os;
        os << "trace " << active_id
           << " contains no launches; the bracket memoizes nothing";
        add(LintRule::TraceShape, LintSeverity::Warning, item, os.str());
      }
      auto it = first_bodies.find(active_id);
      if (it == first_bodies.end()) {
        std::vector<LintEvent>& first = first_bodies[active_id];
        for (const LintEvent* ev : body) first.push_back(*ev);
        return;
      }
      bool same = it->second.size() == body.size();
      for (std::size_t k = 0; same && k < body.size(); ++k) {
        const LintEvent& a = it->second[k];
        const LintEvent& b = *body[k];
        same = a.kind == b.kind && a.requirements == b.requirements &&
               a.index_requirements == b.index_requirements;
      }
      if (!same) {
        std::ostringstream os;
        os << "trace " << active_id
           << " repeats with a different launch sequence; its memoized "
              "analysis will be invalidated and re-captured";
        add(LintRule::TraceShape, LintSeverity::Warning, item, os.str());
      }
    };

    for (std::size_t i = 0; i < stream_.size(); ++i) {
      const LintEvent& ev = stream_[i];
      switch (ev.kind) {
      case LintEvent::Kind::BeginTrace:
        if (active) {
          add(LintRule::TraceShape, LintSeverity::Error, i,
              "begin_trace inside an active trace; traces cannot nest");
        } else {
          active = true;
          active_id = ev.trace_id;
          begin_item = i;
          body.clear();
        }
        break;
      case LintEvent::Kind::EndTrace:
        if (!active) {
          add(LintRule::TraceShape, LintSeverity::Error, i,
              "end_trace without a matching begin_trace");
        } else {
          close_body(i);
          active = false;
        }
        break;
      case LintEvent::Kind::Task:
      case LintEvent::Kind::Index:
        if (active) body.push_back(&ev);
        break;
      case LintEvent::Kind::EndIteration: break;
      }
    }
    if (active) {
      std::ostringstream os;
      os << "trace " << active_id << " opened at stream position "
         << begin_item << " is never closed";
      add(LintRule::TraceShape, LintSeverity::Error, begin_item, os.str());
    }
  }

  /// VL007: a requirement is a pure-redundant edge producer when every
  /// dependence edge it would induce (against each earlier interfering
  /// launch) is transitively implied through edges the launch's *other*
  /// requirements induce.  Dropping it would leave the launch's position
  /// in the dependence order unchanged — the privilege grants data access
  /// but re-states ordering that already exists.  Detection replays the
  /// launch stream into an order-maintenance structure so each implied-by
  /// test is an O(1) precedes() query.  (The edge from a launch's newest
  /// partner can never be implied, so a single-requirement launch is
  /// never flagged; the rule only fires when ordering responsibilities
  /// split across requirements.)
  void check_redundant_edges() {
    OrderMaintenance order;
    std::vector<std::vector<Requirement>> launches; // node id -> lowered reqs
    for (std::size_t i = 0; i < stream_.size(); ++i) {
      const LintEvent& ev = stream_[i];
      std::vector<Requirement> reqs;
      const char* what = "task";
      if (ev.kind == LintEvent::Kind::Task) {
        reqs = ev.requirements;
      } else if (ev.kind == LintEvent::Kind::Index) {
        // For cross-launch ordering an index launch acts as one holder of
        // each privilege over the partition's parent (the union of its
        // points).
        what = "index launch";
        for (const LintIndexReq& r : ev.index_requirements)
          reqs.push_back(Requirement{forest_.parent_of(r.partition), r.field,
                                     r.privilege});
      } else {
        continue;
      }

      const std::uint64_t id = launches.size();
      // partners[j]: earlier launches requirement j interferes with.
      std::vector<std::vector<std::uint64_t>> partners(reqs.size());
      std::vector<std::uint64_t> all; // their union, ascending
      for (std::uint64_t a = 0; a < id; ++a) {
        for (std::size_t j = 0; j < reqs.size(); ++j) {
          const IntervalSet& dj = forest_.domain(reqs[j].region);
          for (const Requirement& ra : launches[a]) {
            if (ra.field != reqs[j].field) continue;
            if (!interferes(ra.privilege, reqs[j].privilege)) continue;
            if (!forest_.domain(ra.region).overlaps(dj)) continue;
            partners[j].push_back(a);
            if (all.empty() || all.back() != a) all.push_back(a);
            break;
          }
        }
      }

      for (std::size_t j = 0; reqs.size() > 1 && j < reqs.size(); ++j) {
        if (partners[j].empty()) continue;
        std::set<std::uint64_t> others;
        for (std::size_t k = 0; k < reqs.size(); ++k)
          if (k != j) others.insert(partners[k].begin(), partners[k].end());
        bool redundant = true;
        bool used_path = false; // at least one genuinely transitive proof
        for (std::uint64_t a : partners[j]) {
          if (others.count(a)) continue; // the edge exists regardless
          bool implied = false;
          for (std::uint64_t q : others)
            if (order.precedes(a, q)) { // a => q -> this launch
              implied = true;
              used_path = true;
              break;
            }
          if (!implied) {
            redundant = false;
            break;
          }
        }
        // Require a real transitive implication: when the requirements
        // merely share partners, neither is singled out as the redundant
        // one and flagging both would invite dropping both.
        if (!redundant || !used_path) continue;
        std::ostringstream os;
        os << what << " requirement " << j << " ("
           << to_string(reqs[j].privilege) << " on "
           << forest_.name(reqs[j].region) << " field " << reqs[j].field
           << ") only induces dependence edges (" << partners[j].size()
           << ") that are transitively implied by the launch's other "
              "requirements; it adds data access but no ordering";
        add(LintRule::RedundantEdges, LintSeverity::Warning, i, os.str());
      }

      order.add_node(all);
      launches.push_back(std::move(reqs));
    }
  }

  const RegionTreeForest& forest_;
  std::span<const LintEvent> stream_;
  const LintOptions& options_;
  std::vector<LintFinding> errors_;
  std::vector<LintFinding> warnings_;
};

} // namespace

LintReport lint(const RegionTreeForest& forest,
                std::span<const LintEvent> stream,
                const LintOptions& options) {
  return Linter(forest, stream, options).run();
}

std::string LintReport::summary() const {
  if (clean()) return "lint: clean";
  std::ostringstream os;
  os << "lint: " << errors << " error" << (errors == 1 ? "" : "s") << ", "
     << warnings << " warning" << (warnings == 1 ? "" : "s");
  return os.str();
}

std::string LintReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"errors\":" << errors
     << ",\"warnings\":" << warnings << ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const LintFinding& f = findings[i];
    os << (i ? "," : "") << "{\"rule\":\"" << lint_rule_id(f.rule)
       << "\",\"name\":\"" << lint_rule_name(f.rule) << "\",\"severity\":\""
       << (f.severity == LintSeverity::Error ? "error" : "warning") << "\"";
    if (f.item != SIZE_MAX) os << ",\"item\":" << f.item;
    os << ",\"message\":\"" << obs::json_escape(f.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

} // namespace visrt::analysis
