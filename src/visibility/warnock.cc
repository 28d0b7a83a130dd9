#include "visibility/warnock.h"

#include <algorithm>

#include "common/check.h"
#include "obs/lifecycle.h"
#include "obs/recorder.h"

namespace visrt {

namespace {
/// Serialized size of one history entry shipped in a response.
constexpr std::uint64_t kEntryMetaBytes = 32;
} // namespace

void WarnockEngine::initialize_field(RegionHandle root, FieldID field,
                                     RegionData<double> initial,
                                     NodeID home) {
  FieldState fs;
  fs.root = root;
  fs.id = field;
  fs.home = home;
  EqSetNode eq;
  eq.dom = config_.forest->domain(root);
  eq.owner = home;
  HistEntry init;
  init.task = kInvalidLaunch;
  init.priv = Privilege::read_write();
  init.owner = home;
  if (config_.track_values) {
    require(initial.domain() == eq.dom,
            "initial data must cover the root region");
    init.values = std::move(initial);
  }
  eq.history.push_back(std::move(init));
  fs.nodes.push_back(std::move(eq));
  fs.total_created = 1;
  fs.live = 1;
  if (config_.lifecycle)
    config_.lifecycle->record(obs::LifecycleEventKind::Create, kInvalidLaunch,
                              field, 0, kNoEqSetID, home, fs.live);
  fields_.emplace(field, std::move(fs));
}

WarnockEngine::FieldState& WarnockEngine::field_state(FieldID field) {
  auto it = fields_.find(field);
  require(it != fields_.end(), "access to unregistered field");
  return it->second;
}

std::vector<std::uint32_t> WarnockEngine::lookup(FieldState& fs,
                                                 const Requirement& req,
                                                 const IntervalSet& dom,
                                                 AnalysisCounters& local) {
  // Entry points: memoized sets from the last use of this region, or the
  // refinement-tree root.  Refinement is monotone so memoized nodes are
  // always ancestors-or-equal of the current leaves.
  std::vector<std::uint32_t> stack;
  if (config_.tuning.warnock_memoize) {
    auto mit = fs.memo.find(req.region.index);
    if (mit != fs.memo.end()) stack = mit->second;
  }
  if (stack.empty()) stack.push_back(0);

  std::vector<std::uint32_t> leaves;
  while (!stack.empty()) {
    std::uint32_t id = stack.back();
    stack.pop_back();
    const EqSetNode& n = fs.nodes[id];
    // BVH traversal tests bounding volumes; the precise domain test is
    // charged as a single interval op (the common case rejects or accepts
    // on the bounds).
    ++local.accel_nodes;
    ++local.interval_ops;
    if (!n.dom.bounds().overlaps(dom.bounds())) continue;
    if (!n.dom.overlaps(dom)) continue;
    if (n.live) {
      leaves.push_back(id);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  return leaves;
}

void WarnockEngine::refine_leaf(FieldState& fs, std::uint32_t id,
                                const IntervalSet& cut, NodeID inside_owner,
                                LaunchID launch,
                                std::vector<AnalysisStep>& steps) {
  EqSetNode& n = fs.nodes[id];
  invariant(n.live, "refining a non-live equivalence set");
  // The set's owner performs the split: one message round trip.
  AnalysisStep step;
  step.owner = n.owner;
  ++step.counters.eqset_refines;
  step.counters.refine_intervals +=
      n.dom.interval_count() + cut.interval_count();
  step.meta_bytes = 64;
  step.eqset = id;
  steps.push_back(std::move(step));

  EqSetNode inside, outside;
  inside.dom = n.dom.intersect(cut);
  outside.dom = n.dom.subtract(cut);
  inside.owner = inside_owner;
  outside.owner = n.owner;
  // The outside half keeps the parent's history, restricted in place.
  inside.history.reserve(n.history.size());
  for (const HistEntry& e : n.history)
    inside.history.push_back(restrict_entry(e, inside.dom));
  outside.history = std::move(n.history);
  for (HistEntry& e : outside.history)
    if (e.values.has_value()) e.values = e.values->restricted(outside.dom);
  n.history.clear();
  n.live = false;
  n.left = static_cast<std::uint32_t>(fs.nodes.size());
  n.right = n.left + 1;
  const std::uint32_t left = n.left;
  const std::uint32_t right = n.right;
  const NodeID outside_owner = n.owner;
  fs.nodes.push_back(std::move(inside));
  fs.nodes.push_back(std::move(outside));
  fs.total_created += 2;
  fs.live += 1; // one leaf became two
  if (config_.lifecycle) {
    obs::LifecycleLedger& ledger = *config_.lifecycle;
    ledger.record(obs::LifecycleEventKind::Refine, launch, fs.id, id,
                  kNoEqSetID, outside_owner, fs.live);
    ledger.record(obs::LifecycleEventKind::Create, launch, fs.id, left, id,
                  inside_owner, fs.live);
    ledger.record(obs::LifecycleEventKind::Create, launch, fs.id, right, id,
                  outside_owner, fs.live);
    if (inside_owner != outside_owner)
      ledger.record(obs::LifecycleEventKind::Migrate, launch, fs.id, left,
                    id, inside_owner, fs.live);
  }
}

MaterializeResult WarnockEngine::materialize(const Requirement& req,
                                             const AnalysisContext& ctx) {
  FieldState& fs = field_state(req.field);
  const IntervalSet& dom = config_.forest->domain(req.region);

  MaterializeResult out;
  AnalysisCounters local;

  std::vector<std::uint32_t> leaves;
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "warnock/accel_lookup", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    leaves = lookup(fs, req, dom, local);
  }

  // Refine every partially-overlapping leaf; keep the inside children.
  std::vector<std::uint32_t> inside_ids;
  inside_ids.reserve(leaves.size());
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "warnock/eqset_refine", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    for (std::uint32_t id : leaves) {
      if (dom.contains(fs.nodes[id].dom)) {
        inside_ids.push_back(id);
      } else {
        refine_leaf(fs, id, dom, ctx.mapped_node, ctx.task, out.steps);
        inside_ids.push_back(fs.nodes[id].left);
      }
    }
  }
  if (config_.tuning.warnock_memoize) fs.memo[req.region.index] = inside_ids;

  // Visit each constituent set — one message round trip per set.  Every
  // equivalence set is an independent distributed object (as in Legion),
  // so analysis traffic is proportional to the number of sets touched;
  // this is exactly the effect the paper credits for ray casting's
  // advantage ("it maintains fewer total equivalence sets in its lists").
  bool paint_values = config_.track_values && !req.privilege.is_reduce();
  RegionData<double> data;
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "warnock/set_visit", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    for (std::uint32_t id : inside_ids) {
      const EqSetNode& n = fs.nodes[id];
      if (n.dom.empty()) continue;
      AnalysisStep step;
      step.owner = n.owner;
      ++step.counters.eqset_visits;
      step.eqset = id;
      for (const HistEntry& e : n.history) {
        if (!entry_depends(e, req.privilege, step.counters)) continue;
        add_dependence(out.dependences, e.task);
        if (config_.provenance && e.task != kInvalidLaunch) {
          obs::EdgeProvenance p;
          p.from = e.task;
          p.phase = obs::ProvPhase::EqSetVisit;
          p.region = req.region.index;
          p.eqset = id;
          p.field = req.field;
          p.prev = e.priv;
          p.cur = req.privilege;
          out.provenance.push_back(p);
        }
      }
      RegionData<double> piece;
      if (paint_values) {
        piece = RegionData<double>::filled(n.dom, 0.0);
        for (const HistEntry& e : n.history) {
          if (e.values.has_value())
            paint_entry(piece, e, n.dom, step.counters);
        }
      }
      step.meta_bytes = 64 + kEntryMetaBytes * n.history.size();
      out.steps.push_back(std::move(step));
      if (paint_values)
        data = data.empty() ? std::move(piece) : data.merged_with(piece);
    }
  }

  if (config_.track_values) {
    if (req.privilege.is_reduce()) {
      out.data = RegionData<double>::filled(
          dom, reduction_op(req.privilege.redop).identity);
    } else {
      out.data = std::move(data);
      invariant(out.data.domain() == dom,
                "equivalence sets failed to cover the requested region");
    }
  }

  out.steps.push_back(AnalysisStep{ctx.analysis_node, local, 0});
  return out;
}

std::vector<AnalysisStep> WarnockEngine::commit(
    const Requirement& req, const RegionData<double>& result,
    const AnalysisContext& ctx) {
  FieldState& fs = field_state(req.field);
  const IntervalSet& dom = config_.forest->domain(req.region);

  AnalysisCounters local;
  obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                   "warnock/commit_register", ctx.task, ctx.analysis_node,
                   &local);
  std::vector<AnalysisStep> steps;
  std::vector<std::uint32_t> leaves;
  {
    obs::Scope lookup_scope(config_.recorder, obs::SpanKind::Phase,
                            "warnock/commit_lookup", ctx.task,
                            ctx.analysis_node, &local);
    leaves = lookup(fs, req, dom, local);
  }

  // Registering the committed operation piggybacks on the materialize
  // round trip already paid for each set; commit itself is local
  // bookkeeping.
  for (std::uint32_t id : leaves) {
    EqSetNode& n = fs.nodes[id];
    if (n.dom.empty()) continue;
    invariant(dom.contains(n.dom),
              "commit found an unrefined equivalence set");
    ++local.interval_ops;
    HistEntry e;
    e.task = ctx.task;
    e.priv = req.privilege;
    e.owner = ctx.mapped_node;
    if (config_.track_values && !req.privilege.is_read()) {
      e.values = result.restricted(n.dom);
    }
    if (req.privilege.is_write()) n.history.clear();
    n.history.push_back(std::move(e));
  }

  steps.push_back(AnalysisStep{ctx.analysis_node, local, 0});
  return steps;
}

EngineStats WarnockEngine::stats() const {
  EngineStats s;
  for (const auto& [field, fs] : fields_) {
    s.live_eqsets += fs.live;
    s.total_eqsets_created += fs.total_created;
    for (const EqSetNode& n : fs.nodes) {
      if (n.live) s.history_entries += n.history.size();
    }
  }
  return s;
}

} // namespace visrt
