#include "visibility/naive.h"

#include "common/check.h"
#include "obs/lifecycle.h"
#include "obs/recorder.h"

namespace visrt {

namespace {

/// Dependences and (optionally) values from painting a history in order.
/// `dom` restricts the walk; `target` may be null (dependences only).
/// When `prov` is non-null, one HistoryWalk provenance record per hit is
/// appended (stamped with `region`/`field`; the dep graph keeps the first
/// per edge).
void walk_history(const std::vector<PaintEntry>& history,
                  const IntervalSet& dom, const Privilege& priv,
                  RegionData<double>* target, std::vector<LaunchID>& deps,
                  AnalysisCounters& c,
                  std::vector<obs::EdgeProvenance>* prov = nullptr,
                  RegionTreeID region = UINT32_MAX, FieldID field = 0) {
  for (const PaintEntry& e : history) {
    if (!entry_depends(e, dom, priv, c)) continue;
    add_dependence(deps, e.task);
    if (prov != nullptr && e.task != kInvalidLaunch) {
      obs::EdgeProvenance p;
      p.from = e.task;
      p.phase = obs::ProvPhase::HistoryWalk;
      p.region = region;
      p.eqset = kNoEqSetID;
      p.field = field;
      p.prev = e.priv;
      p.cur = priv;
      prov->push_back(p);
    }
  }
  if (target != nullptr) {
    for (const PaintEntry& e : history) {
      if (e.values.has_value()) paint_entry(*target, e, c);
    }
  }
}

} // namespace

// ---------------------------------------------------------------------------
// NaivePaintEngine (Figure 7)
// ---------------------------------------------------------------------------

void NaivePaintEngine::initialize_field(RegionHandle root, FieldID field,
                                        RegionData<double> initial,
                                        NodeID home) {
  FieldState fs;
  fs.root = root;
  fs.home = home;
  fs.root_domain = config_.forest->domain(root);
  PaintEntry init;
  init.task = kInvalidLaunch;
  init.priv = Privilege::read_write();
  init.dom = fs.root_domain;
  init.owner = home;
  if (config_.track_values) {
    require(initial.domain() == fs.root_domain,
            "initial data must cover the root region");
    init.values = std::move(initial);
  }
  fs.history.push_back(std::move(init));
  fields_.emplace(field, std::move(fs));
}

MaterializeResult NaivePaintEngine::materialize(const Requirement& req,
                                                const AnalysisContext& ctx) {
  auto it = fields_.find(req.field);
  require(it != fields_.end(), "materialize on unregistered field");
  FieldState& fs = it->second;
  const IntervalSet& dom = config_.forest->domain(req.region);

  MaterializeResult out;
  AnalysisCounters c;
  obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                   "naive/history_walk", ctx.task, ctx.analysis_node, &c);
  std::vector<obs::EdgeProvenance>* prov =
      config_.provenance ? &out.provenance : nullptr;
  if (req.privilege.is_reduce()) {
    // Reductions accumulate locally; the history is walked only for
    // dependences (Figure 7 line 14-15 plus the dependence analysis the
    // paper layers on the same traversal).
    if (config_.track_values) {
      out.data = RegionData<double>::filled(
          dom, reduction_op(req.privilege.redop).identity);
    }
    walk_history(fs.history, dom, req.privilege, nullptr, out.dependences, c,
                 prov, req.region.index, req.field);
  } else {
    RegionData<double> data;
    RegionData<double>* target = nullptr;
    if (config_.track_values) {
      data = RegionData<double>::filled(dom, 0.0);
      target = &data;
    }
    walk_history(fs.history, dom, req.privilege, target, out.dependences, c,
                 prov, req.region.index, req.field);
    out.data = std::move(data);
  }
  out.steps.push_back(AnalysisStep{fs.home, c, 0});
  return out;
}

std::vector<AnalysisStep> NaivePaintEngine::commit(
    const Requirement& req, const RegionData<double>& result,
    const AnalysisContext& ctx) {
  auto it = fields_.find(req.field);
  require(it != fields_.end(), "commit on unregistered field");
  FieldState& fs = it->second;

  AnalysisCounters c;
  obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                   "naive/commit_register", ctx.task, ctx.analysis_node, &c);
  PaintEntry e;
  e.task = ctx.task;
  e.priv = req.privilege;
  e.dom = config_.forest->domain(req.region);
  e.owner = ctx.mapped_node;
  if (config_.track_values && !req.privilege.is_read()) {
    require(result.domain() == e.dom, "commit data must cover the region");
    e.values = result;
  }
  fs.history.push_back(std::move(e));

  ++c.history_entries; // the append itself
  return {AnalysisStep{fs.home, c, 0}};
}

EngineStats NaivePaintEngine::stats() const {
  EngineStats s;
  for (const auto& [field, fs] : fields_) s.history_entries += fs.history.size();
  return s;
}

// ---------------------------------------------------------------------------
// NaiveWarnockEngine (Figure 9)
// ---------------------------------------------------------------------------

void NaiveWarnockEngine::initialize_field(RegionHandle root, FieldID field,
                                          RegionData<double> initial,
                                          NodeID home) {
  FieldState fs;
  fs.root = root;
  fs.home = home;
  fs.root_domain = config_.forest->domain(root);
  EqSet eq;
  eq.dom = fs.root_domain;
  HistEntry init;
  init.task = kInvalidLaunch;
  init.priv = Privilege::read_write();
  init.owner = home;
  if (config_.track_values) {
    require(initial.domain() == fs.root_domain,
            "initial data must cover the root region");
    init.values = std::move(initial);
  }
  eq.history.push_back(std::move(init));
  fs.sets.push_back(std::move(eq));
  ++fs.sets_created;
  fields_.emplace(field, std::move(fs));
}

NaiveWarnockEngine::FieldState&
NaiveWarnockEngine::field_state(const Requirement& req) {
  auto it = fields_.find(req.field);
  require(it != fields_.end(), "access to unregistered field");
  return it->second;
}

void NaiveWarnockEngine::refine(FieldState& fs, const IntervalSet& dom,
                                AnalysisCounters& c) {
  std::vector<EqSet> refined;
  refined.reserve(fs.sets.size());
  for (EqSet& eq : fs.sets) {
    ++c.eqset_visits;
    c.interval_ops += eq.dom.interval_count();
    if (!eq.dom.overlaps(dom) || dom.contains(eq.dom)) {
      refined.push_back(std::move(eq));
      continue;
    }
    // Split into the parts inside and outside dom; histories restrict.
    ++c.eqset_refines;
    EqSet inside, outside;
    inside.dom = eq.dom.intersect(dom);
    outside.dom = eq.dom.subtract(dom);
    for (const HistEntry& e : eq.history) {
      inside.history.push_back(restrict_entry(e, inside.dom));
      outside.history.push_back(restrict_entry(e, outside.dom));
    }
    refined.push_back(std::move(inside));
    refined.push_back(std::move(outside));
  }
  fs.sets = std::move(refined);
}

MaterializeResult NaiveWarnockEngine::materialize(const Requirement& req,
                                                  const AnalysisContext& ctx) {
  FieldState& fs = field_state(req);
  const IntervalSet& dom = config_.forest->domain(req.region);

  MaterializeResult out;
  AnalysisCounters c;
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "naive/eqset_refine", ctx.task, ctx.analysis_node, &c);
    std::size_t before = fs.sets.size();
    refine(fs, dom, c);
    // Each split removes one set and creates two, so the net growth equals
    // the number of splits and the number of freshly created sets is twice
    // that.
    std::size_t splits = fs.sets.size() - before;
    if (config_.lifecycle) {
      // Naive sets carry no stable ids (refine rebuilds the vector), so
      // lifecycle events use synthetic ids drawn from the creation counter.
      for (std::size_t k = 0; k < splits; ++k) {
        auto id = static_cast<EqSetID>(fs.sets_created + 2 * k);
        config_.lifecycle->record(obs::LifecycleEventKind::Refine, ctx.task,
                                  req.field, kNoEqSetID, kNoEqSetID, fs.home,
                                  before + k);
        config_.lifecycle->record(obs::LifecycleEventKind::Create, ctx.task,
                                  req.field, id, kNoEqSetID, fs.home,
                                  before + k);
        config_.lifecycle->record(obs::LifecycleEventKind::Create, ctx.task,
                                  req.field, id + 1, kNoEqSetID, fs.home,
                                  before + k + 1);
      }
    }
    fs.sets_created += 2 * splits;
  }

  RegionData<double> data;
  bool build_values = config_.track_values;
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "naive/set_visit", ctx.task, ctx.analysis_node, &c);
    for (const EqSet& eq : fs.sets) {
      if (!dom.contains(eq.dom) || eq.dom.empty()) continue;
      ++c.eqset_visits;
      for (const HistEntry& e : eq.history) {
        if (!entry_depends(e, req.privilege, c)) continue;
        add_dependence(out.dependences, e.task);
        if (config_.provenance && e.task != kInvalidLaunch) {
          obs::EdgeProvenance p;
          p.from = e.task;
          p.phase = obs::ProvPhase::EqSetVisit;
          p.region = req.region.index;
          p.eqset = kNoEqSetID; // naive sets have no stable ids
          p.field = req.field;
          p.prev = e.priv;
          p.cur = req.privilege;
          out.provenance.push_back(p);
        }
      }
      if (!build_values) continue;
      RegionData<double> piece;
      if (req.privilege.is_reduce()) {
        piece = RegionData<double>::filled(
            eq.dom, reduction_op(req.privilege.redop).identity);
      } else {
        piece = RegionData<double>::filled(eq.dom, 0.0);
        for (const HistEntry& e : eq.history) {
          if (e.values.has_value()) paint_entry(piece, e, eq.dom, c);
        }
      }
      data = data.empty() ? std::move(piece) : data.merged_with(piece);
    }
  }
  if (build_values && data.empty() && !dom.empty()) {
    // Domain with no equivalence sets can't happen: sets cover the root.
    invariant(dom.empty(), "equivalence sets failed to cover a request");
  }
  out.data = std::move(data);
  out.steps.push_back(AnalysisStep{fs.home, c, 0});
  return out;
}

std::vector<AnalysisStep> NaiveWarnockEngine::commit(
    const Requirement& req, const RegionData<double>& result,
    const AnalysisContext& ctx) {
  FieldState& fs = field_state(req);
  const IntervalSet& dom = config_.forest->domain(req.region);
  AnalysisCounters c;

  obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                   "naive/commit_register", ctx.task, ctx.analysis_node, &c);
  for (EqSet& eq : fs.sets) {
    // materialize() refined, so each set is inside dom or disjoint from it.
    if (eq.dom.empty() || !dom.contains(eq.dom)) continue;
    ++c.eqset_visits;
    HistEntry e;
    e.task = ctx.task;
    e.priv = req.privilege;
    e.owner = ctx.mapped_node;
    if (config_.track_values && !req.privilege.is_read()) {
      e.values = result.restricted(eq.dom);
    }
    if (req.privilege.is_write()) {
      eq.history.clear(); // the write occludes the set's entire history
    }
    eq.history.push_back(std::move(e));
  }
  return {AnalysisStep{fs.home, c, 0}};
}

EngineStats NaiveWarnockEngine::stats() const {
  EngineStats s;
  for (const auto& [field, fs] : fields_) {
    s.live_eqsets += fs.sets.size();
    s.total_eqsets_created += fs.sets_created;
    for (const EqSet& eq : fs.sets) s.history_entries += eq.history.size();
  }
  return s;
}

// ---------------------------------------------------------------------------
// NaiveRayCastEngine (Figure 11)
// ---------------------------------------------------------------------------

MaterializeResult NaiveRayCastEngine::materialize(const Requirement& req,
                                                  const AnalysisContext& ctx) {
  MaterializeResult out = NaiveWarnockEngine::materialize(req, ctx);
  if (!req.privilege.is_write()) return out;

  // dominating_write (Figure 11 lines 1-3): replace every equivalence set
  // covered by the region with a single fresh set whose history holds just
  // the pending write.
  FieldState& fs = field_state(req);
  const IntervalSet& dom = config_.forest->domain(req.region);
  AnalysisCounters c;
  obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                   "naive/eqset_prune", ctx.task, ctx.analysis_node, &c);
  std::size_t before = fs.sets.size();
  std::erase_if(fs.sets, [&](const EqSet& eq) {
    return eq.dom.empty() || dom.contains(eq.dom);
  });
  std::size_t pruned = before - fs.sets.size();
  c.eqsets_pruned += pruned;
  if (config_.lifecycle) {
    for (std::size_t k = 0; k < pruned; ++k)
      config_.lifecycle->record(obs::LifecycleEventKind::Coalesce, ctx.task,
                                req.field, kNoEqSetID, kNoEqSetID, fs.home,
                                before - k - 1);
    config_.lifecycle->record(obs::LifecycleEventKind::Create, ctx.task,
                              req.field,
                              static_cast<EqSetID>(fs.sets_created),
                              kNoEqSetID, fs.home, fs.sets.size() + 1);
  }

  EqSet fresh;
  fresh.dom = dom;
  HistEntry e;
  e.task = ctx.task;
  e.priv = Privilege::read_write();
  e.owner = ctx.mapped_node;
  if (config_.track_values) e.values = out.data;
  fresh.history.push_back(std::move(e));
  fs.sets.push_back(std::move(fresh));
  ++c.eqsets_created;
  ++fs.sets_created;

  out.steps.push_back(AnalysisStep{fs.home, c, 0});
  return out;
}

} // namespace visrt
