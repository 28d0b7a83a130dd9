#include "visibility/raycast.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"
#include "obs/lifecycle.h"
#include "obs/recorder.h"

namespace visrt {

void RayCastEngine::initialize_field(RegionHandle root, FieldID field,
                                     RegionData<double> initial,
                                     NodeID home) {
  FieldState fs;
  fs.root = root;
  fs.id = field;
  fs.home = home;
  EqSet eq;
  eq.dom = region_dom(root);
  eq.owner = home;
  HistEntry init;
  init.task = kInvalidLaunch;
  init.priv = Privilege::read_write();
  init.owner = home;
  if (config_.track_values) {
    require(initial.domain() == store_.get(eq.dom),
            "initial data must cover the root region");
    init.values = std::move(initial);
  }
  eq.history.push_back(std::move(init));
  fs.sets.push_back(std::move(eq));
  fs.total_created = 1;
  fs.live = 1;
  fs.fallback.insert(store_.get(fs.sets[0].dom).bounds(), 0);
  if (config_.lifecycle)
    config_.lifecycle->record(obs::LifecycleEventKind::Create, kInvalidLaunch,
                              field, 0, kNoEqSetID, home, fs.live);
  fields_.emplace(field, std::move(fs));
}

RayCastEngine::FieldState& RayCastEngine::field_state(FieldID field) {
  auto it = fields_.find(field);
  require(it != fields_.end(), "access to unregistered field");
  return it->second;
}

RayCastEngine::DomId RayCastEngine::region_dom(RegionHandle region) {
  if (region.index >= region_dom_.size())
    region_dom_.resize(region.index + 1, kNone);
  DomId& id = region_dom_[region.index];
  if (id == kNone) id = store_.intern(config_.forest->domain(region));
  return id;
}

void RayCastEngine::select_accel(FieldState& fs, RegionHandle region,
                                 AnalysisCounters& local) {
  if (config_.tuning.raycast_force_kd_fallback) return; // stay on the interval tree
  const RegionTreeForest& forest = *config_.forest;

  // Candidate: the top-level partition on this region's path, when it is
  // disjoint and complete.
  PartitionHandle candidate;
  for (RegionHandle r = region; !forest.is_root(r);
       r = forest.parent_region(r)) {
    candidate = forest.parent_partition(r);
  }
  if (!candidate.valid() || !forest.is_disjoint(candidate) ||
      !forest.is_complete(candidate)) {
    return; // keep whatever structure is in use
  }
  if (fs.accel_partition == candidate) return;
  fs.accel_partition = candidate;
  rebuild_accel(fs, local);
}

void RayCastEngine::rebuild_accel(FieldState& fs, AnalysisCounters& local) {
  const RegionTreeForest& forest = *config_.forest;
  std::span<const RegionHandle> children = forest.children(fs.accel_partition);
  std::vector<Bvh::Item> items;
  items.reserve(children.size());
  for (std::size_t color = 0; color < children.size(); ++color) {
    items.push_back(
        Bvh::Item{forest.domain(children[color]).bounds(), color});
  }
  fs.color_bvh = Bvh(std::move(items));
  fs.buckets.assign(children.size(), {});
  fs.fallback = IntervalTree{};
  fs.color_cache.clear();
  fs.align_cache.clear();
  fs.accel_colors.clear();
  for (std::uint32_t id = 0; id < fs.sets.size(); ++id) {
    if (!fs.sets[id].live) continue;
    accel_insert(fs, id, local);
  }
}

void RayCastEngine::accel_insert(FieldState& fs, std::uint32_t id,
                                 AnalysisCounters& local) {
  const DomId dom = fs.sets[id].dom;
  if (!fs.accel_partition.valid()) {
    fs.fallback.insert(store_.get(dom).bounds(), id);
    ++local.accel_nodes;
    return;
  }
  for (std::uint64_t color : accel_colors(fs, dom, local).colors)
    fs.buckets[color].push_back(id);
}

const RayCastEngine::AccelColors& RayCastEngine::accel_colors(
    FieldState& fs, DomId dom, AnalysisCounters& local) {
  auto [it, fresh] = fs.accel_colors.try_emplace(dom);
  AccelColors& c = it->second;
  if (fresh) {
    const IntervalSet& d = store_.get(dom);
    BvhQueryResult q = fs.color_bvh.query(d.bounds());
    c.nodes_visited = q.nodes_visited;
    c.candidates = q.items.size();
    const RegionTreeForest& forest = *config_.forest;
    std::span<const RegionHandle> children =
        forest.children(fs.accel_partition);
    for (std::uint64_t color : q.items)
      if (forest.domain(children[color]).overlaps(d)) c.colors.push_back(color);
  }
  local.accel_nodes += c.nodes_visited;
  local.interval_ops += c.candidates;
  return c;
}

void RayCastEngine::accel_remove(FieldState& fs, std::uint32_t id) {
  if (!fs.accel_partition.valid()) {
    fs.fallback.remove(id);
  }
  // Bucket entries are pruned lazily during casts (dead ids are skipped
  // and compacted there).
}

std::vector<std::uint32_t> RayCastEngine::cast(FieldState& fs,
                                               RegionHandle region,
                                               const IntervalSet& dom,
                                               AnalysisCounters& local) {
  std::vector<std::uint32_t> ids;
  if (!fs.accel_partition.valid()) {
    IntervalTreeQueryResult q = fs.fallback.query(dom);
    local.accel_nodes += q.nodes_visited;
    for (std::uint64_t id : q.items) {
      const EqSet& s = fs.sets[id];
      local.interval_ops += 1;
      if (s.live && store_.get(s.dom).overlaps(dom))
        ids.push_back(static_cast<std::uint32_t>(id));
    }
    return ids;
  }

  const std::vector<std::uint64_t>& colors =
      colors_for(fs, region, dom, local);

  for (std::uint64_t color : colors) {
    std::vector<std::uint32_t>& bucket = fs.buckets[color];
    // Lazily drop dead sets while scanning.  The scan itself is a trivial
    // pass over inline bounds; only accepted candidates cost an interval
    // test.
    ++local.accel_nodes;
    std::size_t keep = 0;
    for (std::uint32_t id : bucket) {
      if (!fs.sets[id].live) continue;
      bucket[keep++] = id;
      if (store_.get(fs.sets[id].dom).overlaps(dom)) {
        local.interval_ops += 1;
        ids.push_back(id);
      }
    }
    bucket.resize(keep);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

const std::vector<std::uint64_t>& RayCastEngine::colors_for(
    FieldState& fs, RegionHandle region, const IntervalSet& dom,
    AnalysisCounters& local) {
  // Fast path: the region is a subregion of the acceleration partition —
  // a single direct bucket.
  const RegionTreeForest& forest = *config_.forest;
  auto cit = fs.color_cache.find(region.index);
  if (cit != fs.color_cache.end()) {
    // Cached region->colors intersection (Legion memoizes these in the
    // region forest); only the cache probe is charged.
    ++local.accel_nodes;
    return cit->second;
  }

  std::vector<std::uint64_t> colors;
  std::span<const RegionHandle> children = forest.children(fs.accel_partition);
  bool direct = false;
  for (RegionHandle r = region; !forest.is_root(r);
       r = forest.parent_region(r)) {
    if (forest.parent_partition(r) == fs.accel_partition) {
      for (std::size_t color = 0; color < children.size(); ++color) {
        if (children[color] == r) {
          colors.push_back(color);
          break;
        }
      }
      direct = true;
      ++local.accel_nodes;
      break;
    }
  }
  if (!direct) {
    BvhQueryResult q = fs.color_bvh.query(dom.bounds());
    local.accel_nodes += q.nodes_visited;
    for (std::uint64_t color : q.items) {
      local.interval_ops += 1;
      if (forest.domain(children[color]).overlaps(dom))
        colors.push_back(color);
    }
  }
  return fs.color_cache.emplace(region.index, std::move(colors))
      .first->second;
}

std::uint32_t RayCastEngine::create_set(FieldState& fs, DomId dom,
                                        NodeID owner, LaunchID launch,
                                        EqSetID parent,
                                        AnalysisCounters& charge) {
  EqSet s;
  s.dom = dom;
  s.owner = owner;
  std::uint32_t id = static_cast<std::uint32_t>(fs.sets.size());
  fs.sets.push_back(std::move(s));
  ++fs.total_created;
  ++fs.live;
  ++charge.eqsets_created;
  accel_insert(fs, id, charge);
  if (config_.lifecycle)
    config_.lifecycle->record(obs::LifecycleEventKind::Create, launch, fs.id,
                              id, parent, owner, fs.live);
  return id;
}

void RayCastEngine::split_set(FieldState& fs, std::uint32_t id, DomId cut,
                              NodeID inside_owner, LaunchID launch,
                              std::uint32_t& inside_id,
                              std::vector<AnalysisStep>& steps) {
  // Equivalence-set refinement, as in Warnock: the old set dies, two new
  // ones inherit the restricted history.  The split is performed by the
  // set's owner: one message round trip covers the refine and both
  // registrations.
  AnalysisStep step;
  step.owner = fs.sets[id].owner;
  step.eqset = id;
  ++step.counters.eqset_refines;
  const IntervalSet& set_dom = store_.get(fs.sets[id].dom);
  const IntervalSet& cut_dom = store_.get(cut);
  const Interval sb = set_dom.bounds();
  const Interval cb = cut_dom.bounds();
  std::size_t signature = hash_all(sb.lo, sb.hi, set_dom.volume(), cb.lo,
                                   cb.hi, cut_dom.volume());
  if (fs.split_signatures.insert(signature).second) {
    // First time this (set, cut) pair is refined: compute the restricted
    // domains.  Repeats hit the interned-expression cache.
    step.counters.refine_intervals +=
        set_dom.interval_count() + cut_dom.interval_count();
  } else {
    ++step.counters.interval_ops;
  }
  step.meta_bytes = 96;

  const DomId in_dom = store_.intersect(fs.sets[id].dom, cut);
  const DomId out_dom = store_.subtract(fs.sets[id].dom, cut);
  NodeID old_owner = fs.sets[id].owner;
  if (config_.lifecycle)
    config_.lifecycle->record(obs::LifecycleEventKind::Refine, launch, fs.id,
                              id, kNoEqSetID, old_owner, fs.live);
  inside_id =
      create_set(fs, in_dom, inside_owner, launch, id, step.counters);
  std::uint32_t outside_id =
      create_set(fs, out_dom, old_owner, launch, id, step.counters);
  steps.push_back(std::move(step));

  // The outside half keeps the old set's history, restricted in place.
  EqSet& old = fs.sets[id];
  EqSet& inside = fs.sets[inside_id];
  EqSet& outside = fs.sets[outside_id];
  const IntervalSet& in_set = store_.get(in_dom);
  const IntervalSet& out_set = store_.get(out_dom);
  inside.history.reserve(old.history.size());
  for (const HistEntry& e : old.history)
    inside.history.push_back(restrict_entry(e, in_set));
  outside.history = std::move(old.history);
  for (HistEntry& e : outside.history)
    if (e.values.has_value()) e.values = e.values->restricted(out_set);
  if (old.composite.has_value()) {
    inside.composite = old.composite->restricted(in_set);
    outside.composite = old.composite->restricted(out_set);
  }
  inside.collapsed = old.collapsed;
  outside.collapsed = old.collapsed;
  old.live = false;
  old.history.clear();
  old.composite.reset();
  old.collapsed = 0;
  --fs.live;
  accel_remove(fs, id);
}

std::vector<std::uint32_t> RayCastEngine::split_aligned(
    FieldState& fs, std::uint32_t id, const IntervalSet& dom, DomId dom_id,
    NodeID inside_owner, LaunchID launch, std::vector<AnalysisStep>& steps,
    AnalysisCounters& local) {
  if (!fs.accel_partition.valid()) return {};
  const RegionTreeForest& forest = *config_.forest;
  std::span<const RegionHandle> children = forest.children(fs.accel_partition);
  const DomId set_dom = fs.sets[id].dom;

  // Interned fast path: steady-state programs re-create sets with the
  // same domains every iteration, and a set known to sit inside a single
  // subregion never needs alignment.
  const IntervalSet& sd = store_.get(set_dom);
  const Interval sb0 = sd.bounds();
  std::size_t align_sig = hash_all(sb0.lo, sb0.hi, sd.volume());
  auto ait = fs.align_cache.find(align_sig);
  if (ait != fs.align_cache.end() && !ait->second) {
    ++local.accel_nodes;
    return {};
  }

  // Which subregions does the set span?  Test cheaply first: the common
  // steady-state case is a set already aligned to a single subregion, and
  // it must not pay for speculative intersections.  The answer is the one
  // accel_insert found for this domain.
  const AccelColors& hits = accel_colors(fs, set_dom, local);
  fs.align_cache[align_sig] = hits.colors.size() >= 2;
  if (hits.colors.size() < 2) return {}; // nothing to align

  std::vector<DomId> pieces;
  pieces.reserve(hits.colors.size() + 1);
  for (std::uint64_t color : hits.colors) {
    DomId piece = store_.intersect(region_dom(children[color]), set_dom);
    local.interval_ops += store_.get(piece).interval_count() + 1;
    if (piece != IntervalStore::kEmpty) pieces.push_back(piece);
  }

  // Pieces of a complete partition cover the set; anything outside (the
  // partition may sit below the root) stays in a remainder set.
  DomId covered = IntervalStore::kEmpty;
  for (DomId piece : pieces) covered = store_.unite(covered, piece);
  const DomId remainder = store_.subtract(set_dom, covered);
  if (remainder != IntervalStore::kEmpty) pieces.push_back(remainder);

  // The whole k-way alignment is performed by the old set's owner in a
  // single operation (one message): this is the Section 7.1 advantage over
  // Warnock's sequential pairwise refinement chain.
  AnalysisStep step;
  step.owner = fs.sets[id].owner;
  step.meta_bytes = 64;
  step.eqset = id;

  std::vector<std::uint32_t> out;
  NodeID old_owner = fs.sets[id].owner;
  if (config_.lifecycle)
    config_.lifecycle->record(obs::LifecycleEventKind::Refine, launch, fs.id,
                              id, kNoEqSetID, old_owner, fs.live);
  for (DomId piece : pieces) {
    const IntervalSet& piece_dom = store_.get(piece);
    NodeID owner = piece == dom_id || dom.contains(piece_dom) ? inside_owner
                                                              : old_owner;
    AnalysisCounters& rc = step.counters;
    // One bulk decomposition against the partition's precomputed
    // subspaces: each piece costs a creation plus cheap interval copies,
    // not a pairwise refinement of a shrinking remainder.
    rc.interval_ops += piece_dom.interval_count();
    step.meta_bytes += 48;
    std::uint32_t nid = create_set(fs, piece, owner, launch, id, rc);
    const EqSet& old = fs.sets[id];
    EqSet& carved = fs.sets[nid];
    carved.history.reserve(old.history.size());
    for (const HistEntry& e : old.history)
      carved.history.push_back(restrict_entry(e, piece_dom));
    if (old.composite.has_value())
      carved.composite = old.composite->restricted(piece_dom);
    carved.collapsed = old.collapsed;
    out.push_back(nid);
  }
  steps.push_back(std::move(step));

  fs.sets[id].live = false;
  fs.sets[id].history.clear();
  fs.sets[id].composite.reset();
  fs.sets[id].collapsed = 0;
  --fs.live;
  accel_remove(fs, id);
  return out;
}

MaterializeResult RayCastEngine::materialize(const Requirement& req,
                                             const AnalysisContext& ctx) {
  FieldState& fs = field_state(req.field);
  const IntervalSet& dom = config_.forest->domain(req.region);
  const DomId dom_id = region_dom(req.region);

  MaterializeResult out;
  AnalysisCounters local;

  std::vector<std::uint32_t> hit;
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "raycast/accel_lookup", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    select_accel(fs, req.region, local);
    hit = cast(fs, req.region, dom, local);
  }

  // Refine partial overlaps; collect the constituent sets.  Sets spanning
  // several subregions of the acceleration partition are first aligned to
  // its leaves (one k-way split) before any residual pairwise refinement.
  std::vector<std::uint32_t> inside_ids;
  inside_ids.reserve(hit.size());
  std::unordered_map<std::uint32_t, std::size_t> visited_by_split;
  std::vector<std::uint32_t> work(hit.begin(), hit.end());
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "raycast/eqset_refine", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    while (!work.empty()) {
      std::uint32_t id = work.back();
      work.pop_back();
      const DomId set_dom = fs.sets[id].dom;
      if (!fs.sets[id].live || set_dom == IntervalStore::kEmpty) continue;
      // Equal domains have equal ids: the common steady-state case.
      if (set_dom == dom_id || dom.contains(store_.get(set_dom))) {
        inside_ids.push_back(id);
        continue;
      }
      if (!store_.get(set_dom).overlaps(dom)) continue;
      std::vector<std::uint32_t> aligned = split_aligned(
          fs, id, dom, dom_id, ctx.mapped_node, ctx.task, out.steps, local);
      if (!aligned.empty()) {
        for (std::uint32_t nid : aligned) work.push_back(nid);
        continue;
      }
      std::uint32_t inside = kNone;
      split_set(fs, id, dom_id, ctx.mapped_node, ctx.task, inside,
                out.steps);
      // The split response already carries the inside half's state: its
      // visit merges into the split's round trip.
      visited_by_split[inside] = out.steps.size() - 1;
      inside_ids.push_back(inside);
    }
  }
  std::sort(inside_ids.begin(), inside_ids.end());
  inside_ids.erase(std::unique(inside_ids.begin(), inside_ids.end()),
                   inside_ids.end());

  // Visit constituents: dependences and painting.
  bool paint_values = config_.track_values && !req.privilege.is_reduce();
  RegionData<double> data;
  // One message round trip per constituent set: each equivalence set is
  // an independent distributed object, so traffic scales with the number
  // of live sets — the effect that makes coalescing writes pay off.
  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "raycast/set_visit", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    for (std::uint32_t id : inside_ids) {
      const EqSet& s = fs.sets[id];
      if (s.dom == IntervalStore::kEmpty) continue;
      const IntervalSet& set_dom = store_.get(s.dom);
      auto vit = visited_by_split.find(id);
      AnalysisStep fresh_step;
      fresh_step.eqset = id;
      AnalysisCounters& counters = vit != visited_by_split.end()
                                       ? out.steps[vit->second].counters
                                       : fresh_step.counters;
      ++counters.eqset_visits;
      for (const HistEntry& e : s.history) {
        if (!entry_depends(e, req.privilege, counters)) continue;
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
        // The composite view is the folded value of the collapsed history
        // prefix; flagged entries then charge their modeled paint cost
        // inside paint_entry without repainting.
        piece = s.composite.has_value()
                    ? *s.composite
                    : RegionData<double>::filled(set_dom, 0.0);
        for (const HistEntry& e : s.history) {
          if (e.collapsed || e.values.has_value())
            paint_entry(piece, e, set_dom, counters);
        }
      }
      if (vit == visited_by_split.end()) {
        fresh_step.owner = s.owner;
        fresh_step.meta_bytes = 64 + 32 * s.history.size();
        out.steps.push_back(std::move(fresh_step));
      } else {
        out.steps[vit->second].meta_bytes += 32 * s.history.size();
      }
      if (paint_values)
        data = data.empty() ? std::move(piece) : data.merged_with(piece);
    }
  }

  if (config_.track_values) {
    if (req.privilege.is_reduce()) {
      out.data = RegionData<double>::filled(
          dom, reduction_op(req.privilege.redop).identity);
    } else {
      invariant(data.domain() == dom,
                "equivalence sets failed to cover the requested region");
      out.data = std::move(data);
    }
  }

  // Dominating write: a fresh set covering exactly this region replaces
  // every set it occludes (Figure 11).
  if (req.privilege.is_write() && config_.tuning.raycast_dominating_writes) {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "raycast/eqset_prune", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    for (std::uint32_t id : inside_ids) {
      EqSet& s = fs.sets[id];
      if (!s.live) continue;
      // Pruning is a local metadata invalidation: the occluded set is
      // simply dropped from the index; no owner round trip is needed.
      ++local.eqsets_pruned;
      s.live = false;
      s.history.clear();
      s.composite.reset();
      s.collapsed = 0;
      --fs.live;
      accel_remove(fs, id);
      if (config_.lifecycle)
        config_.lifecycle->record(obs::LifecycleEventKind::Coalesce,
                                  ctx.task, fs.id, id, kNoEqSetID, s.owner,
                                  fs.live);
    }
    AnalysisStep create_step;
    create_step.owner = ctx.mapped_node;
    create_step.meta_bytes = 64;
    std::uint32_t fresh = create_set(fs, dom_id, ctx.mapped_node, ctx.task,
                                     kNoEqSetID, create_step.counters);
    create_step.eqset = fresh;
    out.steps.push_back(std::move(create_step));
    HistEntry pending;
    pending.task = ctx.task;
    pending.priv = Privilege::read_write();
    pending.owner = ctx.mapped_node;
    if (config_.track_values) pending.values = out.data;
    fs.sets[fresh].history.push_back(std::move(pending));
    fs.last_sets[req.region.index] = {fresh};
  } else {
    fs.last_sets[req.region.index] = inside_ids;
  }

  out.steps.push_back(AnalysisStep{ctx.analysis_node, local, 0});
  return out;
}

std::vector<AnalysisStep> RayCastEngine::commit(
    const Requirement& req, const RegionData<double>& result,
    const AnalysisContext& ctx) {
  FieldState& fs = field_state(req.field);
  const IntervalSet& dom = config_.forest->domain(req.region);

  AnalysisCounters local;
  obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                   "raycast/commit_register", ctx.task, ctx.analysis_node,
                   &local);
  std::vector<AnalysisStep> steps;
  // The constituent sets were just discovered by this launch's
  // materialize; reuse them if nothing died in between.
  std::vector<std::uint32_t> ids;
  auto mit = fs.last_sets.find(req.region.index);
  if (mit != fs.last_sets.end()) {
    ++local.accel_nodes;
    bool valid = true;
    for (std::uint32_t id : mit->second) {
      // kNone marks a set that died and was then compacted away
      // (compact_husks); it behaves exactly like a resident dead set.
      if (id == kNone || !fs.sets[id].live) {
        valid = false;
        break;
      }
    }
    if (valid) ids = mit->second;
  }
  if (ids.empty()) ids = cast(fs, req.region, dom, local);

  // Registering the committed operation piggybacks on the materialize
  // round trip already paid for each set; commit itself is local
  // bookkeeping.
  for (std::uint32_t id : ids) {
    EqSet& s = fs.sets[id];
    if (s.dom == IntervalStore::kEmpty) continue;
    const IntervalSet& set_dom = store_.get(s.dom);
    invariant(dom.contains(set_dom),
              "commit found an unrefined equivalence set");
    ++local.interval_ops;
    HistEntry e;
    e.task = ctx.task;
    e.priv = req.privilege;
    e.owner = ctx.mapped_node;
    if (config_.track_values && !req.privilege.is_read()) {
      e.values = result.restricted(set_dom);
    }
    if (req.privilege.is_write()) {
      s.history.clear();
      s.composite.reset();
      s.collapsed = 0;
    }
    s.history.push_back(std::move(e));
    collapse_history(s);
  }

  steps.push_back(AnalysisStep{ctx.analysis_node, local, 0});
  return steps;
}

void RayCastEngine::collapse_history(EqSet& s) {
  const std::size_t cap = config_.max_history_depth;
  if (cap == 0 || s.history.size() <= cap) return;
  const std::size_t frontier = s.history.size() - cap;
  if (frontier <= s.collapsed) return;
  const IntervalSet& dom = store_.get(s.dom);
  if (config_.track_values && !s.composite.has_value())
    s.composite = RegionData<double>::filled(dom, 0.0);
  // GC work, not analysis work: the fold is uncharged (batch never
  // collapses, and modeled costs must not depend on the cap).
  AnalysisCounters scratch;
  for (std::size_t h = s.collapsed; h < frontier; ++h) {
    HistEntry& e = s.history[h];
    if (e.values.has_value()) {
      paint_entry(*s.composite, e, dom, scratch);
      e.values.reset();
    }
    e.collapsed = true;
  }
  s.collapsed = static_cast<std::uint32_t>(frontier);
}

EngineStats RayCastEngine::stats() const {
  EngineStats s;
  for (const auto& [field, fs] : fields_) {
    s.live_eqsets += fs.live;
    s.total_eqsets_created += fs.total_created;
    s.resident_eqset_slots += fs.sets.size();
    s.interned_domains = store_.size();
    for (const EqSet& eq : fs.sets) {
      if (!eq.live) continue;
      s.history_entries += eq.history.size();
      s.collapsed_entries += eq.collapsed;
      if (eq.composite.has_value()) ++s.live_composite_views;
    }
  }
  return s;
}

LaunchID RayCastEngine::retire_watermark() const {
  LaunchID w = kInvalidLaunch;
  for (const auto& [field, fs] : fields_) {
    for (const EqSet& s : fs.sets) {
      if (!s.live) continue;
      for (const HistEntry& e : s.history) {
        if (e.task == kInvalidLaunch) continue;
        if (w == kInvalidLaunch || e.task < w) w = e.task;
      }
    }
  }
  return w;
}

std::size_t RayCastEngine::compact_husks(std::size_t max_dead) {
  std::size_t dead = 0;
  for (const auto& [field, fs] : fields_) dead += fs.sets.size() - fs.live;
  if (dead <= max_dead) return 0;

  std::size_t reclaimed = 0;
  for (auto& [field, fs] : fields_) {
    if (fs.sets.size() == fs.live) continue;
    // New id = rank among live ids: monotone, so the relative order of
    // surviving ids — the order every index scans them in — is preserved.
    std::vector<std::uint32_t> remap(fs.sets.size(), kNone);
    std::vector<EqSet> live_sets;
    live_sets.reserve(fs.live);
    for (std::uint32_t id = 0; id < fs.sets.size(); ++id) {
      if (!fs.sets[id].live) continue;
      remap[id] = static_cast<std::uint32_t>(live_sets.size());
      live_sets.push_back(std::move(fs.sets[id]));
    }
    reclaimed += fs.sets.size() - live_sets.size();
    fs.sets = std::move(live_sets);

    // Buckets: dead entries cost nothing in cast() (skipped before any
    // counter is charged), so dropping them eagerly is counter-identical
    // to the lazy compaction the scan would have done.
    for (std::vector<std::uint32_t>& bucket : fs.buckets) {
      std::size_t keep = 0;
      for (std::uint32_t id : bucket) {
        if (remap[id] != kNone) bucket[keep++] = remap[id];
      }
      bucket.resize(keep);
    }

    // Fallback tree: accel_remove already erased dead ids whenever the
    // fallback is the active structure, so an in-place payload remap (no
    // structural change — traversal costs stay bit-identical) suffices.
    if (!fs.fallback.empty()) {
      std::vector<std::uint64_t> map64(remap.begin(), remap.end());
      fs.fallback.remap_payloads(map64);
    }

    // last_sets may still name dead ids (a sibling requirement of the same
    // launch can kill them between materialize and commit).  Keep the
    // entry — commit charges one probe before detecting the dead id — but
    // mark compacted ids with the kNone sentinel.
    for (auto& [region, ids] : fs.last_sets) {
      for (std::uint32_t& id : ids) {
        if (id != kNone) id = remap[id];
      }
    }
    // color_cache / split_signatures / align_cache are keyed by regions
    // and domain signatures, not set ids: untouched.
  }

  // Sweep the domain store down to what the live sets and the region
  // table use.  A freed id may be reused for another domain, so the
  // per-domain accel colors of freed ids go too.
  std::vector<DomId> keep;
  for (DomId id : region_dom_)
    if (id != kNone) keep.push_back(id);
  for (const auto& [field, fs] : fields_)
    for (const EqSet& s : fs.sets)
      if (s.live) keep.push_back(s.dom);
  store_.sweep(keep);
  for (auto& [field, fs] : fields_)
    std::erase_if(fs.accel_colors, [this](const auto& entry) {
      return !store_.holds(entry.first);
    });
  return reclaimed;
}

} // namespace visrt
