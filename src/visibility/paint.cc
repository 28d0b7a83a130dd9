#include "visibility/paint.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "obs/lifecycle.h"
#include "obs/recorder.h"

namespace visrt {

namespace {
/// Approximate serialized size of one history entry inside a view
/// (metadata only; bulk data moves through the copy engine).
constexpr std::uint64_t kEntryMetaBytes = 64;
} // namespace

std::uint64_t PaintEngine::CompositeView::bytes() const {
  std::uint64_t b = 64; // view header
  for (const PaintEntry& e : entries)
    b += kEntryMetaBytes + 16 * e.dom.interval_count();
  return b;
}

void PaintEngine::initialize_field(RegionHandle root, FieldID field,
                                   RegionData<double> initial, NodeID home) {
  FieldState fs;
  fs.root = root;
  fs.id = field;
  fs.home = home;
  NodeState ns;
  ns.owner = home;
  PaintEntry init;
  init.task = kInvalidLaunch;
  init.priv = Privilege::read_write();
  init.dom = config_.forest->domain(root);
  init.owner = home;
  if (config_.track_values) {
    require(initial.domain() == init.dom,
            "initial data must cover the root region");
    init.values = std::move(initial);
  }
  ns.elements.push_back(Element{std::move(init), nullptr});
  ns.subtree_entries = 1;
  ns.subtree_privs.push_back(Privilege::read_write());
  fs.nodes.emplace(root.index, std::move(ns));
  fields_.emplace(field, std::move(fs));
}

PaintEngine::FieldState& PaintEngine::field_state(FieldID field) {
  auto it = fields_.find(field);
  require(it != fields_.end(), "access to unregistered field");
  return it->second;
}

PaintEngine::NodeState& PaintEngine::node_state(FieldState& fs,
                                                RegionHandle region) {
  return fs.nodes[region.index]; // default-constructed when first touched
}

void PaintEngine::add_priv(std::vector<Privilege>& privs,
                           const Privilege& p) {
  if (std::find(privs.begin(), privs.end(), p) == privs.end())
    privs.push_back(p);
}

bool PaintEngine::privs_interfere(const std::vector<Privilege>& privs,
                                  const Privilege& p) {
  for (const Privilege& q : privs)
    if (interferes(q, p)) return true;
  return false;
}

void PaintEngine::add_summary(FieldState& fs, RegionHandle region,
                              const Privilege& p) {
  for (RegionHandle r = region; r.valid();
       r = config_.forest->parent_region(r)) {
    add_priv(node_state(fs, r).subtree_privs, p);
  }
}

void PaintEngine::adjust_counts(FieldState& fs, RegionHandle region,
                                std::ptrdiff_t by) {
  for (RegionHandle r = region; r.valid();
       r = config_.forest->parent_region(r)) {
    NodeState& ns = node_state(fs, r);
    invariant(by >= 0 ||
                  ns.subtree_entries >= static_cast<std::size_t>(-by),
              "painter subtree entry count underflow");
    ns.subtree_entries = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(ns.subtree_entries) + by);
  }
}

void PaintEngine::flatten_subtree(
    FieldState& fs, RegionHandle region, std::vector<PaintEntry>& flat,
    std::map<NodeID, std::uint64_t>& captured,
    std::vector<EqSetID>& dead_views) {
  auto it = fs.nodes.find(region.index);
  if (it != fs.nodes.end()) {
    NodeState& ns = it->second;
    std::ptrdiff_t removed = 0; // counted in history entries, not elements
    for (Element& el : ns.elements) {
      if (el.view) {
        captured[el.view->owner] += el.view->entries.size();
        removed += static_cast<std::ptrdiff_t>(el.view->entries.size());
        for (const PaintEntry& e : el.view->entries) flat.push_back(e);
        --fs.views_live;
        dead_views.push_back(el.view->id);
      } else {
        captured[ns.owner] += 1;
        ++removed;
        flat.push_back(std::move(el.op));
      }
    }
    ns.elements.clear();
    if (removed > 0) adjust_counts(fs, region, -removed);
    // The subtree is now empty below this node except deeper histories;
    // privilege summary resets once the whole subtree is flattened (done
    // by the caller clearing children first is unnecessary: we recurse).
  }
  for (PartitionHandle ph : config_.forest->partitions(region)) {
    for (RegionHandle child : config_.forest->children(ph)) {
      // Skip subtrees that were never touched: no node state anywhere.
      auto cit = fs.nodes.find(child.index);
      if (cit == fs.nodes.end() || cit->second.subtree_entries == 0) continue;
      flatten_subtree(fs, child, flat, captured, dead_views);
    }
  }
  if (it != fs.nodes.end()) it->second.subtree_privs.clear();
}

void PaintEngine::capture(FieldState& fs, RegionHandle at,
                          std::span<const RegionHandle> children,
                          const AnalysisContext& ctx,
                          std::vector<AnalysisStep>& steps,
                          AnalysisCounters& local) {
  std::vector<PaintEntry> flat;
  // Ordered by owner: the per-owner counts become AnalysisSteps, and step
  // order must not depend on hash-table iteration (it decides work-graph op
  // ids, hence simulated timing — repros must replay identically).
  std::map<NodeID, std::uint64_t> captured;
  std::vector<EqSetID> dead_views;
  for (RegionHandle child : children)
    flatten_subtree(fs, child, flat, captured, dead_views);
  if (flat.empty()) return;

  // Launch ids are the global clock: sorting restores sequential order.
  std::stable_sort(flat.begin(), flat.end(),
                   [](const PaintEntry& a, const PaintEntry& b) {
                     return a.task < b.task;
                   });

  auto view = std::make_shared<CompositeView>();
  for (const PaintEntry& e : flat) {
    view->full_dom = view->full_dom.unite(e.dom);
    if (e.priv.is_write()) view->write_set = view->write_set.unite(e.dom);
  }
  view->entries = std::move(flat);
  NodeState& at_state = node_state(fs, at);
  view->owner = at_state.owner;
  view->replicated_on.push_back(view->owner);
  view->id = static_cast<EqSetID>(fs.views_created);

  if (config_.lifecycle) {
    for (EqSetID dead : dead_views)
      config_.lifecycle->record(obs::LifecycleEventKind::Coalesce, ctx.task,
                                fs.id, dead, kNoEqSetID, at_state.owner,
                                fs.views_live);
  }

  // Attribute the bottom-up construction: one step per node contributing
  // entries (minimal communication to the view root).
  for (const auto& [owner, count] : captured) {
    AnalysisCounters c;
    c.composite_captures = count;
    steps.push_back(AnalysisStep{owner, c, count * kEntryMetaBytes});
  }

  // Occlusion pruning: the new view's write set covers (and therefore
  // hides) older history elements at this node.
  if (config_.tuning.paint_occlusion_pruning && !view->write_set.empty()) {
    std::size_t before = at_state.elements.size();
    std::ptrdiff_t removed_entries = 0;
    std::erase_if(at_state.elements, [&](const Element& el) {
      ++local.composite_child_tests;
      const IntervalSet& d = el.view ? el.view->full_dom : el.op.dom;
      if (el.view == nullptr && el.op.task == kInvalidLaunch)
        return false; // keep the initial entry; it is the fallback base
      if (!view->write_set.contains(d)) return false;
      removed_entries += el.view
                             ? static_cast<std::ptrdiff_t>(el.view->entries.size())
                             : 1;
      if (el.view) {
        --fs.views_live;
        if (config_.lifecycle)
          config_.lifecycle->record(obs::LifecycleEventKind::Coalesce,
                                    ctx.task, fs.id, el.view->id, kNoEqSetID,
                                    at_state.owner, fs.views_live);
      }
      return true;
    });
    (void)before;
    if (removed_entries > 0) adjust_counts(fs, at, -removed_entries);
  }

  std::ptrdiff_t added = static_cast<std::ptrdiff_t>(view->entries.size());
  EqSetID view_id = view->id;
  NodeID view_owner = view->owner;
  at_state.elements.push_back(Element{PaintEntry{}, std::move(view)});
  adjust_counts(fs, at, added);
  ++fs.views_created;
  ++fs.views_live;
  if (config_.lifecycle)
    config_.lifecycle->record(obs::LifecycleEventKind::Create, ctx.task,
                              fs.id, view_id, kNoEqSetID, view_owner,
                              fs.views_live);
}

void PaintEngine::close_subtrees(FieldState& fs,
                                 const std::vector<RegionHandle>& path,
                                 const IntervalSet& dom,
                                 const Privilege& priv,
                                 const AnalysisContext& ctx,
                                 std::vector<AnalysisStep>& steps,
                                 AnalysisCounters& local) {
  const RegionTreeForest& forest = *config_.forest;
  for (std::size_t i = 0; i < path.size(); ++i) {
    RegionHandle a = path[i];
    RegionHandle next = i + 1 < path.size() ? path[i + 1] : RegionHandle{};
    PartitionHandle next_part =
        next.valid() ? forest.parent_partition(next) : PartitionHandle{};

    for (PartitionHandle ph : forest.partitions(a)) {
      if (ph == next_part) {
        // Siblings within the path partition close individually, in child
        // order.  A capture never touches a *sibling's* subtree counts or
        // privilege summary, so each test sees the state it would before
        // any capture.
        obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                         "paint/kid_capture", ctx.task, ctx.analysis_node,
                         &local, &steps);
        for (RegionHandle child : forest.children(ph)) {
          if (child == next) continue;
          ++local.composite_child_tests;
          auto cit = fs.nodes.find(child.index);
          if (cit == fs.nodes.end() || cit->second.subtree_entries == 0)
            continue;
          if (!privs_interfere(cit->second.subtree_privs, priv)) continue;
          if (!forest.domain(child).overlaps(dom)) continue;
          RegionHandle one[] = {child};
          capture(fs, a, one, ctx, steps, local);
        }
        continue;
      }
      // Off-path partition subtree: capture the whole partition when any
      // open child interferes and overlaps.
      obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                       "paint/subtree_capture", ctx.task, ctx.analysis_node,
                       &local, &steps);
      bool need = false;
      for (RegionHandle child : forest.children(ph)) {
        ++local.composite_child_tests;
        auto cit = fs.nodes.find(child.index);
        if (cit == fs.nodes.end() || cit->second.subtree_entries == 0)
          continue;
        if (!privs_interfere(cit->second.subtree_privs, priv)) continue;
        if (!forest.domain(child).overlaps(dom)) continue;
        need = true;
        break;
      }
      if (need) capture(fs, a, forest.children(ph), ctx, steps, local);
    }
  }
}

bool PaintEngine::skips_entry(const PaintEntry& e) const {
  // The synthetic fuzzer-validation bug: silently lose multi-interval
  // reduce entries (see EngineTuning::inject_paint_reduce_bug).
  return config_.tuning.inject_paint_reduce_bug && e.priv.is_reduce() &&
         e.dom.interval_count() >= 2;
}

MaterializeResult PaintEngine::materialize(const Requirement& req,
                                           const AnalysisContext& ctx) {
  FieldState& fs = field_state(req.field);
  const RegionTreeForest& forest = *config_.forest;
  const IntervalSet& dom = forest.domain(req.region);
  std::vector<RegionHandle> path = forest.path_from_root(req.region);

  MaterializeResult out;
  AnalysisCounters local; // work on the analyzing node
  ++local.interval_ops;   // requirement setup

  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "paint/composite_capture", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    close_subtrees(fs, path, dom, req.privilege, ctx, out.steps, local);
  }

  // Traverse the path history root -> R, painting and collecting
  // dependences.  Composite views are replicated on demand: the first
  // traversal from this analysis node fetches the view from its owner.
  bool paint_values = config_.track_values && !req.privilege.is_reduce();
  RegionData<double> data;
  if (paint_values) data = RegionData<double>::filled(dom, 0.0);

  // Per-owner remote counters for direct node histories.  Ordered so the
  // emitted AnalysisSteps (and the work-graph ops built from them) have a
  // deterministic order.
  std::map<NodeID, AnalysisCounters> remote;

  {
    obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                     "paint/history_walk", ctx.task, ctx.analysis_node,
                     &local, &out.steps);
    // Gather pass: flatten the path histories into one item list and
    // perform the on-demand view replication — the only mutation of the
    // walk.  Entry pointers stay valid: nothing below reallocates an
    // element or a view's entry vector.
    struct WalkItem {
      const PaintEntry* e;
      NodeID direct_owner; ///< meaningful when !from_view
      bool from_view;
      EqSetID view_id; ///< id of the enclosing view (kNoEqSetID if direct)
    };
    std::vector<WalkItem> items;
    {
      obs::Scope gather(config_.recorder, obs::SpanKind::Phase,
                        "paint/item_gather", ctx.task, ctx.analysis_node,
                        &local, &out.steps);
      for (RegionHandle a : path) {
        auto it = fs.nodes.find(a.index);
        if (it == fs.nodes.end()) continue;
        NodeState& ns = it->second;
        for (Element& el : ns.elements) {
          if (el.view) {
            CompositeView& v = *el.view;
            if (std::find(v.replicated_on.begin(), v.replicated_on.end(),
                          ctx.analysis_node) == v.replicated_on.end()) {
              v.replicated_on.push_back(ctx.analysis_node);
              AnalysisCounters fetch;
              fetch.composite_captures = 1;
              out.steps.push_back(
                  AnalysisStep{v.owner, fetch, v.bytes(), v.id});
              if (config_.lifecycle)
                config_.lifecycle->record(obs::LifecycleEventKind::Migrate,
                                          ctx.task, fs.id, v.id, kNoEqSetID,
                                          ctx.analysis_node, fs.views_live);
            }
            for (const PaintEntry& e : v.entries)
              items.push_back(WalkItem{&e, 0, true, v.id});
          } else {
            items.push_back(WalkItem{&el.op, ns.owner, false, kNoEqSetID});
          }
        }
      }
    }

    // Test pass: interference tests in history order, collecting the
    // dependences (a sorted set) and their provenance.
    {
      obs::Scope scan(config_.recorder, obs::SpanKind::Phase,
                      "paint/item_scan", ctx.task, ctx.analysis_node, &local);
      for (const WalkItem& item : items) {
        AnalysisCounters& rc =
            item.from_view || item.direct_owner == ctx.analysis_node
                ? local
                : remote[item.direct_owner];
        if (item.from_view) ++rc.composite_child_tests;
        if (skips_entry(*item.e)) continue;
        if (!entry_depends(*item.e, dom, req.privilege, rc)) continue;
        add_dependence(out.dependences, item.e->task);
        if (config_.provenance && item.e->task != kInvalidLaunch) {
          obs::EdgeProvenance p;
          p.from = item.e->task;
          p.phase = item.from_view ? obs::ProvPhase::CompositeView
                                   : obs::ProvPhase::HistoryWalk;
          p.region = req.region.index;
          p.eqset = item.view_id;
          p.field = req.field;
          p.prev = item.e->priv;
          p.cur = req.privilege;
          out.provenance.push_back(p);
        }
      }
    }

    // Paint pass: value application is order-dependent, so it replays the
    // items in history order.
    if (paint_values) {
      for (const WalkItem& item : items) {
        if (skips_entry(*item.e)) continue;
        if (!item.e->values.has_value()) continue;
        AnalysisCounters& rc =
            item.from_view || item.direct_owner == ctx.analysis_node
                ? local
                : remote[item.direct_owner];
        paint_entry(data, *item.e, rc);
      }
    }

    for (auto& [owner, counters] : remote) {
      out.steps.push_back(AnalysisStep{owner, counters, 256});
    }
  }

  if (config_.track_values) {
    if (req.privilege.is_reduce()) {
      out.data = RegionData<double>::filled(
          dom, reduction_op(req.privilege.redop).identity);
    } else {
      out.data = std::move(data);
    }
  }
  out.steps.push_back(AnalysisStep{ctx.analysis_node, local, 0});
  return out;
}

std::vector<AnalysisStep> PaintEngine::commit(const Requirement& req,
                                              const RegionData<double>& result,
                                              const AnalysisContext& ctx) {
  FieldState& fs = field_state(req.field);
  const IntervalSet& dom = config_.forest->domain(req.region);

  AnalysisCounters c;
  obs::Scope scope(config_.recorder, obs::SpanKind::Phase,
                   "paint/commit_register", ctx.task, ctx.analysis_node, &c);
  PaintEntry e;
  e.task = ctx.task;
  e.priv = req.privilege;
  e.dom = dom;
  e.owner = ctx.mapped_node;
  if (config_.track_values && !req.privilege.is_read()) {
    require(result.domain() == dom, "commit data must cover the region");
    e.values = result;
  }

  NodeState& ns = node_state(fs, req.region);
  ns.owner = ctx.mapped_node; // last committer owns the node's history
  ns.elements.push_back(Element{std::move(e), nullptr});
  adjust_counts(fs, req.region, +1);
  add_summary(fs, req.region, req.privilege);

  ++c.history_entries;
  return {AnalysisStep{ctx.mapped_node, c, 0}};
}

EngineStats PaintEngine::stats() const {
  EngineStats s;
  for (const auto& [field, fs] : fields_) {
    s.total_composite_views += fs.views_created;
    s.live_composite_views += fs.views_live;
    for (const auto& [idx, ns] : fs.nodes) {
      for (const Element& el : ns.elements) {
        s.history_entries += el.view ? el.view->entries.size() : 1;
      }
    }
  }
  return s;
}

} // namespace visrt
