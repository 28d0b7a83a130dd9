#include "runtime/runtime.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "obs/metrics.h"
#include "sim/trace_export.h"
#include "visibility/history.h"

namespace visrt {

namespace {
/// Metadata request size for a remote analysis step.
constexpr std::uint64_t kRequestBytes = 128;
/// Bytes per field element moved by the copy engine.
constexpr std::uint64_t kElementBytes = 8;
/// Dead eq-set husks retire() leaves resident before compacting them.
constexpr std::size_t kHuskSlack = 1024;

/// `op` as a dependence list: empty when there is no op.
std::span<const sim::OpID> deps_on(const sim::OpID& op) {
  return {&op, op == sim::kInvalidOp ? 0u : 1u};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
} // namespace

Runtime::Runtime(RuntimeConfig config) : config_(std::move(config)) {
  config_.machine.validate();
  config_.costs.validate();
  // Analysis runs on the calling thread (see RuntimeConfig).
  require(config_.analysis_threads == 1, "analysis_threads must be 1");
  if (config_.telemetry) recorder_.enable();
  if (config_.profile) recorder_.profiler().enable();
  if (config_.provenance) {
    lifecycle_.enable();
    msg_ledger_.enable(config_.machine.num_nodes);
  }
  EngineConfig ec;
  ec.track_values = config_.track_values;
  ec.tuning = config_.tuning;
  ec.forest = &forest_;
  ec.recorder = &recorder_;
  ec.provenance = config_.provenance;
  ec.lifecycle = config_.provenance ? &lifecycle_ : nullptr;
  ec.max_history_depth = config_.max_history_depth;
  engine_ = make_engine(config_.algorithm, ec);
  issue_tail_.assign(config_.machine.num_nodes, sim::kInvalidOp);
  issue_tail_finish_.assign(config_.machine.num_nodes, 0);
  analysis_busy_ns_.assign(config_.machine.num_nodes, 0);
}

RegionHandle Runtime::create_region(IntervalSet domain, std::string name) {
  return forest_.create_root(std::move(domain), std::move(name));
}

PartitionHandle Runtime::create_partition(RegionHandle parent,
                                          std::vector<IntervalSet> subspaces,
                                          std::string name) {
  return forest_.create_partition(parent, std::move(subspaces),
                                  std::move(name));
}

PartitionHandle Runtime::create_partition(RegionHandle parent,
                                          std::vector<IntervalSet> subspaces,
                                          std::string name,
                                          PartitionClaim claim) {
  return forest_.create_partition(parent, std::move(subspaces),
                                  std::move(name), claim);
}

RegionHandle Runtime::subregion(PartitionHandle partition,
                                std::size_t color) const {
  return forest_.subregion(partition, color);
}

FieldID Runtime::add_field(RegionHandle root, std::string name,
                           double initial) {
  return add_field(root, std::move(name),
                   [initial](coord_t) { return initial; });
}

FieldID Runtime::add_field(RegionHandle root, std::string name,
                           const std::function<double(coord_t)>& init) {
  require(forest_.is_root(root), "fields are registered on root regions");
  FieldID field = next_field_++;
  RegionData<double> data;
  if (config_.track_values) {
    data = RegionData<double>::generate(forest_.domain(root), init);
  }
  engine_->initialize_field(root, field, std::move(data), /*home=*/0);
  field_info_.emplace(
      field, FieldInfo{root, std::move(name),
                       InstanceMap(config_.machine.num_nodes, 0,
                                   forest_.domain(root))});
  return field;
}

void Runtime::emit_steps(std::span<const AnalysisStep> steps,
                         NodeID analysis_node, sim::OpID head,
                         LaunchID launch, std::vector<sim::OpID>& tails) {
  // Local steps chain on the analyzing node; remote steps are issued
  // concurrently (one request/compute/response round trip per metadata
  // owner — Legion sends per-owner messages asynchronously and only the
  // task execution waits for all of them).
  sim::OpID local_tail = head;
  for (const AnalysisStep& step : steps) {
    SimTime cost = step.counters.cpu_ns(config_.costs);
    analysis_busy_ns_[step.owner] += cost;
    if (step.owner == analysis_node) {
      local_tail = graph_.compute(analysis_node, cost, deps_on(local_tail),
                                  sim::OpCategory::Analysis);
      continue;
    }
    sim::OpID request = graph_.message(analysis_node, step.owner,
                                       kRequestBytes, deps_on(head),
                                       sim::OpCategory::Analysis);
    sim::OpID remote =
        graph_.compute(step.owner, cost, std::array{request},
                       sim::OpCategory::Analysis);
    tails.push_back(graph_.message(step.owner, analysis_node,
                                   kRequestBytes + step.meta_bytes,
                                   std::array{remote},
                                   sim::OpCategory::Analysis));
    if (msg_ledger_.enabled()) {
      msg_ledger_.record(sim::MessageRecord{
          launch, analysis_node, step.owner, kRequestBytes,
          sim::MessageKind::AnalysisRequest, step.eqset});
      msg_ledger_.record(sim::MessageRecord{
          launch, step.owner, analysis_node, kRequestBytes + step.meta_bytes,
          sim::MessageKind::AnalysisResponse, step.eqset});
    }
  }
  if (local_tail != sim::kInvalidOp) tails.push_back(local_tail);
}

LaunchID Runtime::launch(TaskLaunch launch) {
  require(!launch.requirements.empty(), "a task needs at least one region");
  require(launch.mapped_node < config_.machine.num_nodes,
          "task mapped to a nonexistent node");
  LaunchID id = next_launch_++;
  deps_.add_task(id);
  exec_op_.push_back(sim::kInvalidOp);
  exec_start_.push_back(0);
  exec_finish_.push_back(0);

  NodeID analysis_node = config_.dcr ? launch.mapped_node : 0;
  AnalysisContext ctx{id, launch.mapped_node, analysis_node};
  obs::Scope launch_scope(&recorder_, obs::SpanKind::Launch, launch.name, id,
                          analysis_node);

  // Tracing: record the launch fingerprint while capturing; verify it
  // while replaying.  Any mismatch invalidates the template and falls
  // back to full analysis, as Legion's tracing does.
  bool replay = false;
  if (active_trace_ != nullptr) {
    if (replaying_) {
      TraceState& tr = *active_trace_;
      if (tr.cursor < tr.entries.size() &&
          tr.entries[tr.cursor].requirements == launch.requirements &&
          tr.entries[tr.cursor].mapped_node == launch.mapped_node) {
        ++tr.cursor;
        replay = true;
        ++traced_launches_;
      } else {
        tr.phase = TraceState::Phase::Invalid;
        replaying_ = false;
      }
    } else if (active_trace_->phase == TraceState::Phase::Capturing) {
      active_trace_->entries.push_back(
          TraceEntry{launch.requirements, launch.mapped_node});
    }
  }

  // Per-launch scratch lists: members cleared here, so steady-state
  // launches reuse their capacity.  (launch() is not reentrant — task
  // bodies do not launch subtasks.)
  issue_deps_.clear();
  all_deps_.clear();
  analysis_tails_.clear();
  copy_ops_.clear();
  exec_deps_.clear();

  // Launch issue: serialized on the analyzing node in program order (the
  // top-level task enumerates subtasks sequentially; with DCR each shard
  // enumerates only its own).  A traced replay pays only the template
  // lookup.
  SimTime issue_cost =
      replay ? config_.costs.trace_replay_ns
             : config_.costs.requirement_base_ns *
                       static_cast<SimTime>(launch.requirements.size()) +
                   (config_.dcr ? config_.costs.dcr_shard_ns : 0);
  SimTime issue_floor = 0;
  if (issue_tail_[analysis_node] == sim::kFrozenOp)
    issue_floor = issue_tail_finish_[analysis_node];
  else if (issue_tail_[analysis_node] != sim::kInvalidOp)
    issue_deps_.push_back(issue_tail_[analysis_node]);
  sim::OpID issue = graph_.compute(analysis_node, issue_cost, issue_deps_,
                                   sim::OpCategory::Runtime, issue_floor);

  // Analyze every requirement: materialize (dependences + current values)
  // and plan the implicit communication.
  std::vector<Requirement> reqs;
  std::vector<PhysicalRegion> phys;

  reqs.reserve(launch.requirements.size());
  for (const RegionReq& rr : launch.requirements)
    reqs.push_back(Requirement{rr.region, rr.field, rr.privilege});

  // Resolve field infos once, in requirement order, so the loops below
  // reach their per-field InstanceMaps without a hash lookup.
  std::vector<FieldInfo*> finfos(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    auto fit = field_info_.find(reqs[i].field);
    require(fit != field_info_.end(), "launch uses an unregistered field");
    finfos[i] = &fit->second;
  }

  // Group requirement indices by field, first-occurrence order.  Engine
  // and instance state is strictly per field; each group materializes and
  // plans its copies in program order, then the work-graph/dep-graph
  // emission below runs in requirement order.
  std::vector<std::vector<std::size_t>> field_groups;
  {
    std::unordered_map<FieldID, std::size_t> group_of;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      auto [it, fresh] = group_of.emplace(reqs[i].field, field_groups.size());
      if (fresh) field_groups.emplace_back();
      field_groups[it->second].push_back(i);
    }
  }

  const double analysis_wall_before = analysis_wall_s_;
  const auto materialize_start = std::chrono::steady_clock::now();
  std::vector<MaterializeResult> mrs(reqs.size());
  std::vector<std::vector<CopyPlan>> plans(reqs.size());
  for (const std::vector<std::size_t>& group : field_groups) {
    for (std::size_t i : group) {
      // The scope watches mrs[i].steps, which the engine fills inside it:
      // the span's counters are the sum over the requirement's steps.
      obs::Scope scope(&recorder_, obs::SpanKind::Materialize,
                       "runtime/materialize", id, analysis_node, nullptr,
                       &mrs[i].steps);
      mrs[i] = engine_->materialize(reqs[i], ctx);
    }
    // Copy planning is per-field InstanceMap work; group order preserves
    // the per-field plan_read order, so validity evolution and the
    // planned copies follow program order.
    for (std::size_t i : group) {
      if (reqs[i].privilege.is_reduce()) continue;
      obs::Scope scope(&recorder_, obs::SpanKind::Phase,
                       "runtime/plan_copies", id, analysis_node);
      plans[i] = finfos[i]->instances.plan_read(
          launch.mapped_node, forest_.domain(reqs[i].region));
    }
  }

  // Provenance installation is its own attribution phase: a serial pass
  // over every emitted edge, separated from the graph-emission loop below.
  if (config_.provenance) {
    obs::Scope scope(&recorder_, obs::SpanKind::Phase,
                     "runtime/install_provenance", id, analysis_node);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      // Engines leave the engine byte unset (they cannot name themselves
      // without a layering inversion); stamp it here, then install with
      // first-record-wins semantics.
      for (obs::EdgeProvenance& p : mrs[i].provenance) {
        p.engine = static_cast<std::uint8_t>(config_.algorithm);
        deps_.set_provenance(p.from, id, p);
      }
    }
  }

  {
    // The emit loop folds per-requirement engine results and pre-planned
    // copies into the dependence and work graphs in requirement order.
    obs::Scope scope(&recorder_, obs::SpanKind::Phase, "runtime/emit_graph",
                     id, analysis_node);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Requirement& req = reqs[i];
      MaterializeResult& mr = mrs[i];
      record_launch_telemetry(id, launch.name, mr.steps);
      for (LaunchID d : mr.dependences) add_dependence(all_deps_, d);
      // Under trace replay the analysis result is memoized: the engine still
      // runs (semantics stay exact and its state advances) but no analysis
      // work or messages are charged to the machine.
      copy_deps_.clear();
      if (replay)
        copy_deps_.push_back(issue);
      else
        emit_steps(mr.steps, analysis_node, issue, id, copy_deps_);
      analysis_tails_.insert(analysis_tails_.end(), copy_deps_.begin(),
                             copy_deps_.end());
      phys.emplace_back(req, std::move(mr.data));

      // Data movement: reads and read-writes need the current version at the
      // mapped node; reductions accumulate locally into a fresh buffer.
      // Copies (planned per field in the loop above) start once this
      // requirement's analysis and the producing tasks (its dependences)
      // have finished.
      if (!req.privilege.is_reduce()) {
        SimTime copy_floor = 0;
        for (LaunchID d : mr.dependences) {
          sim::OpID e = exec_of(d);
          if (e == sim::kFrozenOp)
            copy_floor = std::max(copy_floor, exec_finish_[d - launch_base_]);
          else if (e != sim::kInvalidOp)
            copy_deps_.push_back(e);
        }
        for (const CopyPlan& plan : plans[i]) {
          std::uint64_t bytes =
              static_cast<std::uint64_t>(plan.points.volume()) * kElementBytes;
          sim::OpID copy = graph_.message(
              plan.src, plan.dst, bytes, copy_deps_,
              plan.kind == CopyPlan::Kind::Copy ? sim::OpCategory::Copy
                                                : sim::OpCategory::Reduction,
              copy_floor);
          copy_ops_.push_back(copy);
          if (msg_ledger_.enabled()) {
            msg_ledger_.record(sim::MessageRecord{
                id, plan.src, plan.dst, bytes,
                plan.kind == CopyPlan::Kind::Copy ? sim::MessageKind::Copy
                                                  : sim::MessageKind::Reduction,
                kNoEqSetID});
          }
        }
      }
    }
  }
  analysis_wall_s_ += seconds_since(materialize_start);

  if (config_.record_launches)
    launch_log_.push_back(LaunchRecord{reqs, launch.mapped_node});

  // Dependence edges (program-order semantics) into both the dependence
  // graph and the work graph.
  deps_.add_edges(id, all_deps_);
  exec_deps_.assign(analysis_tails_.begin(), analysis_tails_.end());
  SimTime exec_floor = 0;
  for (sim::OpID c : copy_ops_) exec_deps_.push_back(c);
  for (LaunchID d : all_deps_) {
    sim::OpID e = exec_of(d);
    if (e == sim::kFrozenOp)
      exec_floor = std::max(exec_floor, exec_finish_[d - launch_base_]);
    else if (e != sim::kInvalidOp)
      exec_deps_.push_back(e);
  }
  SimTime exec_cost = config_.costs.task_launch_ns +
                      config_.costs.task_element_ns *
                          static_cast<SimTime>(launch.work_items);
  sim::OpID exec = graph_.compute(launch.mapped_node, exec_cost, exec_deps_,
                                  sim::OpCategory::TaskExec, exec_floor);
  exec_op_[id - launch_base_] = exec;
  current_iteration_execs_.push_back(exec);

  // Execute the task body for real.
  if (config_.track_values && launch.fn) {
    TaskContext tc(id, phys);
    launch.fn(tc);
  }

  // Commit results and update instance validity.  Commit messages are
  // asynchronous too; the iteration marker (not the next launch) joins
  // them.  Commits run per field group like materializes, with the
  // instance-map validity updates in requirement order within the field;
  // work-graph emission then runs in requirement order.
  const auto commit_start = std::chrono::steady_clock::now();
  std::vector<std::vector<AnalysisStep>> commit_steps(reqs.size());
  for (const std::vector<std::size_t>& group : field_groups) {
    for (std::size_t i : group) {
      obs::Scope scope(&recorder_, obs::SpanKind::Commit, "runtime/commit",
                       id, analysis_node, nullptr, &commit_steps[i]);
      commit_steps[i] = engine_->commit(reqs[i], phys[i].data(), ctx);
    }
    for (std::size_t i : group) {
      const Requirement& req = reqs[i];
      if (req.privilege.is_write()) {
        obs::Scope scope(&recorder_, obs::SpanKind::Phase,
                         "runtime/apply_instances", id, analysis_node);
        finfos[i]->instances.record_write(launch.mapped_node,
                                          forest_.domain(req.region));
      } else if (req.privilege.is_reduce()) {
        obs::Scope scope(&recorder_, obs::SpanKind::Phase,
                         "runtime/apply_instances", id, analysis_node);
        finfos[i]->instances.record_reduction(launch.mapped_node,
                                              forest_.domain(req.region),
                                              req.privilege.redop);
      }
    }
  }
  {
    obs::Scope scope(&recorder_, obs::SpanKind::Phase, "runtime/emit_commit",
                     id, analysis_node);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      std::vector<AnalysisStep>& steps = commit_steps[i];
      record_launch_telemetry(id, launch.name, steps);
      if (!replay)
        emit_steps(steps, analysis_node, exec, id, current_iteration_execs_);
    }
  }
  analysis_wall_s_ += seconds_since(commit_start);
  if (config_.launch_latency != nullptr) {
    config_.launch_latency->record(static_cast<std::uint64_t>(
        (analysis_wall_s_ - analysis_wall_before) * 1e9));
  }
  // Program order on the analyzing node is the issue chain alone; the
  // remote analysis traffic of one launch overlaps the next launch's
  // analysis, as in Legion's asynchronous runtime.
  issue_tail_[analysis_node] = issue;
  ++launches_this_iteration_;
  sample_series(id);
  return id;
}

void Runtime::record_launch_telemetry(LaunchID id, const std::string& name,
                                      std::span<const AnalysisStep> steps) {
  if (!recorder_.enabled()) return;
  if (launch_names_.size() <= id) {
    launch_names_.resize(id + 1);
    launch_counters_.resize(id + 1);
  }
  launch_names_[id] = name;
  for (const AnalysisStep& step : steps)
    launch_counters_[id] += step.counters;
}

void Runtime::sample_series(LaunchID id) {
  if (!recorder_.enabled()) return;
  EngineStats es = engine_->stats();
  recorder_.sample(recorder_.series_id("live_eqsets"), id,
                   static_cast<double>(es.live_eqsets));
  recorder_.sample(recorder_.series_id("live_composite_views"), id,
                   static_cast<double>(es.live_composite_views));
  recorder_.sample(recorder_.series_id("history_entries"), id,
                   static_cast<double>(es.history_entries));
  recorder_.sample(recorder_.series_id("messages_total"), id,
                   static_cast<double>(graph_.message_count()));
  for (NodeID n = 0; n < config_.machine.num_nodes; ++n) {
    recorder_.sample(
        recorder_.series_id("analysis_busy_ns/node" + std::to_string(n)), id,
        static_cast<double>(analysis_busy_ns_[n]));
  }
}

std::vector<LaunchID> Runtime::index_launch(const IndexLaunch& launch) {
  require(!launch.requirements.empty(),
          "an index launch needs at least one region requirement");
  std::size_t colors = forest_.partition_size(launch.requirements[0].partition);
  for (const IndexReq& req : launch.requirements) {
    require(forest_.partition_size(req.partition) == colors,
            "index launch partitions must have matching color counts");
  }
  std::vector<LaunchID> ids;
  ids.reserve(colors);
  for (std::size_t color = 0; color < colors; ++color) {
    TaskLaunch point;
    point.name = launch.name;
    for (const IndexReq& req : launch.requirements) {
      point.requirements.push_back(RegionReq{
          forest_.subregion(req.partition, color), req.field,
          req.privilege});
    }
    point.mapped_node =
        launch.mapping
            ? launch.mapping(color)
            : static_cast<NodeID>(color % config_.machine.num_nodes);
    point.work_items = launch.work_items;
    if (launch.fn) {
      auto fn = launch.fn;
      point.fn = [fn, color](TaskContext& ctx) { fn(ctx, color); };
    }
    ids.push_back(this->launch(std::move(point)));
  }
  return ids;
}

void Runtime::begin_trace(std::uint32_t id) {
  if (!config_.enable_tracing) return;
  require(active_trace_ == nullptr, "traces cannot nest");
  TraceState& tr = traces_[id];
  active_trace_ = &tr;
  tr.cursor = 0;
  replaying_ = tr.phase == TraceState::Phase::Ready;
}

void Runtime::end_trace() {
  if (!config_.enable_tracing) return;
  require(active_trace_ != nullptr, "end_trace without begin_trace");
  TraceState& tr = *active_trace_;
  if (replaying_) {
    // A replay that ended early saw a shorter sequence: stale template.
    if (tr.cursor != tr.entries.size())
      tr.phase = TraceState::Phase::Invalid;
  } else if (tr.phase == TraceState::Phase::Capturing) {
    tr.phase = TraceState::Phase::Ready;
  }
  active_trace_ = nullptr;
  replaying_ = false;
}

void Runtime::end_iteration() {
  // Under DCR every shard enumerates the full launch stream of the
  // iteration; charge that enumeration on every node's analysis chain.
  if (config_.dcr && launches_this_iteration_ > 0) {
    SimTime cost = config_.costs.dcr_stream_ns *
                   static_cast<SimTime>(launches_this_iteration_);
    for (NodeID n = 0; n < config_.machine.num_nodes; ++n) {
      const bool frozen = issue_tail_[n] == sim::kFrozenOp;
      const sim::OpID tail = frozen ? sim::kInvalidOp : issue_tail_[n];
      issue_tail_[n] =
          graph_.compute(n, cost, deps_on(tail), sim::OpCategory::Runtime,
                         frozen ? issue_tail_finish_[n] : 0);
      current_iteration_execs_.push_back(issue_tail_[n]);
    }
  }
  launches_this_iteration_ = 0;
  // Retired current-iteration ops and a retired previous marker join
  // through the readiness floor instead of dependence edges.
  SimTime floor = iteration_floor_;
  iteration_floor_ = 0;
  if (last_marker_ == sim::kFrozenOp)
    floor = std::max(floor, last_marker_finish_);
  else if (last_marker_ != sim::kInvalidOp)
    current_iteration_execs_.push_back(last_marker_);
  sim::OpID marker = graph_.marker(0, current_iteration_execs_, floor);
  current_iteration_execs_.clear();
  ++iteration_count_;
  if (first_marker_ == sim::kInvalidOp) first_marker_ = marker;
  last_marker_ = marker;
}

RegionData<double> Runtime::observe(RegionHandle region, FieldID field) {
  require(config_.track_values, "observe requires value tracking");
  LaunchID id = next_launch_++;
  deps_.add_task(id);
  exec_op_.push_back(sim::kInvalidOp);
  exec_start_.push_back(0);
  exec_finish_.push_back(0);
  AnalysisContext ctx{id, 0, 0};
  Requirement req{region, field, Privilege::read()};
  if (config_.record_launches)
    launch_log_.push_back(LaunchRecord{{req}, 0});
  MaterializeResult mr = engine_->materialize(req, ctx);
  deps_.add_edges(id, mr.dependences);
  if (config_.provenance) {
    for (obs::EdgeProvenance& p : mr.provenance) {
      p.engine = static_cast<std::uint8_t>(config_.algorithm);
      deps_.set_provenance(p.from, id, p);
    }
  }
  engine_->commit(req, mr.data, ctx);
  return std::move(mr.data);
}

std::string Runtime::profile_json() const {
  return profiler().json(static_cast<std::uint64_t>(analysis_wall_s_ * 1e9));
}

std::vector<std::uint64_t> Runtime::messages_by_node() const {
  // Running per-source totals survive work-graph retirement.
  std::vector<std::uint64_t> counts(config_.machine.num_nodes, 0);
  std::span<const std::size_t> by_src = graph_.messages_by_src();
  for (NodeID n = 0; n < counts.size() && n < by_src.size(); ++n)
    counts[n] = by_src[n];
  return counts;
}

sim::OpID Runtime::exec_of(LaunchID id) const {
  invariant(id >= launch_base_ && id < next_launch_,
            "launch is not resident");
  return exec_op_[id - launch_base_];
}

std::vector<ExecWindow> Runtime::exec_windows() const {
  sim::ReplayResult replay = replay_graph();
  std::vector<ExecWindow> windows(exec_op_.size());
  for (std::size_t slot = 0; slot < windows.size(); ++slot) {
    const sim::OpID e = exec_op_[slot];
    if (e == sim::kInvalidOp) continue;
    if (e == sim::kFrozenOp) {
      windows[slot] = {exec_start_[slot], exec_finish_[slot], true};
    } else {
      const SimTime finish = replay.finish_of(e);
      windows[slot] = {finish - graph_.op(e).cost, finish, true};
    }
  }
  return windows;
}

sim::ReplayResult Runtime::replay_graph() const {
  return sim::replay(graph_, config_.machine, &ckpt_);
}

std::uint64_t Runtime::schedule_hash() const {
  std::uint64_t h = sched_hash_;
  if (sched_frontier_ == next_launch_) return h;
  sim::ReplayResult r = replay_graph();
  for (LaunchID id = sched_frontier_; id < next_launch_; ++id) {
    const std::size_t slot = id - launch_base_;
    sim::OpID e = exec_op_[slot];
    std::uint64_t v;
    if (e == sim::kInvalidOp)
      v = ~0ULL;
    else if (e == sim::kFrozenOp)
      // Frozen past the frontier: launches freeze out of launch order
      // (exec readiness is not monotone in launch id), so a frozen
      // window can sit beyond a still-live earlier launch.
      v = static_cast<std::uint64_t>(exec_finish_[slot]);
    else
      v = static_cast<std::uint64_t>(r.finish_of(e));
    h = fnv1a_u64(h, v);
  }
  return h;
}

RetireStats Runtime::retire() {
  RetireStats out;

  // ---- Work-graph freeze.  Retire the pop-order prefix of the DES
  // schedule: every resident op whose readiness lies strictly below the
  // future floor F, the earliest time any not-yet-emitted op can become
  // ready (every future op transitively waits on its launch's issue op,
  // so the relevant issue tails bound it — frozen tails keep bounding it
  // through their recorded finishes, which new issue ops inherit as
  // floors).  One pass of the DES loop finds them: F starts at the
  // earliest frozen tail finish (0 while a relevant node has no tail yet)
  // and drops to each live tail's finish as it pops, and the loop stops
  // at the first op not below F.  Issue ops have positive cost, so a tail
  // finishes strictly after every earlier pop became ready.
  //
  // Under the earliest-ready-then-id policy those ops pop — and acquire
  // resources — strictly before every other resident or future op, so
  // their start and finish times are final, and the resource state the
  // pass stops in is a valid checkpoint for replaying the survivors.  The
  // set is dependence-closed for free: a dependence finishes before its
  // user becomes ready, and an op's readiness never precedes its own.  An
  // id-prefix cut would avoid remapping op ids, but wedges permanently on
  // pipelined streams: the issue chain runs ahead of the backlogged
  // analysis it feeds, so late issue ops forever become ready before
  // early analysis ops finish.
  const sim::OpID old_base = graph_.base();
  SimTime floor = std::numeric_limits<SimTime>::max();
  std::vector<sim::OpID> live_tails;
  const NodeID relevant = config_.dcr ? config_.machine.num_nodes : 1;
  for (NodeID n = 0; n < relevant; ++n) {
    if (issue_tail_[n] == sim::kFrozenOp)
      floor = std::min(floor, issue_tail_finish_[n]);
    else if (issue_tail_[n] == sim::kInvalidOp)
      floor = 0;
    else
      live_tails.push_back(issue_tail_[n]);
  }
  if (graph_.size() > old_base && floor > 0) {
    sim::ReplayResult r = sim::replay_below_floor(graph_, config_.machine,
                                                  ckpt_, floor, live_tails);
    const SimTime future_floor = r.floor;

    if (r.scheduled != 0) {
      auto retiring = [&](sim::OpID t) {
        return t != sim::kInvalidOp && t != sim::kFrozenOp &&
               r.ready_of(t) < future_floor;
      };
      // Freeze persistent references whose ops are about to retire.
      for (NodeID n = 0; n < config_.machine.num_nodes; ++n) {
        if (retiring(issue_tail_[n])) {
          issue_tail_finish_[n] = r.finish_of(issue_tail_[n]);
          issue_tail_[n] = sim::kFrozenOp;
        }
      }
      if (retiring(last_marker_)) {
        last_marker_finish_ = r.finish_of(last_marker_);
        last_marker_ = sim::kFrozenOp;
      }
      if (retiring(first_marker_)) {
        first_marker_finish_ = r.finish_of(first_marker_);
        first_marker_ = sim::kFrozenOp;
      }
      std::size_t keep = 0;
      for (sim::OpID opid : current_iteration_execs_) {
        if (retiring(opid))
          iteration_floor_ = std::max(iteration_floor_, r.finish_of(opid));
        else
          current_iteration_execs_[keep++] = opid;
      }
      current_iteration_execs_.resize(keep);

      // Freeze launch execution windows.  Exec readiness is not monotone
      // in launch id (independent launches execute on different nodes),
      // so launches can freeze out of order; the schedule frontier below
      // folds them into the rolling hash strictly in launch order and
      // stops at the first still-live launch.
      for (LaunchID id = sched_frontier_; id < next_launch_; ++id) {
        const std::size_t slot = id - launch_base_;
        sim::OpID e = exec_op_[slot];
        if (!retiring(e)) continue;
        SimTime fin = r.finish_of(e);
        exec_finish_[slot] = fin;
        exec_start_[slot] = fin - graph_.op(e).cost;
        exec_op_[slot] = sim::kFrozenOp;
      }
      while (sched_frontier_ < next_launch_) {
        const std::size_t slot = sched_frontier_ - launch_base_;
        sim::OpID e = exec_op_[slot];
        if (e == sim::kInvalidOp)
          sched_hash_ = fnv1a_u64(sched_hash_, ~0ULL);
        else if (e == sim::kFrozenOp)
          sched_hash_ = fnv1a_u64(
              sched_hash_, static_cast<std::uint64_t>(exec_finish_[slot]));
        else
          break;
        ++sched_frontier_;
      }

      // Drop the records and remap every surviving reference (compaction
      // shifts the survivors' ids).  Every popped op has ready < F and
      // every other op ready >= F, so compaction drops exactly the pops.
      std::vector<sim::OpID> remap;
      out.retired_ops =
          graph_.retire_ready_before(r.ready, future_floor, r.finish, remap);
      invariant(out.retired_ops == r.scheduled,
                "retirement dropped a different op set than the pass popped");
      auto remap_ref = [&](sim::OpID& t) {
        if (t != sim::kInvalidOp && t != sim::kFrozenOp)
          t = remap[t - old_base];
      };
      for (sim::OpID& t : exec_op_) remap_ref(t);
      for (sim::OpID& t : issue_tail_) remap_ref(t);
      for (sim::OpID& t : current_iteration_execs_) remap_ref(t);
      remap_ref(last_marker_);
      remap_ref(first_marker_);
    }
  }

  // ---- Launch retirement.  The engine watermark bounds every future
  // dependence source from below; the schedule frontier guarantees the
  // retired launches' finishes are already folded into sched_hash_.
  LaunchID watermark = engine_->retire_watermark();
  if (watermark == kInvalidLaunch) watermark = next_launch_;
  LaunchID new_base = std::min(watermark, sched_frontier_);
  if (new_base > launch_base_) {
    deps_.retire_prefix(new_base);
    const auto drop = static_cast<std::ptrdiff_t>(new_base - launch_base_);
    exec_op_.erase(exec_op_.begin(), exec_op_.begin() + drop);
    exec_start_.erase(exec_start_.begin(), exec_start_.begin() + drop);
    exec_finish_.erase(exec_finish_.begin(), exec_finish_.begin() + drop);
    if (!launch_log_.empty())
      launch_log_.erase(launch_log_.begin(), launch_log_.begin() + drop);
    out.retired_launches = new_base - launch_base_;
    launch_base_ = new_base;
  }

  // ---- Engine-side husk compaction.
  out.eqset_slots_reclaimed = engine_->compact_husks(kHuskSlack);
  out.launch_base = launch_base_;
  out.op_base = graph_.base();
  return out;
}

void Runtime::export_chrome_trace(std::ostream& os) const {
  sim::ReplayResult r = replay_graph();
  if (!recorder_.enabled() && lifecycle_.event_count() == 0) {
    sim::export_chrome_trace(graph_, r, config_.machine, os);
    return;
  }

  // Resolve a launch to its live (resident, unfrozen) exec op, or
  // kInvalidOp: retired work has no slice to attach to.
  auto live_exec = [&](LaunchID id) -> sim::OpID {
    if (id == kInvalidLaunch || id < launch_base_ || id >= next_launch_)
      return sim::kInvalidOp;
    sim::OpID e = exec_op_[id - launch_base_];
    return e == sim::kFrozenOp ? sim::kInvalidOp : e;
  };

  sim::TraceEnrichment enrich;
  // Flow arrows for dependence edges: producer execution -> consumer
  // execution.
  for (LaunchID id = launch_base_; id < next_launch_; ++id) {
    if (live_exec(id) == sim::kInvalidOp) continue;
    for (LaunchID p : deps_.preds(id)) {
      if (live_exec(p) != sim::kInvalidOp)
        enrich.flows.push_back(
            sim::TraceFlow{live_exec(p), live_exec(id), "dep"});
    }
  }
  // Flow arrows for analysis messages: the op that triggered the send ->
  // the message's slice on the destination NIC.
  for (sim::OpID id = graph_.base(); id < graph_.size(); ++id) {
    const sim::Op& op = graph_.op(id);
    if (op.kind != sim::OpKind::Message ||
        op.category != static_cast<std::uint8_t>(sim::OpCategory::Analysis))
      continue;
    std::span<const sim::OpID> d = graph_.deps(id);
    if (!d.empty())
      enrich.flows.push_back(sim::TraceFlow{d.front(), id, "analysis_msg"});
  }
  // Counter tracks: each retained sample anchored at its launch's task
  // execution (sim time is only known post-replay, so the exec op's finish
  // provides the timestamp).
  for (std::size_t sid = 0; sid < recorder_.series_count(); ++sid) {
    const obs::CounterSeries& cs = recorder_.series(sid);
    sim::TraceCounterTrack track;
    track.name = cs.name();
    track.pid = 0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const obs::SeriesSample& s = cs.at(i);
      if (live_exec(s.launch) != sim::kInvalidOp)
        track.samples.emplace_back(live_exec(s.launch), s.value);
    }
    enrich.counters.push_back(std::move(track));
  }
  // Lifecycle counter tracks: per-field live eq-set population and
  // refinement depth over the launch clock, anchored like the series above.
  for (FieldID f : lifecycle_.fields()) {
    sim::TraceCounterTrack live, depth;
    live.name = "lifecycle/live_eqsets/field" + std::to_string(f);
    depth.name = "lifecycle/depth/field" + std::to_string(f);
    live.pid = depth.pid = 0;
    for (const obs::LifecycleEvent& ev : lifecycle_.events(f)) {
      if (live_exec(ev.launch) == sim::kInvalidOp) continue;
      live.samples.emplace_back(live_exec(ev.launch),
                                static_cast<double>(ev.live_after));
      depth.samples.emplace_back(live_exec(ev.launch),
                                 static_cast<double>(ev.depth));
    }
    if (!live.samples.empty()) {
      enrich.counters.push_back(std::move(live));
      enrich.counters.push_back(std::move(depth));
    }
  }
  // Per-launch args on the execution slices: task name plus the launch's
  // aggregated analysis counters.
  for (LaunchID id = launch_base_;
       id < next_launch_ && id < launch_names_.size(); ++id) {
    if (live_exec(id) == sim::kInvalidOp) continue;
    std::ostringstream args;
    args << "\"launch\":" << id << ",\"task\":\""
         << obs::json_escape(launch_names_[id]) << "\"";
    for_each_counter(launch_counters_[id],
                     [&](const char* name, std::uint64_t value) {
                       if (value != 0) args << ",\"" << name << "\":" << value;
                     });
    enrich.op_args.emplace(live_exec(id), args.str());
  }
  sim::export_chrome_trace(graph_, r, config_.machine, os, &enrich);
}

RunStats Runtime::finish() {
  if (!current_iteration_execs_.empty() || iteration_floor_ > 0 ||
      launches_this_iteration_ > 0)
    end_iteration();
  return stats();
}

RunStats Runtime::stats() const {
  sim::ReplayResult r = replay_graph();

  RunStats stats;
  stats.launches = next_launch_;
  stats.iterations = iteration_count_;
  stats.dep_edges = deps_.edge_count();
  stats.critical_path = deps_.critical_path();
  stats.messages = graph_.message_count();
  stats.message_bytes = graph_.total_message_bytes();
  stats.analysis_cpu_s =
      static_cast<double>(graph_.total_cost(sim::OpCategory::Analysis)) * 1e-9;
  stats.analysis_wall_s = analysis_wall_s_;
  stats.engine = engine_->stats();
  stats.total_time_s = static_cast<double>(r.makespan) * 1e-9;
  if (iteration_count_ > 0) {
    SimTime first_fin = first_marker_ == sim::kFrozenOp
                            ? first_marker_finish_
                            : r.finish_of(first_marker_);
    stats.init_time_s = static_cast<double>(first_fin) * 1e-9;
    if (iteration_count_ > 1) {
      SimTime last_fin = last_marker_ == sim::kFrozenOp
                             ? last_marker_finish_
                             : r.finish_of(last_marker_);
      stats.steady_iter_s = static_cast<double>(last_fin - first_fin) *
                            1e-9 /
                            static_cast<double>(iteration_count_ - 1);
    }
  }
  return stats;
}

} // namespace visrt
