#include "serve/session.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "obs/profile.h"

namespace visrt::serve {

using fuzz::ProgramSpec;
using fuzz::StreamItem;
using fuzz::VisprogStatement;

StreamSession::StreamSession(SessionOptions options)
    : options_(std::move(options)), value_hash_(kFnvOffsetBasis) {
  if (options_.latency != nullptr) {
    latency_ = options_.latency;
  } else {
    owned_latency_ = std::make_unique<SessionLatency>();
    latency_ = owned_latency_.get();
  }
  obs::flight_record(obs::FlightKind::SessionBegin);
}

StreamSession::~StreamSession() = default;

void StreamSession::feed(std::string_view bytes) {
  require(!finished_, "feed after finish on a streaming session");
  parser_.feed(bytes);
  VisprogStatement st;
  for (;;) {
    fuzz::VisprogStreamParser::Status status;
    const std::uint64_t parse_begin = obs::prof_now_ns();
    try {
      status = parser_.next(st);
    } catch (const ApiError& e) {
      // Malformed line: the parser already consumed it and stays usable.
      ++counters_.rejected;
      if (options_.on_error) options_.on_error(e.what());
      continue;
    }
    if (status != fuzz::VisprogStreamParser::Status::Statement) break;
    latency_->statement_parse.record(obs::prof_now_ns() - parse_begin);
    apply(st);
  }
}

void StreamSession::finish() {
  if (finished_) return;
  parser_.finish();
  feed_tail();
  finished_ = true;

  if (trace_depth_ != 0) {
    ++counters_.rejected;
    if (options_.on_error)
      options_.on_error("stream ended inside an open trace");
  }
  // Sessions that declared fields but never launched still observe them.
  if (runtime_ == nullptr && !spec_.fields.empty()) instantiate();

  if (runtime_ != nullptr) {
    // Mirror the batch oracle exactly: trailing per-field observes with no
    // intervening iteration close, so the emitted work graph — and with it
    // the schedule hash — is bit-identical to fuzz::run_program.  Without
    // value tracking there is nothing to observe (and the schedule hash
    // accordingly covers the launch stream only).
    if (options_.track_values) {
      for (std::size_t f = 0; f < spec_.fields.size(); ++f) {
        RegionData<double> data = runtime_->observe(
            regions_[spec_.fields[f].tree], static_cast<FieldID>(f));
        result_.final_hashes.push_back(fuzz::hash_region(data));
      }
    }
    result_.dep_graph_hash = runtime_->dep_graph().stream_hash();
    result_.schedule_hash = runtime_->schedule_hash();
    // Ingested launches, not dep_graph().task_count(): the trailing
    // observes above get task ids too (in both the batch and stream
    // paths), but they are not part of the launch stream.
    result_.launches = counters_.launches;
    result_.dep_edges = runtime_->dep_graph().edge_count();
    if (verifier_ != nullptr) {
      // The trailing observes get launch records too — check them like
      // the batch spy would.
      drain_verify();
      result_.verify = verifier_->report(*runtime_);
    }
  }
  if (options_.track_values) result_.value_hash = value_hash_;
  obs::flight_record(obs::FlightKind::SessionEnd, counters_.launches,
                     counters_.statements);
}

void StreamSession::feed_tail() {
  // Drain statements that became parseable when finish() flushed the
  // final unterminated line.
  VisprogStatement st;
  for (;;) {
    fuzz::VisprogStreamParser::Status status;
    const std::uint64_t parse_begin = obs::prof_now_ns();
    try {
      status = parser_.next(st);
    } catch (const ApiError& e) {
      ++counters_.rejected;
      if (options_.on_error) options_.on_error(e.what());
      continue;
    }
    if (status != fuzz::VisprogStreamParser::Status::Statement) break;
    latency_->statement_parse.record(obs::prof_now_ns() - parse_begin);
    apply(st);
  }
}

void StreamSession::apply(const VisprogStatement& st) {
  try {
    switch (st.kind) {
    case VisprogStatement::Kind::Header: break;
    case VisprogStatement::Kind::Config:
    case VisprogStatement::Kind::Tuning:
    case VisprogStatement::Kind::Tree:
    case VisprogStatement::Kind::Partition:
    case VisprogStatement::Kind::Field: apply_decl(st); break;
    case VisprogStatement::Kind::Item: {
      if (runtime_ == nullptr) instantiate();
      int depth = trace_depth_;
      fuzz::validate_item(spec_, st.item, depth);
      apply_item(st.item);
      trace_depth_ = depth;
      break;
    }
    }
    ++counters_.statements;
  } catch (const ApiError& e) {
    ++counters_.rejected;
    if (options_.on_error) options_.on_error(e.what());
  }
}

void StreamSession::apply_decl(const VisprogStatement& st) {
  require(runtime_ == nullptr,
          "declarations and configuration must precede the launch stream");
  // Apply to a scratch copy and validate, so a rejected declaration
  // leaves the mirror untouched (tables are tiny; the copy is cheap).
  // Before the first tree arrives the mirror is an incomplete prefix that
  // full validate_decls would reject ("needs at least one tree"), so only
  // the machine shape is checked; everything is re-validated in full at
  // instantiate().
  ProgramSpec probe = spec_;
  fuzz::apply_statement(probe, st);
  if (probe.trees.empty())
    require(probe.num_nodes >= 1, "visprog: machine needs at least one node");
  else
    fuzz::validate_decls(probe);
  spec_ = std::move(probe);
}

void StreamSession::instantiate() {
  fuzz::validate_decls(spec_);
  RuntimeConfig config;
  config.algorithm = options_.subject.value_or(spec_.subject);
  config.tuning = spec_.tuning;
  config.dcr = spec_.dcr;
  config.enable_tracing = spec_.tracing;
  config.track_values = options_.track_values;
  config.analysis_threads = options_.analysis_threads;
  config.machine.num_nodes = spec_.num_nodes;
  config.max_history_depth = options_.max_history_depth;
  config.launch_latency = &latency_->launch_analysis;
  // Inline verification needs the launch log (ground-truth interference)
  // and the order-maintenance labels (O(1) transitive order).
  config.record_launches = options_.verify;
  config.order_queries = options_.verify;
  runtime_ = std::make_unique<Runtime>(config);
  if (options_.verify)
    verifier_ = std::make_unique<analysis::IncrementalVerifier>();

  for (const fuzz::TreeSpec& tree : spec_.trees)
    regions_.push_back(
        runtime_->create_region(IntervalSet(0, tree.size - 1), tree.name));
  for (const fuzz::PartitionSpec& part : spec_.partitions) {
    PartitionHandle ph = runtime_->create_partition(
        regions_[part.parent], part.subspaces, part.name);
    partitions_.push_back(ph);
    for (std::size_t c = 0; c < part.subspaces.size(); ++c)
      regions_.push_back(runtime_->subregion(ph, c));
  }
  for (std::size_t f = 0; f < spec_.fields.size(); ++f) {
    const fuzz::FieldSpec& field = spec_.fields[f];
    coord_t mod = field.init_mod;
    FieldID id = runtime_->add_field(
        regions_[field.tree], field.name,
        [mod](coord_t p) { return static_cast<double>(p % mod); });
    invariant(id == static_cast<FieldID>(f),
              "field-table index must equal the runtime FieldID");
  }
}

void StreamSession::apply_item(const StreamItem& item) {
  switch (item.kind) {
  case StreamItem::Kind::Task: {
    TaskLaunch launch;
    launch.name = "fuzz";
    launch.mapped_node = item.task.mapped_node;
    coord_t work = 0;
    for (const fuzz::ReqSpec& req : item.task.requirements) {
      launch.requirements.push_back(
          RegionReq{regions_[req.region], req.field, req.privilege});
      work += fuzz::region_domain(spec_, req.region).volume();
    }
    launch.work_items = work;
    launch.fn = [this, &item](TaskContext& ctx) {
      body(ctx, item.task.requirements, item.task.salt);
    };
    LaunchID id = runtime_->launch(std::move(launch));
    obs::flight_record(obs::FlightKind::Launch, id, counters_.statements);
    invariant(id == next_expected_, "launch id misaligned with the stream");
    ++next_expected_;
    ++counters_.launches;
    ++launches_since_retire_;
    break;
  }
  case StreamItem::Kind::Index: {
    IndexLaunch launch;
    launch.name = "fuzz-index";
    coord_t work = 0;
    for (const fuzz::IndexReqSpec& req : item.index.requirements) {
      launch.requirements.push_back(
          IndexReq{partitions_[req.partition], req.field, req.privilege});
      work += fuzz::region_domain(spec_, req.partition).volume();
    }
    launch.work_items = work;
    launch.fn = [this, &item](TaskContext& ctx, std::size_t point) {
      // Per-point requirements, exactly as expand_stream flattens them.
      std::vector<fuzz::ReqSpec> reqs;
      reqs.reserve(item.index.requirements.size());
      for (const fuzz::IndexReqSpec& req : item.index.requirements) {
        reqs.push_back(fuzz::ReqSpec{
            fuzz::region_table_base(spec_, req.partition) +
                static_cast<std::uint32_t>(point),
            req.field, req.privilege});
      }
      body(ctx, reqs, item.index.salt);
    };
    std::vector<LaunchID> ids = runtime_->index_launch(launch);
    for (LaunchID id : ids) {
      obs::flight_record(obs::FlightKind::Launch, id, counters_.statements);
      invariant(id == next_expected_, "launch id misaligned with the stream");
      ++next_expected_;
    }
    counters_.launches += ids.size();
    launches_since_retire_ += ids.size();
    break;
  }
  case StreamItem::Kind::BeginTrace:
    runtime_->begin_trace(item.trace_id);
    break;
  case StreamItem::Kind::EndTrace: runtime_->end_trace(); break;
  case StreamItem::Kind::EndIteration:
    runtime_->end_iteration();
    ++counters_.iterations;
    break;
  }
  if (options_.inject_check_failure_after != 0 &&
      counters_.launches >= options_.inject_check_failure_after) {
    // Test hook: exercises the check-failure hook -> flight dump path with
    // real launch breadcrumbs in the ring.
    invariant_failure("injected check failure (serve telemetry test hook)");
  }
  // Verify before retirement can reclaim this item's interference
  // partners (the verifier indexes launches while they are resident).
  drain_verify();
  maybe_retire(false);
  note_residency();
}

void StreamSession::drain_verify() {
  if (verifier_ == nullptr || runtime_ == nullptr) return;
  std::span<const analysis::SpyViolation> recorded =
      verifier_->drain(*runtime_);
  const analysis::SpyReport& tally = verifier_->peek();
  counters_.verified_launches = tally.launches;
  counters_.verify_violations = tally.unordered_pairs + tally.imprecise_edges;
  if (options_.on_error) {
    for (const analysis::SpyViolation& v : recorded) {
      options_.on_error(
          std::string("verify: ") +
          analysis::spy_violation_kind_name(v.kind) + ": launch " +
          std::to_string(v.earlier) + " vs " + std::to_string(v.later) +
          ": " + v.detail);
    }
  }
}

void StreamSession::maybe_retire(bool force) {
  if (runtime_ == nullptr) return;
  if (retire_backoff_ > 0) --retire_backoff_;
  const bool over_cap =
      options_.max_resident_launches != 0 &&
      runtime_->resident_launches() > options_.max_resident_launches;
  const bool interval_due = options_.retire_every != 0 &&
                            launches_since_retire_ >= options_.retire_every;
  if (!force && !interval_due && !(over_cap && retire_backoff_ == 0)) return;
  const std::uint64_t retire_begin = obs::prof_now_ns();
  RetireStats r = runtime_->retire(options_.max_dead_eqsets);
  latency_->retire_pause.record(obs::prof_now_ns() - retire_begin);
  obs::flight_record(obs::FlightKind::RetireEpoch, counters_.retire_calls + 1,
                     runtime_->resident_launches());
  ++counters_.retire_calls;
  counters_.retired_launches += r.retired_launches;
  counters_.retired_ops += r.retired_ops;
  counters_.eqset_slots_reclaimed += r.eqset_slots_reclaimed;
  launches_since_retire_ = 0;
  // A stream whose live analysis tail exceeds the cap cannot be drained
  // by retiring harder: back off so the over-cap trigger does not degrade
  // into a (quadratic) full retire per ingested launch.
  retire_backoff_ = options_.max_resident_launches != 0 &&
                            runtime_->resident_launches() >
                                options_.max_resident_launches
                        ? 64
                        : 0;
}

void StreamSession::note_residency() {
  if (runtime_ == nullptr) return;
  counters_.peak_resident_launches =
      std::max<std::uint64_t>(counters_.peak_resident_launches,
                              runtime_->resident_launches());
  counters_.peak_resident_ops = std::max<std::uint64_t>(
      counters_.peak_resident_ops, runtime_->work_graph().resident_ops());
}

void StreamSession::body(TaskContext& ctx,
                         std::span<const fuzz::ReqSpec> reqs,
                         std::uint64_t salt) {
  std::uint64_t launch_hash = kFnvOffsetBasis;
  std::vector<RegionData<double>*> buffers;
  buffers.reserve(ctx.region_count());
  for (std::size_t i = 0; i < ctx.region_count(); ++i) {
    launch_hash = fnv1a_u64(launch_hash, fuzz::hash_region(ctx.data(i)));
    buffers.push_back(&ctx.data(i));
  }
  value_hash_ = fnv1a_u64(value_hash_, launch_hash);
  fuzz::apply_task_body(reqs, buffers, ctx.launch_id(), salt);
}

std::uint64_t fold_value_hashes(std::span<const std::uint64_t> hashes) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint64_t v : hashes) h = fnv1a_u64(h, v);
  return h;
}

} // namespace visrt::serve
