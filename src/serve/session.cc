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
    : options_(std::move(options)) {
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
  apply_parsed();
}

void StreamSession::finish() {
  if (finished_) return;
  // Statements that became parseable when the parser flushed the final
  // unterminated line.
  parser_.finish();
  apply_parsed();
  finished_ = true;

  if (trace_depth_ != 0) {
    ++counters_.rejected;
    if (options_.on_error)
      options_.on_error("stream ended inside an open trace");
  }
  // Sessions that declared fields but never launched still observe them.
  if (executor_ == nullptr && !spec_.fields.empty()) instantiate();

  if (executor_ != nullptr) {
    // The trailing per-field observes, with no intervening iteration
    // close, exactly as the batch oracle runs them.  Without value
    // tracking there is nothing to observe (and the schedule hash
    // accordingly covers the launch stream only).
    result_.final_hashes = executor_->observe_fields();
    const Runtime& rt = executor_->runtime();
    result_.dep_graph_hash = rt.dep_graph().stream_hash();
    result_.schedule_hash = rt.schedule_hash();
    // Ingested launches, not dep_graph().task_count(): the trailing
    // observes above get task ids too (in both the batch and stream
    // paths), but they are not part of the launch stream.
    result_.launches = counters_.launches;
    result_.dep_edges = rt.dep_graph().edge_count();
    if (verifier_ != nullptr) {
      // The trailing observes get launch records too — check them like
      // the batch spy would.
      drain_verify();
      result_.verify = verifier_->report(rt);
    }
  }
  if (options_.track_values)
    result_.value_hash =
        executor_ != nullptr ? executor_->value_hash() : kFnvOffsetBasis;
  obs::flight_record(obs::FlightKind::SessionEnd, counters_.launches,
                     counters_.statements);
}

void StreamSession::apply_parsed() {
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
      if (executor_ == nullptr) instantiate();
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
  require(executor_ == nullptr,
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
  RuntimeConfig config = fuzz::runtime_config(spec_);
  config.algorithm = options_.subject.value_or(spec_.subject);
  config.track_values = options_.track_values;
  config.analysis_threads = options_.analysis_threads;
  config.max_history_depth = options_.max_history_depth;
  config.launch_latency = &latency_->launch_analysis;
  // Inline verification needs the launch log (ground-truth interference);
  // the verifier builds its own order labels.
  config.record_launches = options_.verify;
  executor_ = std::make_unique<fuzz::Executor>(spec_, config);
  if (options_.verify)
    verifier_ = std::make_unique<analysis::IncrementalVerifier>();
}

void StreamSession::apply_item(const StreamItem& item) {
  const LaunchID first = executor_->launches();
  executor_->apply(item);
  const LaunchID end = executor_->launches();
  for (LaunchID id = first; id < end; ++id)
    obs::flight_record(obs::FlightKind::Launch, id, counters_.statements);
  counters_.launches += end - first;
  launches_since_retire_ += end - first;
  if (item.kind == StreamItem::Kind::EndIteration) ++counters_.iterations;
  if (options_.inject_check_failure_after != 0 &&
      counters_.launches >= options_.inject_check_failure_after) {
    // Test hook: exercises the check-failure hook -> flight dump path with
    // real launch breadcrumbs in the ring.
    invariant_failure("injected check failure (serve telemetry test hook)");
  }
  // Verify before retirement can reclaim this item's interference
  // partners (the verifier indexes launches while they are resident).
  drain_verify();
  maybe_retire();
  note_residency();
}

void StreamSession::drain_verify() {
  if (verifier_ == nullptr) return;
  std::span<const analysis::SpyViolation> recorded =
      verifier_->drain(executor_->runtime());
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

void StreamSession::maybe_retire() {
  Runtime& rt = executor_->runtime();
  if (retire_backoff_ > 0) --retire_backoff_;
  const bool over_cap =
      options_.max_resident_launches != 0 &&
      rt.resident_launches() > options_.max_resident_launches;
  const bool interval_due = options_.retire_every != 0 &&
                            launches_since_retire_ >= options_.retire_every;
  if (!interval_due && !(over_cap && retire_backoff_ == 0)) return;
  const std::uint64_t retire_begin = obs::prof_now_ns();
  RetireStats r = rt.retire();
  latency_->retire_pause.record(obs::prof_now_ns() - retire_begin);
  obs::flight_record(obs::FlightKind::RetireEpoch, counters_.retire_calls + 1,
                     rt.resident_launches());
  ++counters_.retire_calls;
  counters_.retired_launches += r.retired_launches;
  counters_.retired_ops += r.retired_ops;
  counters_.eqset_slots_reclaimed += r.eqset_slots_reclaimed;
  launches_since_retire_ = 0;
  // A stream whose live analysis tail exceeds the cap cannot be drained
  // by retiring harder: back off so the over-cap trigger does not degrade
  // into a (quadratic) full retire per ingested launch.
  retire_backoff_ = options_.max_resident_launches != 0 &&
                            rt.resident_launches() >
                                options_.max_resident_launches
                        ? 64
                        : 0;
}

void StreamSession::note_residency() {
  const Runtime& rt = executor_->runtime();
  counters_.peak_resident_launches = std::max<std::uint64_t>(
      counters_.peak_resident_launches, rt.resident_launches());
  counters_.peak_resident_ops = std::max<std::uint64_t>(
      counters_.peak_resident_ops, rt.work_graph().resident_ops());
}

} // namespace visrt::serve
