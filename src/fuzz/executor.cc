#include "fuzz/executor.h"

#include <utility>

#include "common/check.h"

namespace visrt::fuzz {

RuntimeConfig runtime_config(const ProgramSpec& spec) {
  RuntimeConfig config;
  config.algorithm = spec.subject;
  config.tuning = spec.tuning;
  config.dcr = spec.dcr;
  config.enable_tracing = spec.tracing;
  config.machine.num_nodes = spec.num_nodes;
  return config;
}

Executor::Executor(const ProgramSpec& spec, const RuntimeConfig& config) {
  validate_decls(spec);
  runtime_ = std::make_unique<Runtime>(config);
  for (const TreeSpec& tree : spec.trees) {
    regions_.push_back(
        runtime_->create_region(IntervalSet(0, tree.size - 1), tree.name));
    volumes_.push_back(tree.size);
  }
  for (const PartitionSpec& part : spec.partitions) {
    PartitionHandle ph = runtime_->create_partition(
        regions_[part.parent], part.subspaces, part.name);
    partitions_.push_back(ph);
    bases_.push_back(static_cast<std::uint32_t>(regions_.size()));
    for (std::size_t c = 0; c < part.subspaces.size(); ++c) {
      regions_.push_back(runtime_->subregion(ph, c));
      volumes_.push_back(part.subspaces[c].volume());
    }
  }
  for (std::size_t f = 0; f < spec.fields.size(); ++f) {
    const FieldSpec& field = spec.fields[f];
    coord_t mod = field.init_mod;
    FieldID id = runtime_->add_field(
        regions_[field.tree], field.name,
        [mod](coord_t p) { return static_cast<double>(p % mod); });
    invariant(id == static_cast<FieldID>(f),
              "field-table index must equal the runtime FieldID");
    field_roots_.push_back(regions_[field.tree]);
  }
}

std::span<const std::uint64_t> Executor::apply(const StreamItem& item) {
  hashes_.clear();
  switch (item.kind) {
  case StreamItem::Kind::Task: {
    TaskLaunch launch;
    launch.name = "fuzz";
    launch.mapped_node = item.task.mapped_node;
    coord_t work = 0;
    for (const ReqSpec& req : item.task.requirements) {
      launch.requirements.push_back(
          RegionReq{regions_[req.region], req.field, req.privilege});
      work += volumes_[req.region];
    }
    launch.work_items = work;
    launch.fn = [this, &item](TaskContext& ctx) {
      body(ctx, item.task.requirements, item.task.salt);
    };
    issued(runtime_->launch(std::move(launch)));
    break;
  }
  case StreamItem::Kind::Index: {
    IndexLaunch launch;
    launch.name = "fuzz-index";
    coord_t work = 0;
    for (const IndexReqSpec& req : item.index.requirements) {
      launch.requirements.push_back(
          IndexReq{partitions_[req.partition], req.field, req.privilege});
      // The volume of region-table entry `partition`, not of the
      // partition: the pinned schedule hashes are computed this way.
      work += volumes_[req.partition];
    }
    launch.work_items = work;
    launch.fn = [this, &item](TaskContext& ctx, std::size_t point) {
      // Per-point requirements, exactly as expand_stream flattens them.
      point_reqs_.clear();
      for (const IndexReqSpec& req : item.index.requirements)
        point_reqs_.push_back(
            ReqSpec{bases_[req.partition] + static_cast<std::uint32_t>(point),
                    req.field, req.privilege});
      body(ctx, point_reqs_, item.index.salt);
    };
    for (LaunchID id : runtime_->index_launch(launch)) issued(id);
    break;
  }
  case StreamItem::Kind::BeginTrace:
    runtime_->begin_trace(item.trace_id);
    break;
  case StreamItem::Kind::EndTrace: runtime_->end_trace(); break;
  case StreamItem::Kind::EndIteration: runtime_->end_iteration(); break;
  }
  return hashes_;
}

std::vector<std::uint64_t> Executor::observe_fields() {
  std::vector<std::uint64_t> out;
  if (!runtime_->config().track_values) return out;
  for (std::size_t f = 0; f < field_roots_.size(); ++f)
    out.push_back(hash_region(
        runtime_->observe(field_roots_[f], static_cast<FieldID>(f))));
  return out;
}

void Executor::issued(LaunchID id) {
  invariant(id == next_launch_, "launch id misaligned with the stream");
  ++next_launch_;
}

/// The shared deterministic body: hash the materialized (pre-mutation)
/// buffers, then apply the canonical writes/reductions.
void Executor::body(TaskContext& ctx, std::span<const ReqSpec> reqs,
                    std::uint64_t salt) {
  std::uint64_t hash = kFnvOffsetBasis;
  buffers_.clear();
  for (std::size_t i = 0; i < ctx.region_count(); ++i) {
    hash = fnv1a_u64(hash, hash_region(ctx.data(i)));
    buffers_.push_back(&ctx.data(i));
  }
  hashes_.push_back(hash);
  value_hash_ = fnv1a_u64(value_hash_, hash);
  apply_task_body(reqs, buffers_, ctx.launch_id(), salt);
}

} // namespace visrt::fuzz
