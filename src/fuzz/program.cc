#include "fuzz/program.h"

#include <bit>

#include "common/check.h"
#include "common/hash.h"
#include "realm/reduction_ops.h"

namespace visrt::fuzz {

std::uint32_t region_table_base(const ProgramSpec& spec, std::uint32_t p) {
  std::uint32_t base = static_cast<std::uint32_t>(spec.trees.size());
  for (std::uint32_t i = 0; i < p; ++i)
    base += static_cast<std::uint32_t>(spec.partitions[i].subspaces.size());
  return base;
}

std::uint32_t region_table_size(const ProgramSpec& spec) {
  return region_table_base(spec,
                           static_cast<std::uint32_t>(spec.partitions.size()));
}

IntervalSet region_domain(const ProgramSpec& spec, std::uint32_t r) {
  if (r < spec.trees.size()) return IntervalSet(0, spec.trees[r].size - 1);
  std::uint32_t base = static_cast<std::uint32_t>(spec.trees.size());
  for (const PartitionSpec& part : spec.partitions) {
    std::uint32_t n = static_cast<std::uint32_t>(part.subspaces.size());
    if (r < base + n) return part.subspaces[r - base];
    base += n;
  }
  invariant_failure("region-table index out of range");
}

namespace {

/// Tree-table index that region-table entry `r` belongs to.
std::uint32_t tree_of_region(const ProgramSpec& spec, std::uint32_t r) {
  if (r < spec.trees.size()) return r;
  std::uint32_t base = static_cast<std::uint32_t>(spec.trees.size());
  for (std::size_t p = 0; p < spec.partitions.size(); ++p) {
    std::uint32_t n =
        static_cast<std::uint32_t>(spec.partitions[p].subspaces.size());
    if (r < base + n) return tree_of_region(spec, spec.partitions[p].parent);
    base += n;
  }
  invariant_failure("region-table index out of range");
}

void validate_reqs(const ProgramSpec& spec, std::span<const ReqSpec> reqs,
                   std::uint32_t regions) {
  require(!reqs.empty(), "visprog: a task needs at least one requirement");
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ReqSpec& req = reqs[i];
    require(req.region < regions, "visprog: requirement region out of range");
    require(req.field < spec.fields.size(),
            "visprog: requirement field out of range");
    require(spec.fields[req.field].tree == tree_of_region(spec, req.region),
            "visprog: requirement region is not in its field's tree");
    if (req.privilege.is_reduce())
      reduction_op(req.privilege.redop); // throws on unknown redop
    for (std::size_t j = 0; j < i; ++j) {
      require(reqs[j].field != req.field,
              "visprog: one task may use each field at most once (the "
              "paper's restriction on aliased interfering arguments)");
    }
  }
}

} // namespace

void validate_decls(const ProgramSpec& spec) {
  require(spec.num_nodes >= 1, "visprog: machine needs at least one node");
  require(!spec.trees.empty(), "visprog: program needs at least one tree");
  for (const TreeSpec& tree : spec.trees)
    require(tree.size >= 1, "visprog: tree domain must be non-empty");

  // Partitions: parents must be earlier table entries (roots come first;
  // partition k's children start at region_table_base(spec, k), so parent
  // < base(k) forbids forward references and self-reference).
  std::uint32_t regions = static_cast<std::uint32_t>(spec.trees.size());
  for (std::size_t p = 0; p < spec.partitions.size(); ++p) {
    const PartitionSpec& part = spec.partitions[p];
    require(part.parent < regions,
            "visprog: partition parent must precede it in the region table");
    require(!part.subspaces.empty(),
            "visprog: partition needs at least one subspace");
    regions += static_cast<std::uint32_t>(part.subspaces.size());
  }
  // Subspace-inside-parent is checked by build_forest (it needs domains);
  // spec-level validation stops at indices.

  for (const FieldSpec& field : spec.fields) {
    require(field.tree < spec.trees.size(),
            "visprog: field tree out of range");
    require(field.init_mod >= 1, "visprog: field init_mod must be >= 1");
  }
}

void validate_item(const ProgramSpec& spec, const StreamItem& item,
                   int& trace_depth) {
  std::uint32_t regions = region_table_size(spec);
  switch (item.kind) {
  case StreamItem::Kind::Task:
    validate_reqs(spec, item.task.requirements, regions);
    require(item.task.mapped_node < spec.num_nodes,
            "visprog: task mapped to a nonexistent node");
    break;
  case StreamItem::Kind::Index: {
    require(!item.index.requirements.empty(),
            "visprog: an index launch needs at least one requirement");
    std::size_t colors = 0;
    for (std::size_t i = 0; i < item.index.requirements.size(); ++i) {
      const IndexReqSpec& req = item.index.requirements[i];
      require(req.partition < spec.partitions.size(),
              "visprog: index-launch partition out of range");
      std::size_t n = spec.partitions[req.partition].subspaces.size();
      if (i == 0) colors = n;
      require(n == colors,
              "visprog: index-launch partitions must have matching "
              "color counts");
      require(req.field < spec.fields.size(),
              "visprog: index-launch field out of range");
      require(spec.fields[req.field].tree ==
                  tree_of_region(spec, spec.partitions[req.partition].parent),
              "visprog: index-launch partition is not in its field's tree");
      for (std::size_t j = 0; j < i; ++j)
        require(item.index.requirements[j].field != req.field,
                "visprog: one task may use each field at most once");
    }
    break;
  }
  case StreamItem::Kind::BeginTrace:
    require(trace_depth == 0, "visprog: traces cannot nest");
    ++trace_depth;
    break;
  case StreamItem::Kind::EndTrace:
    require(trace_depth == 1, "visprog: end_trace without begin_trace");
    --trace_depth;
    break;
  case StreamItem::Kind::EndIteration:
    break;
  }
}

void validate(const ProgramSpec& spec) {
  validate_decls(spec);
  int trace_depth = 0;
  for (const StreamItem& item : spec.stream)
    validate_item(spec, item, trace_depth);
  require(trace_depth == 0, "visprog: unterminated trace");
}

void build_forest(const ProgramSpec& spec, BuiltForest& out) {
  validate(spec);
  out.regions.clear();
  out.partitions.clear();
  for (const TreeSpec& tree : spec.trees)
    out.regions.push_back(
        out.forest.create_root(IntervalSet(0, tree.size - 1), tree.name));
  for (const PartitionSpec& part : spec.partitions) {
    PartitionHandle ph = out.forest.create_partition(
        out.regions[part.parent], part.subspaces, part.name);
    out.partitions.push_back(ph);
    for (std::size_t c = 0; c < part.subspaces.size(); ++c)
      out.regions.push_back(out.forest.subregion(ph, c));
  }
}

std::vector<ExpandedLaunch> expand_stream(const ProgramSpec& spec) {
  validate(spec);
  std::vector<ExpandedLaunch> out;
  for (std::size_t i = 0; i < spec.stream.size(); ++i) {
    const StreamItem& item = spec.stream[i];
    if (item.kind == StreamItem::Kind::Task) {
      out.push_back(ExpandedLaunch{item.task.requirements,
                                   item.task.mapped_node, item.task.salt, i});
    } else if (item.kind == StreamItem::Kind::Index) {
      std::size_t colors =
          spec.partitions[item.index.requirements[0].partition]
              .subspaces.size();
      for (std::size_t c = 0; c < colors; ++c) {
        ExpandedLaunch point;
        for (const IndexReqSpec& req : item.index.requirements) {
          point.requirements.push_back(ReqSpec{
              region_table_base(spec, req.partition) +
                  static_cast<std::uint32_t>(c),
              req.field, req.privilege});
        }
        point.mapped_node = static_cast<NodeID>(c % spec.num_nodes);
        point.salt = item.index.salt;
        point.item = i;
        out.push_back(std::move(point));
      }
    }
  }
  return out;
}

std::vector<analysis::LintEvent> lint_events(const ProgramSpec& spec,
                                             const BuiltForest& built) {
  validate(spec);
  std::vector<analysis::LintEvent> events;
  events.reserve(spec.stream.size());
  for (const StreamItem& item : spec.stream) {
    analysis::LintEvent ev;
    switch (item.kind) {
    case StreamItem::Kind::Task:
      ev.kind = analysis::LintEvent::Kind::Task;
      for (const ReqSpec& req : item.task.requirements)
        ev.requirements.push_back(Requirement{built.regions[req.region],
                                              req.field, req.privilege});
      break;
    case StreamItem::Kind::Index:
      ev.kind = analysis::LintEvent::Kind::Index;
      for (const IndexReqSpec& req : item.index.requirements)
        ev.index_requirements.push_back(analysis::LintIndexReq{
            built.partitions[req.partition], req.field, req.privilege});
      break;
    case StreamItem::Kind::BeginTrace:
      ev.kind = analysis::LintEvent::Kind::BeginTrace;
      ev.trace_id = item.trace_id;
      break;
    case StreamItem::Kind::EndTrace:
      ev.kind = analysis::LintEvent::Kind::EndTrace;
      break;
    case StreamItem::Kind::EndIteration:
      ev.kind = analysis::LintEvent::Kind::EndIteration;
      break;
    }
    events.push_back(std::move(ev));
  }
  return events;
}

void apply_task_body(std::span<const ReqSpec> reqs,
                     std::span<RegionData<double>*> buffers, LaunchID id,
                     std::uint64_t salt) {
  invariant(reqs.size() == buffers.size(),
            "task body requirement/buffer count mismatch");
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Privilege& priv = reqs[i].privilege;
    RegionData<double>& buf = *buffers[i];
    coord_t mix = static_cast<coord_t>(id) * 13 + static_cast<coord_t>(i) +
                  static_cast<coord_t>(salt % 977);
    if (priv.is_write()) {
      buf.for_each([&](coord_t p, double& v) {
        v = static_cast<double>((p * 7 + mix) % 1001);
      });
    } else if (priv.is_reduce()) {
      const ReductionOp& op = reduction_op(priv.redop);
      coord_t rmix =
          static_cast<coord_t>(id) * 5 + static_cast<coord_t>(salt % 977);
      buf.for_each([&](coord_t p, double& v) {
        double contribution = static_cast<double>((p * 3 + rmix) % 97);
        v = op.fold(contribution, v);
      });
    }
    // Reads leave the buffer untouched.
  }
}

std::uint64_t hash_region(const RegionData<double>& data) {
  std::uint64_t h = kFnvOffsetBasis;
  auto mix = [&h](std::uint64_t v) { h = fnv1a_u64(h, v); };
  for (const Interval& iv : data.domain().intervals()) {
    mix(static_cast<std::uint64_t>(iv.lo));
    mix(static_cast<std::uint64_t>(iv.hi));
  }
  data.for_each(
      [&](coord_t, const double& v) { mix(std::bit_cast<std::uint64_t>(v)); });
  return h;
}

} // namespace visrt::fuzz
