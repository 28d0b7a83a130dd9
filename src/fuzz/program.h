// visrt/fuzz/program.h
//
// The fuzzer's program IR: a fully explicit, serializable description of a
// visrt program — region-tree forest, fields, and a stream of task
// launches, index launches, traces and iteration markers — plus the
// machine/engine configuration it runs under.  One ProgramSpec is the unit
// the whole subsystem revolves around:
//
//   generator.h  produces random specs,
//   serialize.h  round-trips them through the .visprog text format,
//   executor.h   applies them to a Runtime, one stream item at a time,
//   oracle.h     executes them differentially against the reference engine,
//   shrink.h     minimizes failing ones.
//
// Everything in a spec is by-value and index-based (no handles, no
// callbacks): task bodies are a fixed deterministic function of the launch
// id and a per-launch salt, so a spec replays bit-identically anywhere.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "region/region_tree.h"
#include "visibility/engine.h"
#include "visibility/privilege.h"

namespace visrt::fuzz {

/// One region tree: a root named `name` over the domain [0, size).
struct TreeSpec {
  std::string name;
  coord_t size = 1;
  friend bool operator==(const TreeSpec&, const TreeSpec&) = default;
};

/// One partition with fully materialized subspaces.  Dependent
/// partitioning (image/preimage/by-field) happens at *generation* time;
/// the spec records the resulting subspaces explicitly so replay never
/// depends on generator code.
struct PartitionSpec {
  std::string name;
  std::uint32_t parent = 0; ///< region-table index (see region table below)
  std::vector<IntervalSet> subspaces;
  friend bool operator==(const PartitionSpec&,
                         const PartitionSpec&) = default;
};

/// One field.  Fields are registered in spec order, so the field-table
/// index *is* the runtime FieldID.  Initial value of point p is p % mod.
struct FieldSpec {
  std::string name;
  std::uint32_t tree = 0; ///< tree-table index the field lives on
  coord_t init_mod = 11;
  friend bool operator==(const FieldSpec&, const FieldSpec&) = default;
};

/// One region requirement (region-table index + field-table index).
struct ReqSpec {
  std::uint32_t region = 0;
  std::uint32_t field = 0;
  Privilege privilege;
  friend bool operator==(const ReqSpec&, const ReqSpec&) = default;
};

/// One individual task launch.
struct TaskSpec {
  std::vector<ReqSpec> requirements; ///< never empty
  NodeID mapped_node = 0;
  std::uint64_t salt = 0; ///< perturbs the deterministic body
  friend bool operator==(const TaskSpec&, const TaskSpec&) = default;
};

/// One requirement of an index launch (partition-table index + field).
struct IndexReqSpec {
  std::uint32_t partition = 0;
  std::uint32_t field = 0;
  Privilege privilege;
  friend bool operator==(const IndexReqSpec&,
                         const IndexReqSpec&) = default;
};

/// One index launch: a point task per color; all partitions must have the
/// same color count.  Point `c` maps to node c % num_nodes.
struct IndexSpec {
  std::vector<IndexReqSpec> requirements; ///< never empty
  std::uint64_t salt = 0;
  friend bool operator==(const IndexSpec&, const IndexSpec&) = default;
};

/// One element of the launch stream.
struct StreamItem {
  enum class Kind : std::uint8_t {
    Task,
    Index,
    BeginTrace,
    EndTrace,
    EndIteration,
  };
  Kind kind = Kind::Task;
  TaskSpec task;            ///< Kind::Task
  IndexSpec index;          ///< Kind::Index
  std::uint32_t trace_id = 0; ///< Kind::BeginTrace
  friend bool operator==(const StreamItem&, const StreamItem&) = default;
};

/// A complete program plus the configuration under which it (mis)behaved.
///
/// Region table: index 0..trees.size()-1 are the tree roots in tree order;
/// each partition then appends its subregions in color order.  This is
/// exactly the order in which build_forest / the executor create regions,
/// so indices resolve identically everywhere.
struct ProgramSpec {
  // --- configuration ---
  std::uint32_t num_nodes = 1;
  bool dcr = false;
  bool tracing = true;
  Algorithm subject = Algorithm::RayCast; ///< engine under test
  EngineTuning tuning;

  // --- structure ---
  std::vector<TreeSpec> trees;
  std::vector<PartitionSpec> partitions;
  std::vector<FieldSpec> fields;

  // --- behaviour ---
  std::vector<StreamItem> stream;

  friend bool operator==(const ProgramSpec&, const ProgramSpec&) = default;
};

/// Region-table index of the first subregion of partition `p` (its color-0
/// child); color c is at region_table_base(spec, p) + c.
std::uint32_t region_table_base(const ProgramSpec& spec, std::uint32_t p);
/// Total number of region-table entries.
std::uint32_t region_table_size(const ProgramSpec& spec);
/// Domain of a region-table entry: the full tree domain for roots, the
/// recorded subspace for partition children.  Subspaces are materialized at
/// generation time, so this is the true domain without building a forest.
IntervalSet region_domain(const ProgramSpec& spec, std::uint32_t r);

/// Structural validation: every index in range, subspaces inside parents,
/// requirements non-empty with fields on the right trees, trace brackets
/// balanced, mapped nodes < num_nodes.  Throws ApiError on violation.
void validate(const ProgramSpec& spec);

/// Validate only the declaration part (machine config + tree / partition /
/// field tables) — what a streaming session checks before the first stream
/// item arrives.  Throws ApiError on violation.
void validate_decls(const ProgramSpec& spec);

/// Validate one stream item against already-validated declarations.
/// `trace_depth` carries the open-trace bracket state across calls and is
/// updated in place; the caller asserts it is zero at end-of-stream.
/// Together with validate_decls this is exactly validate(), one item at a
/// time.
void validate_item(const ProgramSpec& spec, const StreamItem& item,
                   int& trace_depth);

/// The forest described by a spec, with the region table materialized.
struct BuiltForest {
  RegionTreeForest forest;
  std::vector<RegionHandle> regions;       ///< by region-table index
  std::vector<PartitionHandle> partitions; ///< by partition-table index
};

/// Build the forest (validates first).
void build_forest(const ProgramSpec& spec, BuiltForest& out);

/// One flattened launch: what the runtime will actually analyze.  Index
/// launches are expanded one point per color, in color order; trace and
/// iteration markers disappear.  The position in the expanded vector is
/// the LaunchID the runtime will assign.
struct ExpandedLaunch {
  std::vector<ReqSpec> requirements;
  NodeID mapped_node = 0;
  std::uint64_t salt = 0;
  std::size_t item = 0; ///< originating stream-item index
};

/// Expand the stream (validates first).
std::vector<ExpandedLaunch> expand_stream(const ProgramSpec& spec);

/// Lower the spec's launch stream to the program linter's
/// engine-independent event form, resolving table indices against the
/// built forest.  `built` must come from build_forest over the same spec.
std::vector<analysis::LintEvent> lint_events(const ProgramSpec& spec,
                                             const BuiltForest& built);

/// The deterministic task body, shared by every execution path (the
/// runtime executor and the engine-level property tests), keyed by the
/// launch id, requirement index and salt:
///   read        leaves the buffer untouched,
///   read-write  writes (p*7 + id*13 + i + salt) % 1001,
///   reduce_f    folds   (p*3 + id*5 + salt) % 97 into every point.
/// Integer-valued doubles keep every fold exact and order-insensitive
/// within a same-operator group.
void apply_task_body(std::span<const ReqSpec> reqs,
                     std::span<RegionData<double>*> buffers, LaunchID id,
                     std::uint64_t salt);

/// Stable hash of a materialized buffer (domain + value bit patterns);
/// the differential oracle compares these across engines.
std::uint64_t hash_region(const RegionData<double>& data);

} // namespace visrt::fuzz
