// visrt/fuzz/executor.h
//
// The one executor of the program IR: declares a spec's trees, partitions
// and fields on a Runtime, then applies validated stream items one at a
// time, running the shared deterministic task body (program.h) and
// folding every launch's materialized-value hash.  The batch oracle
// (oracle.h) drives it over a whole spec; serve::StreamSession drives it
// once per parsed statement.  Both paths make the same Runtime calls in
// the same order, which is what keeps their hashes bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/hash.h"
#include "fuzz/program.h"
#include "runtime/runtime.h"

namespace visrt::fuzz {

/// The Runtime configuration a spec asks for: subject engine, tuning, DCR,
/// tracing and machine size.  Callers add their own value, verification
/// and instrumentation settings.
RuntimeConfig runtime_config(const ProgramSpec& spec);

class Executor {
public:
  /// Validate the spec's declarations (validate_decls) and declare them on
  /// a new Runtime built from `config`.  The spec's stream is not read, and
  /// the spec need not outlive the executor.
  Executor(const ProgramSpec& spec, const RuntimeConfig& config);
  /// The runtime's task bodies call back into the executor.
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Apply one stream item that validate_item accepted.  Returns the
  /// materialized-value hash of each launch the item issued, in launch
  /// order (empty without value tracking); valid until the next call.
  std::span<const std::uint64_t> apply(const StreamItem& item);

  /// The trailing per-field observes: one observe() of every field's tree
  /// root, in field order, returning each result's hash_region.  Nothing
  /// is observed without value tracking.
  std::vector<std::uint64_t> observe_fields();

  /// Launches issued so far (the next LaunchID the stream will get).
  LaunchID launches() const { return next_launch_; }
  /// FNV fold (common/hash.h) of every launch's value hash, in launch
  /// order: fnv1a_all over the hashes apply() returned.
  std::uint64_t value_hash() const { return value_hash_; }

  Runtime& runtime() { return *runtime_; }
  /// Hand the runtime to the caller; the executor is spent afterwards.
  std::unique_ptr<Runtime> release_runtime() { return std::move(runtime_); }

private:
  void issued(LaunchID id);
  void body(TaskContext& ctx, std::span<const ReqSpec> reqs,
            std::uint64_t salt);

  std::unique_ptr<Runtime> runtime_;
  std::vector<RegionHandle> regions_;       ///< by region-table index
  std::vector<PartitionHandle> partitions_; ///< by partition-table index
  std::vector<std::uint32_t> bases_;   ///< region_table_base per partition
  std::vector<coord_t> volumes_;       ///< domain volume per region entry
  std::vector<RegionHandle> field_roots_; ///< tree root per field
  LaunchID next_launch_ = 0;
  std::uint64_t value_hash_ = kFnvOffsetBasis;
  std::vector<std::uint64_t> hashes_; ///< the current item's launch hashes
  std::vector<ReqSpec> point_reqs_;   ///< scratch: one index point's reqs
  std::vector<RegionData<double>*> buffers_; ///< scratch: body buffers
};

} // namespace visrt::fuzz
