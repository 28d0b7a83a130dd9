// Lifecycle-ledger and provenance tests (docs/OBSERVABILITY.md §schema v2).
//
// The ledger's engine-level claims:
//   - Warnock only ever refines: its live eq-set count grows monotonically
//     and it never emits a Coalesce event.
//   - Ray casting coalesces: a write that dominates every live set strictly
//     reduces the live-set count.
// The ledgers' byte-level output is pinned by analysis_golden_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/serialize.h"
#include "obs/lifecycle.h"
#include "runtime/runtime.h"
#include "sim/message_ledger.h"
#include "visibility/dep_graph.h"

#ifndef VISRT_CORPUS_DIR
#error "VISRT_CORPUS_DIR must point at tests/corpus"
#endif

namespace visrt::fuzz {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(VISRT_CORPUS_DIR))
    if (entry.path().extension() == ".visprog") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

ProgramSpec load(const std::filesystem::path& path) {
  std::ifstream is(path);
  return read_visprog(is);
}

LiveRun run_live(ProgramSpec spec, Algorithm subject) {
  LiveRunOptions options;
  options.provenance = true;
  options.subject = subject;
  return run_program_live(spec, options);
}

/// Four disjoint sub-block writes (forcing per-piece eq-sets) followed by
/// one read-write over the whole root: a dominating write.
ProgramSpec dominating_write_spec() {
  ProgramSpec spec;
  spec.num_nodes = 4;
  spec.trees.push_back(TreeSpec{"t", 64});
  PartitionSpec part;
  part.name = "p";
  part.parent = 0;
  for (coord_t c = 0; c < 4; ++c)
    part.subspaces.push_back(IntervalSet(16 * c, 16 * c + 15));
  spec.partitions.push_back(part);
  spec.fields.push_back(FieldSpec{"f", 0, 11});
  for (std::uint32_t c = 0; c < 4; ++c) {
    StreamItem item;
    item.task.requirements.push_back(
        ReqSpec{1 + c, 0, Privilege::read_write()});
    item.task.mapped_node = c;
    spec.stream.push_back(item);
  }
  StreamItem root;
  root.task.requirements.push_back(ReqSpec{0, 0, Privilege::read_write()});
  spec.stream.push_back(root);
  return spec;
}

TEST(Lifecycle, WarnockLiveSetCountGrowsMonotonically) {
  for (const std::filesystem::path& path : corpus_files()) {
    LiveRun live = run_live(load(path), Algorithm::Warnock);
    ASSERT_NE(live.runtime, nullptr)
        << path.filename() << ": " << live.result.crash_message;
    const obs::LifecycleLedger& ledger = live.runtime->lifecycle();
    EXPECT_GT(ledger.event_count(), 0u) << path.filename();
    for (FieldID field : ledger.fields()) {
      obs::LifecycleSummary s = ledger.summary(field);
      EXPECT_EQ(s.coalesces, 0u)
          << path.filename() << " field " << field
          << ": warnock never coalesces";
      EXPECT_GT(s.creates, 0u) << path.filename() << " field " << field;
      std::uint64_t prev = 0;
      for (const obs::LifecycleEvent& ev : ledger.events(field)) {
        EXPECT_GE(ev.live_after, prev)
            << path.filename() << " field " << field << " at launch "
            << static_cast<long long>(ev.launch);
        prev = ev.live_after;
      }
      EXPECT_EQ(s.peak_live, prev)
          << path.filename() << " field " << field
          << ": monotone growth peaks at the end";
    }
  }
}

TEST(Lifecycle, RayCastDominatingWriteStrictlyReducesLiveSets) {
  ProgramSpec spec = dominating_write_spec();
  const LaunchID dominating = 4; // the root read-write is the fifth launch
  LiveRun live = run_live(spec, Algorithm::RayCast);
  ASSERT_NE(live.runtime, nullptr) << live.result.crash_message;
  const obs::LifecycleLedger& ledger = live.runtime->lifecycle();
  std::vector<obs::LifecycleEvent> events = ledger.events(0);
  ASSERT_FALSE(events.empty());

  // Live count just before the dominating write's analysis.
  std::uint64_t before = 0;
  bool saw_dominating = false;
  std::uint64_t coalesce_prev = ~std::uint64_t{0};
  std::uint64_t min_during = ~std::uint64_t{0};
  std::uint64_t after = 0;
  std::size_t coalesces = 0;
  for (const obs::LifecycleEvent& ev : events) {
    if (ev.launch != dominating) {
      if (!saw_dominating) before = ev.live_after;
      continue;
    }
    saw_dominating = true;
    after = ev.live_after;
    min_during = std::min(min_during, ev.live_after);
    if (ev.kind == obs::LifecycleEventKind::Coalesce) {
      ++coalesces;
      // Each prune decrements the live count: strictly decreasing.
      EXPECT_LT(ev.live_after, coalesce_prev);
      coalesce_prev = ev.live_after;
    }
  }
  ASSERT_TRUE(saw_dominating) << "dominating write produced no events";
  EXPECT_GE(before, 2u) << "sub-block writes must split the root set";
  EXPECT_GE(coalesces, 2u) << "dominating write must prune the split sets";
  EXPECT_LT(min_during, before) << "coalescing must shrink the live set";
  EXPECT_LE(after, before);
  EXPECT_GT(ledger.summary(0).coalesces, 0u);
}

TEST(Lifecycle, ProvenanceRecordsAreSane) {
  constexpr Algorithm kSubjects[] = {Algorithm::Paint, Algorithm::Warnock,
                                     Algorithm::RayCast};
  for (const std::filesystem::path& path : corpus_files()) {
    ProgramSpec spec = load(path);
    for (Algorithm subject : kSubjects) {
      LiveRun live = run_live(spec, subject);
      ASSERT_NE(live.runtime, nullptr)
          << path.filename() << " on " << algorithm_name(subject) << ": "
          << live.result.crash_message;
      const Runtime& rt = *live.runtime;
      const DepGraph& deps = rt.dep_graph();
      std::string label =
          std::string(path.filename()) + " on " + algorithm_name(subject);
      EXPECT_GT(deps.provenance_count(), 0u) << label;
      EXPECT_LE(deps.provenance_count(), deps.edge_count()) << label;
      std::size_t annotated = 0;
      for (LaunchID to = 0; to < deps.task_count(); ++to) {
        for (LaunchID from : deps.preds(to)) {
          const obs::EdgeProvenance* p = deps.provenance(from, to);
          if (p == nullptr) continue; // replayed trace edges carry none
          ++annotated;
          EXPECT_EQ(p->engine, static_cast<std::uint8_t>(subject)) << label;
          EXPECT_FALSE(describe_provenance(*p, rt.forest()).empty()) << label;
        }
      }
      EXPECT_GT(annotated, 0u) << label;
    }
  }
}

TEST(Lifecycle, ProvenanceOffByDefault) {
  // Without RuntimeConfig::provenance the ledgers stay empty and no edge
  // is annotated.
  ProgramSpec spec = dominating_write_spec();
  LiveRunOptions options;
  options.provenance = false;
  LiveRun live = run_program_live(spec, options);
  ASSERT_NE(live.runtime, nullptr) << live.result.crash_message;
  EXPECT_EQ(live.runtime->lifecycle().event_count(), 0u);
  EXPECT_FALSE(live.runtime->lifecycle().enabled());
  EXPECT_FALSE(live.runtime->message_ledger().enabled());
  EXPECT_EQ(live.runtime->dep_graph().provenance_count(), 0u);
}

} // namespace
} // namespace visrt::fuzz
