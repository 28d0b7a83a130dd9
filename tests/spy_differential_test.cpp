// Differential test of the spy verifier (analysis/spy.h) against the
// O(n²) reference of tests/reference_spy.h, and of the streamed verifier
// against the batch one.
//
//   * Random hand-built graphs: a small forest with disjoint and aliased
//     partitions, several fields and random privileges (reductions with the
//     same and with different operators), edges taken from true
//     interference with some dropped, extra imprecise ones added and
//     transitive shortcuts kept.  Every count of verify() must equal the
//     reference's.
//   * 648 executed programs: the corpus under six engines with and without
//     DCR, and fuzz seeds 1-300 as generated and on Paint with the injected
//     paint bug.  verify(runtime) must count what the reference counts,
//     and an unretired StreamSession with verification on must report what
//     the batch verifier reports on every field but the schedule check,
//     record for record, witness included.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/spy.h"
#include "common/rng.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/serialize.h"
#include "reference_spy.h"
#include "serve/session.h"

#ifndef VISRT_CORPUS_DIR
#error "VISRT_CORPUS_DIR must point at tests/corpus"
#endif

namespace visrt::analysis {
namespace {

void expect_counts_match(const SpyReport& spy,
                         const reference::BaselineReport& ref,
                         const std::string& label) {
  EXPECT_EQ(spy.interfering_pairs, ref.interfering_pairs) << label;
  EXPECT_EQ(spy.unordered_pairs, ref.unordered_pairs) << label;
  EXPECT_EQ(spy.imprecise_edges, ref.imprecise_edges) << label;
  EXPECT_EQ(spy.transitive_edges, ref.transitive_edges) << label;
}

// --- random hand-built graphs ---------------------------------------------

/// Do two launches interfere?  The plain pairwise definition, used only to
/// draw edges; the oracle of this test is the reference's counts.
bool launches_interfere(const RegionTreeForest& forest, const LaunchRecord& a,
                        const LaunchRecord& b) {
  for (const Requirement& ra : a.requirements)
    for (const Requirement& rb : b.requirements)
      if (ra.field == rb.field && interferes(ra.privilege, rb.privilege) &&
          forest.domain(ra.region).overlaps(forest.domain(rb.region)))
        return true;
  return false;
}

struct HandBuilt {
  RegionTreeForest forest;
  std::vector<RegionHandle> regions;
  std::vector<LaunchRecord> launches;
  DepGraph deps;
};

/// A root over [0, 63], a disjoint partition into quarters, an aliased
/// partition of overlapping windows and a disjoint partition of the first
/// quarter; `n` launches of 1-3 requirements over `fields` fields.
void build_random(HandBuilt& hb, Rng& rng, std::size_t n, FieldID fields) {
  RegionHandle root = hb.forest.create_root(IntervalSet(0, 63), "root");
  hb.regions.push_back(root);
  PartitionHandle quarters = hb.forest.create_partition(
      root,
      {IntervalSet(0, 15), IntervalSet(16, 31), IntervalSet(32, 47),
       IntervalSet(48, 63)},
      "Q");
  PartitionHandle windows = hb.forest.create_partition(
      root,
      {IntervalSet(0, 23), IntervalSet(16, 39), IntervalSet(32, 55),
       IntervalSet(40, 63).unite(IntervalSet(0, 3))},
      "W");
  for (std::size_t c = 0; c < 4; ++c) {
    hb.regions.push_back(hb.forest.subregion(quarters, c));
    hb.regions.push_back(hb.forest.subregion(windows, c));
  }
  PartitionHandle halves = hb.forest.create_partition(
      hb.forest.subregion(quarters, 0), {IntervalSet(0, 7), IntervalSet(8, 15)},
      "H");
  hb.regions.push_back(hb.forest.subregion(halves, 0));
  hb.regions.push_back(hb.forest.subregion(halves, 1));

  const Privilege privileges[] = {Privilege::read(), Privilege::read_write(),
                                  Privilege::reduce(0), Privilege::reduce(1)};
  for (std::size_t id = 0; id < n; ++id) {
    LaunchRecord rec;
    const std::size_t reqs = 1 + rng.below(3);
    for (std::size_t r = 0; r < reqs; ++r)
      rec.requirements.push_back(
          Requirement{rng.pick(hb.regions),
                      static_cast<FieldID>(rng.below(fields)),
                      privileges[rng.below(4)]});
    hb.launches.push_back(std::move(rec));
  }
}

/// Edges from true interference, a share of them dropped, plus extra edges
/// between non-interfering launches.  Every launch's edges arrive right
/// after it, as the runtime emits them.
void add_random_edges(HandBuilt& hb, Rng& rng, double keep, double extra) {
  for (std::size_t b = 0; b < hb.launches.size(); ++b) {
    hb.deps.add_task(static_cast<LaunchID>(b));
    std::vector<LaunchID> preds;
    for (std::size_t a = 0; a < b; ++a) {
      const bool interfering =
          launches_interfere(hb.forest, hb.launches[a], hb.launches[b]);
      if (rng.chance(interfering ? keep : extra))
        preds.push_back(static_cast<LaunchID>(a));
    }
    hb.deps.add_edges(static_cast<LaunchID>(b), preds);
  }
}

TEST(SpyDifferential, HandBuiltGraphsMatchTheReference) {
  std::size_t unordered = 0, imprecise = 0, transitive = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    HandBuilt hb;
    const std::size_t n = 50 + rng.below(251);
    build_random(hb, rng, n, static_cast<FieldID>(2 + seed % 2));
    add_random_edges(hb, rng, /*keep=*/0.55 + 0.45 * rng.uniform(),
                     /*extra=*/0.03 * rng.uniform());

    const std::string label = "seed " + std::to_string(seed);
    SpyReport spy = verify(hb.forest, hb.deps, hb.launches);
    reference::BaselineReport ref =
        reference::baseline_verify(hb.forest, hb.deps, hb.launches);
    EXPECT_EQ(spy.launches, n) << label;
    EXPECT_EQ(spy.dep_edges, hb.deps.edge_count()) << label;
    expect_counts_match(spy, ref, label);
    unordered += spy.unordered_pairs;
    imprecise += spy.imprecise_edges;
    transitive += spy.transitive_edges;
  }
  // The drawn graphs exercise every count.
  EXPECT_GT(unordered, 0u);
  EXPECT_GT(imprecise, 0u);
  EXPECT_GT(transitive, 0u);
}

// --- executed programs ----------------------------------------------------

struct Program {
  std::string label;
  fuzz::ProgramSpec spec;
};

std::vector<Program> parity_programs() {
  std::vector<Program> programs;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(VISRT_CORPUS_DIR))
    if (entry.path().extension() == ".visprog") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  static constexpr Algorithm kSubjects[] = {
      Algorithm::Paint,        Algorithm::Warnock,
      Algorithm::RayCast,      Algorithm::NaivePaint,
      Algorithm::NaiveWarnock, Algorithm::NaiveRayCast,
  };
  for (const std::filesystem::path& path : files) {
    std::ifstream is(path);
    fuzz::ProgramSpec spec = fuzz::read_visprog(is);
    for (Algorithm subject : kSubjects) {
      for (bool dcr : {false, true}) {
        spec.subject = subject;
        spec.dcr = dcr;
        programs.push_back({path.filename().string() + " on " +
                                algorithm_name(subject) + (dcr ? "+dcr" : ""),
                            spec});
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    fuzz::ProgramSpec spec = fuzz::generate_program(rng);
    programs.push_back({"seed " + std::to_string(seed), spec});
    spec.subject = Algorithm::Paint;
    spec.tuning.inject_paint_reduce_bug = true;
    programs.push_back({"seed " + std::to_string(seed) + " paint bug", spec});
  }
  return programs;
}

/// The streamed report equals the batch one on every field but the
/// schedule check, which only the batch verifier runs.
void expect_stream_matches_batch(const SpyReport& batch,
                                 const SpyReport& stream,
                                 const std::string& label) {
  EXPECT_EQ(stream.launches, batch.launches) << label;
  EXPECT_EQ(stream.dep_edges, batch.dep_edges) << label;
  EXPECT_EQ(stream.interfering_pairs, batch.interfering_pairs) << label;
  EXPECT_EQ(stream.unordered_pairs, batch.unordered_pairs) << label;
  EXPECT_EQ(stream.imprecise_edges, batch.imprecise_edges) << label;
  EXPECT_EQ(stream.transitive_edges, batch.transitive_edges) << label;
  EXPECT_EQ(stream.schedule_overlaps, 0u) << label;
  EXPECT_EQ(stream.order_chains, batch.order_chains) << label;
  EXPECT_EQ(stream.order_relabels, batch.order_relabels) << label;

  std::vector<SpyViolation> records;
  for (const SpyViolation& v : batch.violations)
    if (v.kind != SpyViolationKind::ScheduleOverlap) records.push_back(v);
  ASSERT_EQ(stream.violations.size(), records.size()) << label;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(stream.violations[i].kind, records[i].kind) << label;
    EXPECT_EQ(stream.violations[i].earlier, records[i].earlier) << label;
    EXPECT_EQ(stream.violations[i].later, records[i].later) << label;
    EXPECT_EQ(stream.violations[i].detail, records[i].detail) << label;
  }
}

TEST(SpyDifferential, ExecutedProgramsMatchTheReferenceAndTheStream) {
  const std::vector<Program> programs = parity_programs();
  ASSERT_EQ(programs.size(), 648u);
  std::size_t verified = 0, unsound = 0;
  for (const Program& p : programs) {
    fuzz::LiveRunOptions opts;
    opts.provenance = false;
    fuzz::LiveRun live = fuzz::run_program_live(p.spec, opts);
    if (live.runtime == nullptr) continue; // the fuzz oracle's business
    const Runtime& rt = *live.runtime;
    SpyReport batch = verify(rt);
    expect_counts_match(
        batch,
        reference::baseline_verify(rt.forest(), rt.dep_graph(),
                                   rt.launch_log()),
        p.label);

    serve::SessionOptions so;
    so.retire_every = 0;
    so.max_resident_launches = 0;
    so.verify = true;
    serve::StreamSession session(so);
    session.feed(fuzz::to_visprog(p.spec));
    session.finish();
    ASSERT_TRUE(session.result().verify.has_value()) << p.label;
    expect_stream_matches_batch(batch, *session.result().verify, p.label);
    ++verified;
    if (batch.unordered_pairs > 0) ++unsound;
  }
  // Every program runs, and the paint bug makes a share of them unsound.
  EXPECT_EQ(verified, programs.size());
  EXPECT_GT(unsound, 0u);
}

} // namespace
} // namespace visrt::analysis
