// Pinned analysis outputs: every corpus program through all six subject
// engines, with and without DCR, must reproduce the dependence-graph,
// schedule, edge-count, traced-launch, per-launch value and final value
// fingerprints recorded in tests/corpus/analysis_outputs.golden — plus,
// for the first corpus program under DCR, digests of each engine's
// provenance, lifecycle and message ledgers, and for each paper system in
// Figure 13's exact configuration at 256 nodes, its launch, edge and
// message counts and simulated init and total times.  The golden file is
// a check across commits: a refactor of the analysis stack must leave
// every line untouched.
//
// On a mismatch the test writes the full actual output to
// analysis_outputs.golden.actual in its working directory; after an
// intended change, review the diff and copy that file over the golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "app_benches.h"
#include "common/hash.h"
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

constexpr Algorithm kSubjects[] = {
    Algorithm::Paint,        Algorithm::Warnock,
    Algorithm::RayCast,      Algorithm::NaivePaint,
    Algorithm::NaiveWarnock, Algorithm::NaiveRayCast,
};

constexpr std::string_view kLedgerPrefix = "ledgers ";
constexpr std::string_view kFig13Prefix = "fig13 ";

std::filesystem::path golden_path() {
  return std::filesystem::path(VISRT_CORPUS_DIR) / "analysis_outputs.golden";
}

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

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// FNV-1a over the bytes of a string.
std::uint64_t digest(std::string_view bytes) {
  std::uint64_t h = kFnvOffsetBasis;
  for (unsigned char c : bytes) h = fnv1a_u64(h, c);
  return h;
}

/// "<count>:<digest>" of a hash vector.
std::string digest(const std::vector<std::uint64_t>& values) {
  return std::to_string(values.size()) + ":" + hex(fnv1a_all(values));
}

/// Every dependence edge with its provenance record, in canonical
/// (to, from) order.
std::string provenance_ledger(const Runtime& rt) {
  std::ostringstream os;
  const DepGraph& g = rt.dep_graph();
  for (LaunchID to = g.base(); to < g.task_count(); ++to) {
    for (LaunchID from : g.preds(to)) {
      os << from << "->" << to;
      if (const obs::EdgeProvenance* p = g.provenance(from, to)) {
        os << " engine=" << static_cast<unsigned>(p->engine)
           << " phase=" << static_cast<unsigned>(p->phase)
           << " region=" << p->region << " eqset=" << p->eqset
           << " field=" << p->field << " prev=" << to_string(p->prev)
           << " cur=" << to_string(p->cur);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string label(const std::filesystem::path& path, Algorithm subject,
                  bool dcr) {
  return path.filename().string() + " " + algorithm_name(subject) +
         " dcr=" + (dcr ? "1" : "0");
}

/// The result-hash lines: one per corpus program x engine x DCR setting.
std::vector<std::string> result_lines() {
  std::vector<std::string> lines;
  for (const std::filesystem::path& path : corpus_files()) {
    const ProgramSpec spec = load(path);
    for (Algorithm subject : kSubjects) {
      for (bool dcr : {false, true}) {
        ProgramSpec variant = spec;
        variant.subject = subject;
        variant.dcr = dcr;
        const RunResult r = run_program(variant);
        std::ostringstream os;
        os << label(path, subject, dcr);
        if (r.crashed) {
          os << " crashed";
        } else {
          os << " dep_graph_hash=" << hex(r.dep_graph_hash)
             << " schedule_hash=" << hex(r.schedule_hash)
             << " dep_edges=" << r.dep_edges
             << " traced_launches=" << r.traced_launches
             << " launch_hashes=" << digest(r.launch_hashes)
             << " final_hashes=" << digest(r.final_hashes);
        }
        lines.push_back(os.str());
      }
    }
  }
  return lines;
}

/// The ledger lines: the first corpus program under DCR, one per engine.
std::vector<std::string> ledger_lines() {
  std::vector<std::string> lines;
  const std::filesystem::path path = corpus_files().front();
  ProgramSpec spec = load(path);
  spec.dcr = true;
  for (Algorithm subject : kSubjects) {
    ProgramSpec variant = spec;
    variant.subject = subject;
    LiveRun run = run_program_live(variant);
    std::ostringstream os;
    os << kLedgerPrefix << label(path, subject, true);
    if (run.runtime == nullptr) {
      os << " crashed";
    } else {
      os << " provenance=" << hex(digest(provenance_ledger(*run.runtime)))
         << " lifecycle=" << hex(digest(run.runtime->lifecycle().json()))
         << " messages=" << hex(digest(run.runtime->message_ledger().json()));
    }
    lines.push_back(os.str());
  }
  return lines;
}

/// The fig13 lines: Figure 13's configuration (bench/app_benches.h's
/// run_circuit) at 256 nodes, one per paper system, times at full
/// precision.
std::vector<std::string> fig13_lines() {
  std::vector<std::string> lines;
  for (const bench::SystemConfig& sys : bench::paper_systems()) {
    const RunStats st = bench::run_circuit(sys, 256).stats;
    std::ostringstream os;
    os << std::setprecision(17) << kFig13Prefix << sys.label
       << " nodes=256 launches=" << st.launches
       << " dep_edges=" << st.dep_edges << " messages=" << st.messages
       << " init_time_s=" << st.init_time_s
       << " total_time_s=" << st.total_time_s;
    lines.push_back(os.str());
  }
  return lines;
}

/// A golden line's section: its prefix, or "" for a result line.
std::string_view section_of(std::string_view line) {
  for (std::string_view prefix : {kLedgerPrefix, kFig13Prefix})
    if (line.starts_with(prefix)) return prefix;
  return {};
}

std::vector<std::string> golden_lines(std::string_view section) {
  std::vector<std::string> lines;
  std::ifstream is(golden_path());
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line.front() == '#') continue;
    if (section_of(line) == section) lines.push_back(line);
  }
  return lines;
}

/// Compare line by line; on any mismatch dump the complete actual output
/// (all three sections) for regeneration.
void expect_matches_golden(const std::vector<std::string>& actual,
                           std::string_view section) {
  const std::vector<std::string> expected = golden_lines(section);
  EXPECT_EQ(actual.size(), expected.size()) << "golden: " << golden_path();
  bool same = actual.size() == expected.size();
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_EQ(actual[i], expected[i]);
    same = same && actual[i] == expected[i];
  }
  if (same) return;
  std::ofstream os("analysis_outputs.golden.actual");
  for (const std::string& line : result_lines()) os << line << "\n";
  for (const std::string& line : ledger_lines()) os << line << "\n";
  for (const std::string& line : fig13_lines()) os << line << "\n";
  ADD_FAILURE() << "actual output written to "
                << std::filesystem::absolute("analysis_outputs.golden.actual");
}

TEST(AnalysisGolden, ResultHashesMatchThePinnedGolden) {
  expect_matches_golden(result_lines(), "");
}

TEST(AnalysisGolden, LedgerDigestsMatchThePinnedGolden) {
  expect_matches_golden(ledger_lines(), kLedgerPrefix);
}

TEST(AnalysisGolden, Fig13StructureMatchesThePinnedGolden) {
  expect_matches_golden(fig13_lines(), kFig13Prefix);
}

} // namespace
} // namespace visrt::fuzz
