// visrt_fuzz: the differential fuzzing driver.
//
//   visrt_fuzz [--seed N] [--runs N] [--time-budget SECONDS]
//              [--corpus-dir DIR] [--metrics-json FILE] [--stream]
//              [--replay FILE ...]
//
// Each run derives its own seed (base seed + run index), generates a random
// program — random forest, partitions (disjoint/aliased, complete/
// incomplete, nested, image/preimage), fields, individual and index
// launches, traces, random subject engine/DCR/tracing/tuning — and checks
// it differentially against the sequential reference engine (values,
// dependence soundness and precision, DES schedule, crashes).  Failures
// are minimized with the delta-debugging shrinker and appended to the
// corpus directory as .visprog repros; --replay re-checks saved repros.
//
// --stream additionally replays each generated program through the
// streaming ingest path (serve::StreamSession fed in random-sized byte
// chunks, with randomized retirement interval / residency cap / history
// depth) and cross-checks every fingerprint — dependence-graph, schedule,
// per-launch value fold, final field values — against the batch oracle.
//
// Exits 0 when every run passed, 1 when any failed, 2 on usage errors.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/serialize.h"
#include "fuzz/shrink.h"
#include "serve/session.h"

using namespace visrt;
using namespace visrt::fuzz;

namespace {

struct CliOptions {
  std::uint64_t seed = 1;
  std::size_t runs = 100;
  double time_budget_s = 0; // 0 = unlimited
  std::string corpus_dir;
  std::string metrics_json;
  std::vector<std::string> replay_files;
  /// Force every generated program onto the paint engine with its
  /// synthetic test-only bug enabled — a self-test that the whole loop
  /// (detect, shrink, save, replay) works end to end.
  bool inject_paint_bug = false;
  /// Cross-check streaming ingest (serve::StreamSession) against the
  /// batch oracle for every generated program.
  bool stream = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: visrt_fuzz [--seed N] [--runs N] "
               "[--time-budget SECONDS]\n"
               "                  [--corpus-dir DIR] [--metrics-json FILE]\n"
               "                  [--stream] [--replay FILE ...]\n");
  return 2;
}

bool parse_args(int argc, char** argv, CliOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "visrt_fuzz: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = value("--seed");
      if (!v) return false;
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--runs") {
      const char* v = value("--runs");
      if (!v) return false;
      opts.runs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--time-budget") {
      const char* v = value("--time-budget");
      if (!v) return false;
      opts.time_budget_s = std::strtod(v, nullptr);
    } else if (arg == "--corpus-dir") {
      const char* v = value("--corpus-dir");
      if (!v) return false;
      opts.corpus_dir = v;
    } else if (arg == "--metrics-json") {
      const char* v = value("--metrics-json");
      if (!v) return false;
      opts.metrics_json = v;
    } else if (arg == "--inject-paint-bug") {
      opts.inject_paint_bug = true;
    } else if (arg == "--stream") {
      opts.stream = true;
    } else if (arg == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-')
        opts.replay_files.push_back(argv[++i]);
      if (opts.replay_files.empty()) {
        std::fprintf(stderr, "visrt_fuzz: --replay needs files\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "visrt_fuzz: unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Append a minimized repro to the corpus; the header comments make the
/// file self-describing.
void save_repro(const std::string& dir, std::uint64_t seed,
                const DiffReport& report, const ShrinkResult& shrunk) {
  std::filesystem::create_directories(dir);
  std::string name = "repro-seed" + std::to_string(seed) + "-" +
                     failure_kind_name(report.kind) + ".visprog";
  std::filesystem::path path = std::filesystem::path(dir) / name;
  std::ofstream os(path);
  os << "# visrt_fuzz minimized repro\n"
     << "# seed: " << seed << "\n"
     << "# failure: " << failure_kind_name(report.kind) << "\n"
     << "# detail: " << report.detail << "\n"
     << "# shrink: " << shrunk.accepted << " reductions in "
     << shrunk.attempts << " attempts\n";
  write_visprog(os, shrunk.spec);
  std::printf("  repro saved to %s\n", path.string().c_str());
}

/// Differential check of the streaming ingest path: serialize the spec,
/// feed it through a serve::StreamSession in random-sized byte chunks
/// under aggressive randomized memory bounding, and compare every
/// fingerprint against the batch oracle.  The session runs with inline
/// verification on (SessionOptions::verify), so an unsound or imprecise
/// dependence graph is caught by the stream itself, reference-free — even
/// when the batch subject shares the same bug.  Returns "" on success.
std::string stream_check(const ProgramSpec& spec, std::uint64_t run_seed) {
  RunResult batch = run_program(spec);
  if (batch.crashed) return ""; // the batch check reports crashes itself

  std::ostringstream text;
  write_visprog(text, spec);
  const std::string prog = text.str();

  Rng rng(run_seed ^ 0x5eedf00dULL);
  static constexpr std::size_t kIntervals[] = {1, 2, 3, 5, 8, 16, 64};
  serve::SessionOptions so;
  so.retire_every = kIntervals[rng.below(std::size(kIntervals))];
  so.max_resident_launches =
      rng.chance(0.5) ? 0 : kIntervals[rng.below(std::size(kIntervals))];
  so.max_history_depth = static_cast<std::size_t>(rng.below(5)); // 0..4
  so.verify = true;
  std::vector<std::string> errors;
  so.on_error = [&errors](const std::string& e) { errors.push_back(e); };
  const std::size_t retire_every = so.retire_every;
  const std::size_t history_depth = so.max_history_depth;

  serve::StreamSession session(std::move(so));
  try {
    ScopedCheckThrows guard; // invariant trips become catchable
    std::size_t off = 0;
    while (off < prog.size()) {
      std::size_t n = std::min<std::size_t>(prog.size() - off,
                                            1 + rng.below(96));
      session.feed(std::string_view(prog).substr(off, n));
      off += n;
    }
    session.finish();
  } catch (const std::exception& e) {
    return std::string("stream session crashed: ") + e.what();
  }
  for (const std::string& e : errors)
    if (e.rfind("verify: ", 0) != 0)
      return "stream session rejected a statement: " + e;

  const serve::SessionResult& r = session.result();
  if (r.verify.has_value() && !(r.verify->sound() && r.verify->precise())) {
    std::string msg = "stream verification: " + r.verify->summary();
    if (!r.verify->violations.empty())
      msg += " — " + r.verify->violations.front().detail;
    return msg + " retire_every=" + std::to_string(retire_every);
  }
  auto mismatch = [&](const char* what) {
    return std::string("stream/batch divergence (") + what +
           ") retire_every=" + std::to_string(retire_every) +
           " history_depth=" + std::to_string(history_depth);
  };
  if (r.launches != batch.launch_hashes.size())
    return mismatch("launches") + " stream=" + std::to_string(r.launches) +
           " batch=" + std::to_string(batch.launch_hashes.size());
  if (r.dep_edges != batch.dep_edges) return mismatch("dep_edges");
  if (r.dep_graph_hash != batch.dep_graph_hash)
    return mismatch("dep_graph_hash");
  if (r.schedule_hash != batch.schedule_hash) return mismatch("schedule_hash");
  if (r.value_hash != fnv1a_all(batch.launch_hashes))
    return mismatch("value_hash");
  if (r.final_hashes != batch.final_hashes) return mismatch("final_hashes");
  return "";
}

int replay_mode(const CliOptions& opts) {
  int failures = 0;
  for (const std::string& file : opts.replay_files) {
    std::ifstream is(file);
    if (!is) {
      std::fprintf(stderr, "visrt_fuzz: cannot open %s\n", file.c_str());
      return 2;
    }
    ProgramSpec spec;
    try {
      spec = read_visprog(is);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "visrt_fuzz: %s: %s\n", file.c_str(), e.what());
      return 2;
    }
    DiffReport report = check_program(spec);
    if (report) {
      ++failures;
      std::printf("%s: FAIL (%s) %s\n", file.c_str(),
                  failure_kind_name(report.kind), report.detail.c_str());
    } else {
      std::printf("%s: ok (%s)\n", file.c_str(),
                  algorithm_name(spec.subject));
    }
  }
  return failures ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!parse_args(argc, argv, opts)) return usage();
  if (!opts.replay_files.empty()) return replay_mode(opts);

  auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::size_t executed = 0, failures = 0, total_launches = 0;
  std::map<std::string, std::size_t> failures_by_kind;
  for (std::size_t run = 0; run < opts.runs; ++run) {
    if (opts.time_budget_s > 0 && elapsed_s() >= opts.time_budget_s) {
      std::printf("time budget reached after %zu runs\n", executed);
      break;
    }
    std::uint64_t run_seed = opts.seed + run;
    Rng rng(run_seed);
    ProgramSpec spec = generate_program(rng);
    if (opts.inject_paint_bug) {
      spec.subject = Algorithm::Paint;
      spec.tuning.inject_paint_reduce_bug = true;
    }
    total_launches += expand_stream(spec).size();
    DiffReport report = check_program(spec);
    ++executed;
    // The stream check runs regardless of the batch verdict: its inline
    // verification is reference-free, so it must catch an engine bug even
    // when the differential oracle already has (or, with the oracle out of
    // the picture, would be the only detector).
    if (opts.stream) {
      std::string diverged = stream_check(spec, run_seed);
      if (!diverged.empty()) {
        ++failures;
        ++failures_by_kind["stream"];
        std::printf("seed %llu: FAIL (stream) subject=%s: %s\n",
                    static_cast<unsigned long long>(run_seed),
                    algorithm_name(spec.subject), diverged.c_str());
        continue; // the shrinker minimizes batch oracles, not stream runs
      }
    }
    if (!report) continue;

    ++failures;
    ++failures_by_kind[failure_kind_name(report.kind)];
    std::printf("seed %llu: FAIL (%s) subject=%s: %s\n",
                static_cast<unsigned long long>(run_seed),
                failure_kind_name(report.kind),
                algorithm_name(spec.subject), report.detail.c_str());
    ShrinkResult shrunk = shrink_program(spec, report);
    std::printf("  minimized to %zu stream items / %zu launches\n",
                shrunk.spec.stream.size(),
                expand_stream(shrunk.spec).size());
    if (!opts.corpus_dir.empty())
      save_repro(opts.corpus_dir, run_seed, report, shrunk);
  }

  double elapsed = elapsed_s();
  std::printf("%zu runs, %zu launches, %zu failures (%.2fs)\n", executed,
              total_launches, failures, elapsed);

  if (!opts.metrics_json.empty()) {
    std::ofstream os(opts.metrics_json);
    os << "{\n"
       << "  \"seed\": " << opts.seed << ",\n"
       << "  \"runs\": " << executed << ",\n"
       << "  \"launches\": " << total_launches << ",\n"
       << "  \"failures\": " << failures << ",\n"
       << "  \"elapsed_s\": " << elapsed << ",\n"
       << "  \"failures_by_kind\": {";
    bool first = true;
    for (const auto& [kind, count] : failures_by_kind) {
      os << (first ? "" : ",") << "\n    \"" << kind << "\": " << count;
      first = false;
    }
    os << (failures_by_kind.empty() ? "" : "\n  ") << "}\n}\n";
  }
  return failures ? 1 : 0;
}
