// visrt_cli: run any benchmark application under any configuration from
// the command line and print the run statistics — a one-stop driver for
// poking at the system.
//
// Usage:
//   visrt_cli <app> <algorithm> [options]
//     app        stencil | circuit | pennant
//     algorithm  paint | warnock | raycast | naive-paint | naive-warnock |
//                naive-raycast | reference
//   options:
//     --nodes N        simulated machine size (default 4)
//     --pieces N       pieces (default = nodes; apps round to their grid)
//     --iters N        iterations (default 5)
//     --dcr            enable dynamic control replication
//     --trace          enable the tracing extension
//     --no-values      analysis-only mode (skip kernels and validation)
//     --size N         per-piece problem scale (default app-specific)
//     --verify         spy-verify the emitted dependence graph and DES
//                      schedule after the run (docs/ANALYSIS.md); the
//                      process exits nonzero on any violation
//     --trace-out F    write a chrome://tracing / Perfetto JSON timeline
//                      (with counter tracks + flow arrows) to file F
//                      (--chrome-trace is an alias)
//     --metrics-json F write the run's JSON metrics (schema in
//                      docs/OBSERVABILITY.md) to file F
//
//   visrt_cli verify <file-or-dir>... [options]
//     Static verification of .visprog programs: lints each program, then
//     executes it under every engine (or one, with --engine) with and
//     without DCR and spy-verifies the emitted dependence graph against
//     ground truth recomputed from geometry and privileges.  Exits
//     nonzero on any lint error, soundness or precision violation.
//     --engine NAME    verify one engine instead of all six
//     --json F         write a machine-readable report to file F
//
//   visrt_cli explain <prog.visprog> --edge A,B [options]
//     Why does (or doesn't) the dependence edge A -> B exist?  Runs the
//     program with provenance recording and prints the causal chain —
//     which engine phase emitted the edge, through which equivalence set,
//     on which region-tree node, with which privilege pair — or, when
//     there is no edge, the recomputed interference verdict explaining
//     why.  Runs every engine and flags disagreements.
//     --engine NAME    explain one engine only (default: all, with the
//                      spec's subject engine reported in detail)
//
//   visrt_cli inspect <prog.visprog> [options]
//     Equivalence-set lifecycle introspection: per-field population /
//     refinement-depth / coalesce time-series on the launch clock, plus
//     the per-node message ledger (root fan-in).
//     --engine NAME    engine override (default: the spec's subject)
//     --metrics-json F deterministic schema-v2 metrics (launch-clock
//                      quantities only; no host state)
//     --trace-out F    Perfetto timeline with lifecycle counter tracks
//
//   visrt_cli profile <app|prog.visprog> [options]
//     Phase profile (docs/OBSERVABILITY.md): run the target once with the
//     analysis profiler on and print where the analysis wall time goes —
//     one row per phase label (events, seconds, share of the wall), the
//     unattributed remainder and the coverage.  Apps default to the fig13
//     weak-scaling shape (circuit: 200 nodes and 300 wires per piece).
//     --engine NAME        engine (default raycast; programs: the spec's
//                          subject)
//     --dcr                enable DCR (apps only)
//     --nodes N            simulated machine size (default 16)
//     --iters N            iterations (default 5)
//     --size N             per-piece problem scale (default app-specific)
//     --json F             machine-readable report (schema v1)
//
//   visrt_cli serve (--socket PATH | --stdin) [options]
//     Streaming analysis daemon (docs/SERVING.md): accepts `.visprog` IR
//     as a line-oriented stream over a local AF_UNIX socket (one session
//     per connection, concurrent sessions multiplexed) or on stdin, runs
//     dependence analysis incrementally per arriving launch, and retires
//     completed dependence-graph prefixes so memory stays bounded over
//     unbounded streams.  `@metrics` on any connection returns a one-line
//     schema-v2 metrics JSON with a "serve" section; `@end` (or EOF)
//     finishes the session and returns its result hashes.  SIGTERM/SIGINT
//     drain gracefully: in-flight sessions finish and reply.
//     --engine NAME              engine override (default: each stream's
//                                configured subject)
//     --retire-interval N        retire every N ingested launches
//                                (default 1024; 0 = only when forced)
//     --max-resident-launches N  residency cap forcing retirement
//                                (default 8192; 0 = uncapped)
//     --max-history-depth N      per-eq-set history depth before value
//                                payloads collapse into a composite view
//                                (default 64; 0 = never)
//     --no-values                analysis-only ingest (skip task bodies)
//     --metrics-json F           write the final metrics line to file F
//                                at shutdown
//
//   Global: --log-json switches stderr logging to one JSON object per
//   line.
//
// Examples:
//   visrt_cli circuit warnock --nodes 64 --dcr --no-values
//   visrt_cli stencil raycast --trace --verify
//   visrt_cli verify tests/corpus --json verify.json
//   visrt_cli explain tests/corpus/figure5_stream.visprog --edge 0,3
//   visrt_cli inspect tests/corpus/figure5_stream.visprog --metrics-json m.json
//   visrt_cli profile circuit --dcr --nodes 256
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.h"
#include "analysis/spy.h"
#include "apps/circuit.h"
#include "apps/pennant.h"
#include "apps/stencil.h"
#include "common/log.h"
#include "fuzz/oracle.h"
#include "fuzz/serialize.h"
#include "obs/flight.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "serve/server.h"

using namespace visrt;

namespace {

std::optional<Algorithm> parse_algorithm(const std::string& name) {
  for (Algorithm a :
       {Algorithm::Paint, Algorithm::Warnock, Algorithm::RayCast,
        Algorithm::NaivePaint, Algorithm::NaiveWarnock,
        Algorithm::NaiveRayCast, Algorithm::Reference}) {
    if (name == algorithm_name(a)) return a;
  }
  return std::nullopt;
}

struct Options {
  std::string app;
  Algorithm algorithm = Algorithm::RayCast;
  std::uint32_t nodes = 4;
  std::uint32_t pieces = 0; // 0: use nodes
  int iters = 5;
  bool dcr = false;
  bool trace = false;
  bool values = true;
  bool verify = false;
  coord_t size = 0; // 0: app default
  std::string chrome_trace; // empty: no timeline export
  std::string metrics_json; // empty: no metrics file
};

int usage() {
  std::fprintf(stderr,
               "usage: visrt_cli <stencil|circuit|pennant> <algorithm> "
               "[--nodes N] [--pieces N] [--iters N] [--dcr] [--trace] "
               "[--no-values] [--size N] [--verify] [--trace-out F] "
               "[--metrics-json F]\n"
               "       visrt_cli verify <file-or-dir>... [--engine NAME] "
               "[--json F] [--metrics-json F]\n"
               "       visrt_cli explain <prog.visprog> --edge A,B "
               "[--engine NAME]\n"
               "       visrt_cli inspect <prog.visprog> [--engine NAME] "
               "[--metrics-json F] [--trace-out F]\n"
               "       visrt_cli profile <app|prog.visprog> [--engine NAME] "
               "[--dcr] [--nodes N] [--iters N] [--size N] [--json F]\n"
               "       visrt_cli serve (--socket PATH | --stdin) "
               "[--engine NAME] [--retire-interval N] "
               "[--max-resident-launches N] [--max-history-depth N] "
               "[--no-values] [--verify] [--metrics-json F]\n"
               "       (any form accepts --log-json)\n");
  return 2;
}

// --- static verification (`visrt_cli verify`) ------------------------------

/// Print the retained violations of a spy report, indented.
void print_violations(const analysis::SpyReport& report) {
  for (const analysis::SpyViolation& v : report.violations)
    std::printf("    [%s] launches %u -> %u: %s\n",
                analysis::spy_violation_kind_name(v.kind),
                static_cast<unsigned>(v.earlier),
                static_cast<unsigned>(v.later), v.detail.c_str());
}

int run_verify(std::vector<std::string> args) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::optional<Algorithm> engine_filter;
  std::string json_path;
  std::string metrics_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--engine" && i + 1 < args.size()) {
      engine_filter = parse_algorithm(args[++i]);
      if (!engine_filter) {
        std::fprintf(stderr, "verify: unknown engine '%s'\n",
                     args[i].c_str());
        return 2;
      }
    } else if (args[i] == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (args[i] == "--metrics-json" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (fs::is_directory(args[i])) {
      for (const auto& entry : fs::directory_iterator(args[i]))
        if (entry.path().extension() == ".visprog")
          files.push_back(entry.path());
    } else if (fs::is_regular_file(args[i])) {
      files.push_back(args[i]);
    } else {
      std::fprintf(stderr, "verify: no such file or directory: %s\n",
                   args[i].c_str());
      return 2;
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "verify: no .visprog programs found\n");
    return 2;
  }
  std::sort(files.begin(), files.end());

  std::vector<Algorithm> engines;
  if (engine_filter) {
    engines.push_back(*engine_filter);
  } else {
    engines = {Algorithm::Paint,        Algorithm::Warnock,
               Algorithm::RayCast,      Algorithm::NaivePaint,
               Algorithm::NaiveWarnock, Algorithm::NaiveRayCast};
  }

  bool all_ok = true;
  // Aggregate verification-cost counters for --metrics-json.
  std::size_t total_runs = 0;
  std::size_t total_nodes = 0;
  std::size_t total_edges = 0;
  std::size_t total_interfering = 0;
  std::size_t total_transitive = 0;
  std::size_t total_relabels = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  std::ostringstream json;
  json << "{\"schema_version\":1,\"programs\":[";
  for (std::size_t f = 0; f < files.size(); ++f) {
    const fs::path& path = files[f];
    std::printf("== %s ==\n", path.c_str());
    json << (f ? "," : "") << "{\"file\":\"" << obs::json_escape(path.string())
         << "\"";

    fuzz::ProgramSpec spec;
    try {
      std::ifstream is(path);
      spec = fuzz::read_visprog(is);
    } catch (const std::exception& e) {
      std::printf("  parse error: %s\n", e.what());
      json << ",\"parse_error\":\"" << obs::json_escape(e.what()) << "\"}";
      all_ok = false;
      continue;
    }

    fuzz::BuiltForest built;
    fuzz::build_forest(spec, built);
    analysis::LintReport lint_report =
        analysis::lint(built.forest, fuzz::lint_events(spec, built));
    std::printf("  %s\n", lint_report.summary().c_str());
    for (const analysis::LintFinding& finding : lint_report.findings)
      std::printf("    [%s %s] %s\n", analysis::lint_rule_id(finding.rule),
                  finding.severity == analysis::LintSeverity::Error
                      ? "error"
                      : "warning",
                  finding.message.c_str());
    if (!lint_report.ok()) all_ok = false;
    json << ",\"lint\":" << lint_report.to_json() << ",\"runs\":[";

    bool first_run = true;
    for (Algorithm engine : engines) {
      for (bool dcr : {false, true}) {
        fuzz::ProgramSpec variant = spec;
        variant.subject = engine;
        variant.dcr = dcr;
        fuzz::SpyCheckResult result = fuzz::spy_check(variant);
        std::printf("  %-14s%s  ", algorithm_name(engine),
                    dcr ? "+dcr" : "    ");
        json << (first_run ? "" : ",") << "{\"engine\":\""
             << algorithm_name(engine) << "\",\"dcr\":" << (dcr ? 1 : 0);
        first_run = false;
        if (result.crashed) {
          std::printf("CRASH: %s\n", result.crash_message.c_str());
          json << ",\"crashed\":true,\"message\":\""
               << obs::json_escape(result.crash_message) << "\"}";
          all_ok = false;
          continue;
        }
        std::printf("%s\n", result.report.summary().c_str());
        print_violations(result.report);
        json << ",\"crashed\":false,\"report\":" << result.report.to_json()
             << "}";
        ++total_runs;
        total_nodes += result.report.launches;
        total_edges += result.report.dep_edges;
        total_interfering += result.report.interfering_pairs;
        total_transitive += result.report.transitive_edges;
        total_relabels += result.report.order_relabels;
        if (!result.report.clean()) all_ok = false;
      }
    }
    json << "]}";
  }
  json << "],\"ok\":" << (all_ok ? "true" : "false") << "}";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str() << "\n";
    if (out) std::printf("report written to %s\n", json_path.c_str());
  }
  if (!metrics_path.empty()) {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    std::ofstream out(metrics_path);
    out << "{\"schema_version\":" << obs::kMetricsSchemaVersion
        << ",\"binary\":\"visrt_cli\",\"verify\":{"
        << "\"programs\":" << files.size() << ",\"runs\":" << total_runs
        << ",\"nodes\":" << total_nodes << ",\"edges\":" << total_edges
        << ",\"interfering_pairs\":" << total_interfering
        << ",\"transitive_edges\":" << total_transitive
        << ",\"order_relabels\":" << total_relabels
        << ",\"ok\":" << (all_ok ? "true" : "false")
        << ",\"timing\":{\"wall_s\":" << obs::json_number(wall_s) << "}}}\n";
    if (out) std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  std::printf("verify: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}

// --- dependence provenance (`visrt_cli explain`) ---------------------------

void maybe_export_trace(const Runtime& rt, const std::string& path);

/// Load a .visprog spec; returns false (after printing) on failure.
bool load_spec(const std::string& path, fuzz::ProgramSpec& spec) {
  try {
    std::ifstream is(path);
    if (!is) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    spec = fuzz::read_visprog(is);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), e.what());
    return false;
  }
}

/// Render the provenance of the direct edge from -> to, or a placeholder.
std::string edge_provenance_line(const Runtime& rt, LaunchID from,
                                 LaunchID to) {
  if (const obs::EdgeProvenance* p = rt.dep_graph().provenance(from, to))
    return describe_provenance(*p, rt.forest());
  return "(no provenance recorded)";
}

/// Why do launches `a` and `b` not interfere?  Recomputed from the launch
/// log, requirement pair by requirement pair.
void print_no_interference(const Runtime& rt, LaunchID a, LaunchID b) {
  std::span<const LaunchRecord> log = rt.launch_log();
  if (a >= log.size() || b >= log.size()) {
    std::printf("  (launch log unavailable)\n");
    return;
  }
  bool shared_field = false;
  for (const Requirement& ra : log[a].requirements) {
    for (const Requirement& rb : log[b].requirements) {
      if (ra.field != rb.field) continue;
      shared_field = true;
      if (!interferes(ra.privilege, rb.privilege)) {
        std::printf("  field %u: %s vs %s do not interfere\n", ra.field,
                    to_string(ra.privilege).c_str(),
                    to_string(rb.privilege).c_str());
        continue;
      }
      const IntervalSet& da = rt.forest().domain(ra.region);
      const IntervalSet& db = rt.forest().domain(rb.region);
      if (!da.overlaps(db)) {
        std::printf("  field %u: domains %s and %s are disjoint\n", ra.field,
                    da.to_string().c_str(), db.to_string().c_str());
      }
    }
  }
  if (!shared_field)
    std::printf("  no requirement pair names the same field\n");
}

/// The verdict of one engine on the edge a -> b.
struct EdgeVerdict {
  bool ran = false;
  bool direct = false;
  bool reaches = false;
  std::string provenance; ///< of the direct edge, when present
};

/// Explain a -> b in detail against one live run (the primary engine).
void explain_in_detail(const Runtime& rt, LaunchID a, LaunchID b) {
  const DepGraph& deps = rt.dep_graph();
  if (deps.has_edge(a, b)) {
    std::printf("direct dependence edge %u -> %u:\n  %s\n",
                static_cast<unsigned>(a), static_cast<unsigned>(b),
                edge_provenance_line(rt, a, b).c_str());
    return;
  }
  if (deps.reaches(a, b)) {
    // Shortest causal chain a -> ... -> b: backward BFS over predecessors.
    std::vector<LaunchID> parent(deps.task_count(), kInvalidLaunch);
    std::vector<LaunchID> queue{b};
    std::vector<bool> seen(deps.task_count(), false);
    seen[b] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      LaunchID cur = queue[head];
      if (cur == a) break;
      for (LaunchID p : deps.preds(cur)) {
        if (seen[p]) continue;
        seen[p] = true;
        parent[p] = cur;
        queue.push_back(p);
      }
    }
    std::printf("no direct edge %u -> %u, but the pair is ordered "
                "transitively:\n",
                static_cast<unsigned>(a), static_cast<unsigned>(b));
    for (LaunchID cur = a; cur != b && cur != kInvalidLaunch;
         cur = parent[cur]) {
      LaunchID next = parent[cur];
      if (next == kInvalidLaunch) break;
      std::printf("  %u -> %u: %s\n", static_cast<unsigned>(cur),
                  static_cast<unsigned>(next),
                  edge_provenance_line(rt, cur, next).c_str());
    }
    return;
  }
  std::printf("no edge %u -> %u because the launches do not interfere:\n",
              static_cast<unsigned>(a), static_cast<unsigned>(b));
  print_no_interference(rt, a, b);
}

int run_explain(std::vector<std::string> args) {
  std::string prog;
  std::optional<Algorithm> engine_override;
  LaunchID edge_a = kInvalidLaunch, edge_b = kInvalidLaunch;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--edge" && i + 1 < args.size()) {
      unsigned a = 0, b = 0;
      if (std::sscanf(args[++i].c_str(), "%u,%u", &a, &b) != 2) {
        std::fprintf(stderr, "explain: --edge expects A,B (launch ids)\n");
        return 2;
      }
      edge_a = a;
      edge_b = b;
    } else if (args[i] == "--engine" && i + 1 < args.size()) {
      engine_override = parse_algorithm(args[++i]);
      if (!engine_override) {
        std::fprintf(stderr, "explain: unknown engine '%s'\n",
                     args[i].c_str());
        return 2;
      }
    } else if (prog.empty() && args[i][0] != '-') {
      prog = args[i];
    } else {
      return usage();
    }
  }
  if (prog.empty() || edge_a == kInvalidLaunch) return usage();

  fuzz::ProgramSpec spec;
  if (!load_spec(prog, spec)) return 2;

  std::vector<Algorithm> engines;
  if (engine_override) {
    engines.push_back(*engine_override);
  } else {
    engines = {Algorithm::Paint,        Algorithm::Warnock,
               Algorithm::RayCast,      Algorithm::NaivePaint,
               Algorithm::NaiveWarnock, Algorithm::NaiveRayCast};
  }
  Algorithm primary = engine_override.value_or(spec.subject);

  std::printf("== %s: edge %u -> %u ==\n", prog.c_str(),
              static_cast<unsigned>(edge_a), static_cast<unsigned>(edge_b));
  std::vector<EdgeVerdict> verdicts(engines.size());
  for (std::size_t e = 0; e < engines.size(); ++e) {
    fuzz::LiveRunOptions options;
    options.provenance = true;
    options.subject = engines[e];
    fuzz::LiveRun live = fuzz::run_program_live(spec, options);
    if (live.runtime == nullptr) {
      std::printf("%-14s crashed: %s\n", algorithm_name(engines[e]),
                  live.result.crash_message.c_str());
      continue;
    }
    const Runtime& rt = *live.runtime;
    EdgeVerdict& v = verdicts[e];
    v.ran = true;
    if (std::max(edge_a, edge_b) >= rt.dep_graph().task_count()) {
      std::fprintf(stderr,
                   "explain: launch %u out of range (program has %zu)\n",
                   static_cast<unsigned>(std::max(edge_a, edge_b)),
                   rt.dep_graph().task_count());
      return 2;
    }
    v.direct = rt.dep_graph().has_edge(edge_a, edge_b);
    v.reaches = rt.dep_graph().reaches(edge_a, edge_b);
    if (v.direct) v.provenance = edge_provenance_line(rt, edge_a, edge_b);
    if (engines[e] == primary) {
      std::printf("[%s]\n", algorithm_name(engines[e]));
      explain_in_detail(rt, edge_a, edge_b);
    }
  }

  // Cross-engine comparison: flag disagreement on the direct edge.
  bool any_direct = false, any_not = false;
  for (std::size_t e = 0; e < engines.size(); ++e) {
    if (!verdicts[e].ran) continue;
    (verdicts[e].direct ? any_direct : any_not) = true;
  }
  if (engines.size() > 1) {
    std::printf("\nengines %s:\n",
                any_direct && any_not ? "DISAGREE on the direct edge"
                                      : "agree");
    for (std::size_t e = 0; e < engines.size(); ++e) {
      if (!verdicts[e].ran) continue;
      const EdgeVerdict& v = verdicts[e];
      std::printf("  %-14s %s%s%s\n", algorithm_name(engines[e]),
                  v.direct    ? "direct edge"
                  : v.reaches ? "transitive order only"
                              : "no order",
                  v.provenance.empty() ? "" : ": ",
                  v.provenance.c_str());
    }
  }
  return 0;
}

// --- lifecycle introspection (`visrt_cli inspect`) -------------------------

/// Per-field (launch, live_after) population samples from the ledger.
std::vector<std::pair<LaunchID, std::uint64_t>>
population_series(const obs::LifecycleLedger& ledger, FieldID field) {
  std::vector<std::pair<LaunchID, std::uint64_t>> series;
  for (const obs::LifecycleEvent& ev : ledger.events(field)) {
    if (!series.empty() && series.back().first == ev.launch)
      series.back().second = ev.live_after;
    else
      series.emplace_back(ev.launch, ev.live_after);
  }
  return series;
}

int run_inspect(std::vector<std::string> args) {
  std::string prog, metrics_json, trace_out;
  std::optional<Algorithm> engine_override;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--engine" && i + 1 < args.size()) {
      engine_override = parse_algorithm(args[++i]);
      if (!engine_override) {
        std::fprintf(stderr, "inspect: unknown engine '%s'\n",
                     args[i].c_str());
        return 2;
      }
    } else if (args[i] == "--metrics-json" && i + 1 < args.size()) {
      metrics_json = args[++i];
    } else if ((args[i] == "--trace-out" || args[i] == "--chrome-trace") &&
               i + 1 < args.size()) {
      trace_out = args[++i];
    } else if (prog.empty() && args[i][0] != '-') {
      prog = args[i];
    } else {
      return usage();
    }
  }
  if (prog.empty()) return usage();

  fuzz::ProgramSpec spec;
  if (!load_spec(prog, spec)) return 2;

  fuzz::LiveRunOptions options;
  options.provenance = true;
  options.telemetry = !trace_out.empty();
  options.subject = engine_override;
  fuzz::LiveRun live = fuzz::run_program_live(spec, options);
  if (live.runtime == nullptr) {
    std::fprintf(stderr, "inspect: run crashed: %s\n",
                 live.result.crash_message.c_str());
    return 1;
  }
  Runtime& rt = *live.runtime;
  Algorithm engine = engine_override.value_or(spec.subject);
  const obs::LifecycleLedger& ledger = rt.lifecycle();

  std::printf("== %s on %s: %zu launches, %zu dependence edges, "
              "%zu with provenance ==\n",
              prog.c_str(), algorithm_name(engine),
              rt.dep_graph().task_count(), rt.dep_graph().edge_count(),
              rt.dep_graph().provenance_count());
  if (ledger.event_count() == 0)
    std::printf("(no lifecycle events)\n");

  for (FieldID field : ledger.fields()) {
    obs::LifecycleSummary s = ledger.summary(field);
    std::printf("field %u: %llu creates, %llu refines, %llu coalesces, "
                "%llu migrates; peak live %llu, max depth %u\n",
                field, static_cast<unsigned long long>(s.creates),
                static_cast<unsigned long long>(s.refines),
                static_cast<unsigned long long>(s.coalesces),
                static_cast<unsigned long long>(s.migrates),
                static_cast<unsigned long long>(s.peak_live), s.max_depth);
    std::vector<std::pair<LaunchID, std::uint64_t>> series =
        population_series(ledger, field);
    // Downsample to at most 16 points for the terminal.
    std::size_t stride = std::max<std::size_t>(1, series.size() / 16);
    std::printf("  live eq-sets over launches:");
    for (std::size_t i = 0; i < series.size(); i += stride) {
      if (series[i].first == kInvalidLaunch)
        std::printf(" init:%llu",
                    static_cast<unsigned long long>(series[i].second));
      else
        std::printf(" %u:%llu", static_cast<unsigned>(series[i].first),
                    static_cast<unsigned long long>(series[i].second));
    }
    if (series.size() > 1 && (series.size() - 1) % stride != 0)
      std::printf(" %u:%llu",
                  static_cast<unsigned>(series.back().first),
                  static_cast<unsigned long long>(series.back().second));
    std::printf("\n");
  }

  const sim::MessageLedger& messages = rt.message_ledger();
  std::vector<sim::NodeTraffic> traffic = messages.per_node();
  if (!traffic.empty()) {
    std::printf("message fan-in per node (kind totals: ");
    std::vector<std::uint64_t> kinds = messages.by_kind();
    for (std::size_t k = 0; k < kinds.size(); ++k)
      std::printf("%s%s=%llu", k ? ", " : "",
                  sim::message_kind_name(static_cast<sim::MessageKind>(k)),
                  static_cast<unsigned long long>(kinds[k]));
    std::printf("):\n");
    for (std::size_t n = 0; n < traffic.size(); ++n)
      std::printf("  node %zu: sent %llu (%llu B), recv %llu (%llu B)\n", n,
                  static_cast<unsigned long long>(traffic[n].sent),
                  static_cast<unsigned long long>(traffic[n].sent_bytes),
                  static_cast<unsigned long long>(traffic[n].recv),
                  static_cast<unsigned long long>(traffic[n].recv_bytes));
  }

  if (!trace_out.empty()) maybe_export_trace(rt, trace_out);

  if (!metrics_json.empty()) {
    // Deterministic schema-v2 run object: only launch-clock quantities, no
    // wall-clock or host state, so the file is byte-identical on every
    // host (CI compares it with tests/corpus/figure5_stream.inspect.json).
    std::string stem = std::filesystem::path(prog).stem().string();
    std::ostringstream run;
    run << "{\"name\":\"inspect/" << obs::json_escape(stem)
        << "\",\"app\":\"" << obs::json_escape(stem) << "\",\"algorithm\":\""
        << algorithm_name(engine) << "\",\"dcr\":"
        << (spec.dcr ? "true" : "false") << ",\"nodes\":" << spec.num_nodes
        << ",\"launches\":" << rt.dep_graph().task_count()
        << ",\"dep_edges\":" << rt.dep_graph().edge_count()
        << ",\"provenance\":{\"enabled\":"
        << (rt.config().provenance ? "true" : "false")
        << ",\"edges_annotated\":" << rt.dep_graph().provenance_count()
        << "},\"lifecycle\":" << ledger.json()
        << ",\"messages\":" << messages.json() << ",\"eqset_series\":{";
    bool first_field = true;
    for (FieldID field : ledger.fields()) {
      if (!first_field) run << ",";
      first_field = false;
      run << "\"" << field << "\":[";
      std::vector<std::pair<LaunchID, std::uint64_t>> series =
          population_series(ledger, field);
      for (std::size_t i = 0; i < series.size(); ++i) {
        if (i) run << ",";
        run << "[";
        if (series[i].first == kInvalidLaunch) run << -1;
        else run << series[i].first;
        run << "," << series[i].second << "]";
      }
      run << "]";
    }
    run << "}}";
    MetricsFile metrics("visrt_cli");
    metrics.add_run(run.str());
    if (metrics.write(metrics_json))
      std::printf("metrics written to %s\n", metrics_json.c_str());
  }
  return 0;
}

// --- phase profile (`visrt_cli profile`) -----------------------------------

int run_profile(std::vector<std::string> args) {
  std::string target, json_path;
  std::optional<Algorithm> engine_override;
  bool dcr = false;
  std::uint32_t nodes = 16;
  int iters = 5;
  coord_t size = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--engine" && i + 1 < args.size()) {
      engine_override = parse_algorithm(args[++i]);
      if (!engine_override) {
        std::fprintf(stderr, "profile: unknown engine '%s'\n",
                     args[i].c_str());
        return 2;
      }
    } else if (args[i] == "--dcr") {
      dcr = true;
    } else if (args[i] == "--nodes" && i + 1 < args.size()) {
      nodes = static_cast<std::uint32_t>(std::atol(args[++i].c_str()));
    } else if (args[i] == "--iters" && i + 1 < args.size()) {
      iters = static_cast<int>(std::atol(args[++i].c_str()));
    } else if (args[i] == "--size" && i + 1 < args.size()) {
      size = std::atol(args[++i].c_str());
    } else if (args[i] == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (target.empty() && args[i][0] != '-') {
      target = args[i];
    } else {
      return usage();
    }
  }
  if (target.empty()) return usage();

  const bool is_app =
      target == "stencil" || target == "circuit" || target == "pennant";
  fuzz::ProgramSpec spec;
  if (!is_app && !load_spec(target, spec)) return 2;
  Algorithm engine = engine_override.value_or(
      is_app ? Algorithm::RayCast : spec.subject);

  std::unique_ptr<Runtime> owned;
  if (is_app) {
    RuntimeConfig cfg;
    cfg.algorithm = engine;
    cfg.dcr = dcr;
    cfg.track_values = false; // analysis-only, like the figure benches
    cfg.profile = true;
    cfg.machine.num_nodes = nodes;
    owned = std::make_unique<Runtime>(cfg);
    if (target == "circuit") {
      // The fig13 weak-scaling shape (one piece per simulated node).
      apps::CircuitConfig acfg;
      acfg.pieces = nodes;
      acfg.nodes_per_piece = size > 0 ? static_cast<std::uint32_t>(size)
                                      : 200;
      acfg.wires_per_piece = acfg.nodes_per_piece * 3 / 2;
      acfg.cross_fraction = 0.15;
      acfg.iterations = iters;
      apps::CircuitApp app(*owned, acfg);
      app.run();
    } else if (target == "stencil") {
      apps::StencilConfig acfg;
      std::uint32_t px = 1;
      while (px * px < nodes) px *= 2;
      acfg.pieces_x = px;
      acfg.pieces_y = std::max<std::uint32_t>(1, nodes / px);
      acfg.tile_rows = acfg.tile_cols = size > 0 ? size : 128;
      acfg.iterations = iters;
      apps::StencilApp app(*owned, acfg);
      app.run();
    } else {
      apps::PennantConfig acfg;
      std::uint32_t px = 1;
      while (px * px < nodes) px *= 2;
      acfg.pieces_x = px;
      acfg.pieces_y = std::max<std::uint32_t>(1, nodes / px);
      acfg.zones_per_piece_x = acfg.zones_per_piece_y =
          size > 0 ? static_cast<std::uint32_t>(size) : 32;
      acfg.iterations = iters;
      apps::PennantApp app(*owned, acfg);
      app.run();
    }
  } else {
    fuzz::LiveRunOptions options;
    options.provenance = false;
    options.profile = true;
    options.subject = engine_override;
    fuzz::LiveRun live = fuzz::run_program_live(spec, options);
    if (live.runtime == nullptr) {
      std::fprintf(stderr, "profile: run crashed: %s\n",
                   live.result.crash_message.c_str());
      return 1;
    }
    owned = std::move(live.runtime);
  }
  const RunStats st = owned->finish();
  const obs::Profiler& profiler = owned->profiler();
  const auto wall_ns = static_cast<std::uint64_t>(st.analysis_wall_s * 1e9);
  const obs::ProfileReport report = profiler.report(wall_ns);

  std::printf("== profile: %s on %s%s, %u simulated nodes, %zu launches, "
              "%zu dependence edges ==\n",
              target.c_str(), algorithm_name(engine), dcr ? " +DCR" : "",
              nodes, st.launches, st.dep_edges);
  std::printf("analysis wall %.4f s  coverage %.1f%%\n", st.analysis_wall_s,
              report.coverage * 100.0);
  if (!report.phases.empty()) {
    // Where the time goes, largest phase first.
    std::vector<const obs::PhaseTotal*> phases;
    for (const obs::PhaseTotal& p : report.phases) phases.push_back(&p);
    std::stable_sort(phases.begin(), phases.end(),
                     [](const obs::PhaseTotal* a, const obs::PhaseTotal* b) {
                       return a->wall_ns > b->wall_ns;
                     });
    auto share = [&](std::uint64_t ns) {
      return wall_ns > 0 ? 100.0 * static_cast<double>(ns) /
                               static_cast<double>(wall_ns)
                         : 0.0;
    };
    std::printf("  %-28s %8s %9s %7s\n", "phase", "events", "seconds",
                "share");
    for (const obs::PhaseTotal* p : phases)
      std::printf("  %-28s %8llu %9.4f %6.1f%%\n", p->label.c_str(),
                  static_cast<unsigned long long>(p->events),
                  static_cast<double>(p->wall_ns) * 1e-9, share(p->wall_ns));
    std::printf("  %-28s %8s %9.4f %6.1f%%\n", "(unattributed)", "",
                static_cast<double>(report.unattributed_ns) * 1e-9,
                share(report.unattributed_ns));
  }

  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\"schema_version\":1,\"enabled\":"
       << (profiler.enabled() ? "true" : "false") << ",\"target\":\""
       << obs::json_escape(target) << "\",\"engine\":\""
       << algorithm_name(engine) << "\",\"dcr\":" << (dcr ? "true" : "false")
       << ",\"nodes\":" << nodes << ",\"launches\":" << st.launches
       << ",\"dep_edges\":" << st.dep_edges
       << ",\"analysis_wall_s\":" << obs::json_number(st.analysis_wall_s)
       << ",\"structure\":" << profiler.structure_json()
       << ",\"timing\":" << profiler.timing_json(wall_ns) << "}";
    std::ofstream out(json_path);
    out << js.str() << "\n";
    if (out) std::printf("profile report written to %s\n", json_path.c_str());
  }
  return 0;
}

void maybe_export_trace(const Runtime& rt, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  rt.export_chrome_trace(out);
  std::printf("timeline written to %s\n", path.c_str());
}

void print_stats(const Runtime& rt, const RunStats& stats, bool validated,
                 bool values) {
  std::printf("launches           %zu\n", stats.launches);
  std::printf("dependence edges   %zu\n", stats.dep_edges);
  std::printf("critical path      %zu tasks\n", stats.critical_path);
  std::printf("traced launches    %zu\n", rt.traced_launches());
  std::printf("messages           %zu (%.1f KiB)\n", stats.messages,
              static_cast<double>(stats.message_bytes) / 1024.0);
  std::printf("analysis cpu       %.3f ms (all nodes)\n",
              stats.analysis_cpu_s * 1e3);
  std::printf("eqsets live/total  %zu/%zu\n", stats.engine.live_eqsets,
              stats.engine.total_eqsets_created);
  std::printf("composite views    %zu/%zu\n",
              stats.engine.live_composite_views,
              stats.engine.total_composite_views);
  std::printf("init time          %.3f ms\n", stats.init_time_s * 1e3);
  std::printf("steady iteration   %.3f ms\n", stats.steady_iter_s * 1e3);
  std::printf("total time         %.3f ms\n", stats.total_time_s * 1e3);
  if (values) {
    std::printf("validation         %s\n", validated ? "PASS" : "FAIL");
  }
}

/// Finish the run: optional spy verification, stats to stdout, then the
/// optional timeline and metrics files.  Returns false when --verify found
/// a violation.
bool report(Runtime& rt, const Options& opt, bool validated) {
  bool spy_ok = true;
  if (opt.verify) {
    analysis::SpyReport spy = analysis::verify(rt);
    std::printf("spy verify         %s\n", spy.summary().c_str());
    print_violations(spy);
    spy_ok = spy.clean();
  }
  RunStats stats = rt.finish();
  print_stats(rt, stats, validated, opt.values);
  maybe_export_trace(rt, opt.chrome_trace);
  if (!opt.metrics_json.empty()) {
    MetricsRunInfo info;
    info.name = opt.app + "/" + algorithm_name(opt.algorithm);
    info.app = opt.app;
    info.algorithm = algorithm_name(opt.algorithm);
    info.dcr = opt.dcr;
    info.nodes = opt.nodes;
    MetricsFile metrics("visrt_cli");
    metrics.add_run(metrics_run_json(info, rt, stats));
    if (metrics.write(opt.metrics_json))
      std::printf("metrics written to %s\n", opt.metrics_json.c_str());
  }
  return spy_ok;
}

// --- streaming analysis daemon (`visrt_cli serve`) -------------------------

serve::Server* g_serve_instance = nullptr;

void serve_signal_handler(int) {
  if (g_serve_instance != nullptr) g_serve_instance->request_stop();
}

int run_serve(std::vector<std::string> args) {
  std::string socket_path;
  bool use_stdin = false;
  std::string metrics_path;
  std::string flight_dump_dir = ".";
  int sampler_interval_ms = 1000;
  serve::SessionOptions session;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> long {
      return ++i < args.size() ? std::atol(args[i].c_str()) : 0;
    };
    if (arg == "--socket" && i + 1 < args.size()) {
      socket_path = args[++i];
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--engine" && i + 1 < args.size()) {
      auto engine = parse_algorithm(args[++i]);
      if (!engine) {
        std::fprintf(stderr, "serve: unknown engine '%s'\n", args[i].c_str());
        return 2;
      }
      session.subject = *engine;
    } else if (arg == "--max-resident-launches") {
      session.max_resident_launches = static_cast<std::size_t>(next());
    } else if (arg == "--max-history-depth") {
      session.max_history_depth = static_cast<std::size_t>(next());
    } else if (arg == "--retire-interval") {
      session.retire_every = static_cast<std::size_t>(next());
    } else if (arg == "--no-values") {
      session.track_values = false;
    } else if (arg == "--verify") {
      session.verify = true;
    } else if (arg == "--metrics-json" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (arg == "--flight-dump-dir" && i + 1 < args.size()) {
      flight_dump_dir = args[++i];
    } else if (arg == "--sampler-interval-ms") {
      sampler_interval_ms = static_cast<int>(next());
    } else if (arg == "--inject-check-failure") {
      // Test hook (CI crash-dump smoke): trip an invariant after N
      // ingested launches so the flight recorder's dump path runs.
      session.inject_check_failure_after = static_cast<std::uint64_t>(next());
    } else {
      std::fprintf(stderr, "serve: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (socket_path.empty() && !use_stdin) {
    std::fprintf(stderr,
                 "serve: need --socket PATH or --stdin (see docs/SERVING.md)\n");
    return 2;
  }

  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.session = session;
  options.sampler_interval_ms = sampler_interval_ms;
  serve::Server server(options);
  // Always-on crash forensics: any invariant failure or fatal signal in
  // the daemon leaves a flight-recorder dump behind (docs/SERVING.md).
  obs::flight_arm_crash_dumps(flight_dump_dir);

  if (use_stdin) {
    server.run_stream(std::cin, std::cout);
  } else {
    try {
      server.start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: %s\n", e.what());
      return 1;
    }
    g_serve_instance = &server;
    std::signal(SIGTERM, serve_signal_handler);
    std::signal(SIGINT, serve_signal_handler);
    std::fprintf(stderr, "serve: listening on %s\n", socket_path.c_str());
    while (!server.stopping())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::fprintf(stderr, "serve: draining in-flight sessions\n");
    server.stop(); // graceful: every session finishes and replies
    g_serve_instance = nullptr;
  }

  serve::ServeStats stats = server.stats();
  std::fprintf(stderr,
               "serve: done — %llu sessions (%llu failed), %llu launches, "
               "%llu retired, peak resident %llu\n",
               static_cast<unsigned long long>(stats.sessions_total),
               static_cast<unsigned long long>(stats.sessions_failed),
               static_cast<unsigned long long>(stats.totals.launches),
               static_cast<unsigned long long>(stats.totals.retired_launches),
               static_cast<unsigned long long>(
                   stats.totals.peak_resident_launches));
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    os << server.metrics_json() << "\n";
    std::fprintf(stderr, "serve: metrics written to %s\n",
                 metrics_path.c_str());
  }
  return stats.sessions_failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  // --log-json applies to every command form; strip it before dispatch.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--log-json") == 0)
      set_log_format(LogFormat::Json);
    else
      args.emplace_back(argv[i]);
  }
  if (!args.empty() && args[0] == "verify")
    return run_verify({args.begin() + 1, args.end()});
  if (!args.empty() && args[0] == "explain")
    return run_explain({args.begin() + 1, args.end()});
  if (!args.empty() && args[0] == "inspect")
    return run_inspect({args.begin() + 1, args.end()});
  if (!args.empty() && args[0] == "profile")
    return run_profile({args.begin() + 1, args.end()});
  if (!args.empty() && args[0] == "serve")
    return run_serve({args.begin() + 1, args.end()});
  if (args.size() < 2) return usage();
  Options opt;
  opt.app = args[0];
  auto algorithm = parse_algorithm(args[1]);
  if (!algorithm) return usage();
  opt.algorithm = *algorithm;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> long {
      return ++i < args.size() ? std::atol(args[i].c_str()) : 0;
    };
    if (arg == "--nodes") opt.nodes = static_cast<std::uint32_t>(next());
    else if (arg == "--pieces") opt.pieces = static_cast<std::uint32_t>(next());
    else if (arg == "--iters") opt.iters = static_cast<int>(next());
    else if (arg == "--dcr") opt.dcr = true;
    else if (arg == "--trace") opt.trace = true;
    else if (arg == "--no-values") opt.values = false;
    else if (arg == "--verify") opt.verify = true;
    else if (arg == "--size") opt.size = next();
    else if ((arg == "--chrome-trace" || arg == "--trace-out") &&
             i + 1 < args.size())
      opt.chrome_trace = args[++i];
    else if (arg == "--metrics-json" && i + 1 < args.size())
      opt.metrics_json = args[++i];
    else return usage();
  }
  if (opt.pieces == 0) opt.pieces = opt.nodes;

  RuntimeConfig cfg;
  cfg.algorithm = opt.algorithm;
  cfg.dcr = opt.dcr;
  cfg.track_values = opt.values;
  // Any observability output wants the full telemetry: spans, series and
  // the enriched timeline.
  cfg.telemetry = !opt.chrome_trace.empty() || !opt.metrics_json.empty();
  cfg.record_launches = opt.verify; // the spy verifier reads the launch log
  cfg.machine.num_nodes = opt.nodes;
  Runtime rt(cfg);

  std::printf("== visrt: %s on %s%s%s, %u pieces, %u simulated nodes ==\n",
              opt.app.c_str(), algorithm_name(opt.algorithm),
              opt.dcr ? " +DCR" : "", opt.trace ? " +tracing" : "",
              opt.pieces, opt.nodes);

  bool validated = false;
  bool spy_ok = true;
  if (opt.app == "stencil") {
    apps::StencilConfig acfg;
    std::uint32_t px = 1;
    while (px * px < opt.pieces) px *= 2;
    acfg.pieces_x = px;
    acfg.pieces_y = std::max<std::uint32_t>(1, opt.pieces / px);
    acfg.tile_rows = acfg.tile_cols = opt.size > 0 ? opt.size : 16;
    acfg.iterations = opt.iters;
    acfg.trace = opt.trace;
    apps::StencilApp app(rt, acfg);
    app.run();
    if (opt.values) validated = app.validate();
    spy_ok = report(rt, opt, validated);
  } else if (opt.app == "circuit") {
    apps::CircuitConfig acfg;
    acfg.pieces = opt.pieces;
    acfg.nodes_per_piece = opt.size > 0 ? opt.size : 24;
    acfg.wires_per_piece = 2 * acfg.nodes_per_piece;
    acfg.iterations = opt.iters;
    acfg.trace = opt.trace;
    apps::CircuitApp app(rt, acfg);
    app.run();
    if (opt.values)
      validated = app.validate(opt.algorithm == Algorithm::Paint ? 1e-9 : 0);
    spy_ok = report(rt, opt, validated);
  } else if (opt.app == "pennant") {
    apps::PennantConfig acfg;
    std::uint32_t px = 1;
    while (px * px < opt.pieces) px *= 2;
    acfg.pieces_x = px;
    acfg.pieces_y = std::max<std::uint32_t>(1, opt.pieces / px);
    acfg.zones_per_piece_x = acfg.zones_per_piece_y =
        opt.size > 0 ? opt.size : 8;
    acfg.iterations = opt.iters;
    acfg.trace = opt.trace;
    apps::PennantApp app(rt, acfg);
    app.run();
    if (opt.values)
      validated = app.validate(opt.algorithm == Algorithm::Paint ? 1e-9 : 0);
    spy_ok = report(rt, opt, validated);
  } else {
    return usage();
  }
  return ((!opt.values || validated) && spy_ok) ? 0 : 1;
}
