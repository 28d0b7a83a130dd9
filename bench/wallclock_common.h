// Wall-clock benchmark mode for the figure and micro benches:
//   --wall-clock [--nodes A,B,...] [--bench-out PATH] [--profile-out PATH]
// Instead of the simulated-time figure sweep, run each paper system at the
// requested node counts and report real seconds spent inside the analysis
// sections (RunStats::analysis_wall_s).  Results append to
// BENCH_analysis.json at the working directory root (schema v1; see
// docs/PERFORMANCE.md).  Analysis runs on one thread; every entry keeps
// `"threads":1` so schema-v1 readers keep working:
//
//   {"schema_version":1,
//    "entries":[{"bench":"fig13_circuit_init","app":"circuit","threads":1,
//                "runs":[{"system":"neweqcr_dcr","nodes":256,
//                         "analysis_wall_s":...,"analysis_cpu_s":...,
//                         "launches":...,"dep_edges":...,"messages":...,
//                         "init_time_s":...,"total_time_s":...}, ...]},
//               ...]}
//
// Each invocation appends one entry, so repeated runs of the same bench
// land in one file.  The flags are stripped from argv before any other
// parsing so they compose with --metrics-json and google-benchmark's own
// flags.
#pragma once

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "figure_common.h"

namespace visrt::bench {

struct WallClockOptions {
  bool enabled = false;
  /// Simulated node counts to sweep; defaults to {256}, the size the
  /// speedup acceptance runs at.
  std::vector<std::uint32_t> nodes;
  std::string out_path = "BENCH_analysis.json";
  /// When nonempty, run with the analysis profiler on and write every
  /// run's schema-v1 profile report (phase attribution;
  /// docs/OBSERVABILITY.md) to this file.
  std::string profile_out;
};

/// True when this sweep should run with RuntimeConfig::profile set.
inline bool wall_clock_profiling(const WallClockOptions& opts) {
  return !opts.profile_out.empty();
}

/// Remove the wall-clock flags from argv (compacting it, like
/// take_metrics_json_arg) and return the parsed options.
inline WallClockOptions take_wall_clock_args(int& argc, char** argv) {
  WallClockOptions opts;
  auto parse_nodes = [&opts](const char* list) {
    opts.nodes.clear();
    std::uint32_t value = 0;
    bool have_digit = false;
    for (const char* p = list;; ++p) {
      if (*p >= '0' && *p <= '9') {
        value = value * 10 + static_cast<std::uint32_t>(*p - '0');
        have_digit = true;
      } else {
        if (have_digit) opts.nodes.push_back(value);
        value = 0;
        have_digit = false;
        if (*p == '\0') break;
      }
    }
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wall-clock") == 0) {
      opts.enabled = true;
      continue;
    }
    if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      parse_nodes(argv[i] + 8);
      continue;
    }
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      parse_nodes(argv[++i]);
      continue;
    }
    if (std::strncmp(argv[i], "--bench-out=", 12) == 0) {
      opts.out_path = argv[i] + 12;
      continue;
    }
    if (std::strcmp(argv[i], "--bench-out") == 0 && i + 1 < argc) {
      opts.out_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--profile-out=", 14) == 0) {
      opts.profile_out = argv[i] + 14;
      continue;
    }
    if (std::strcmp(argv[i], "--profile-out") == 0 && i + 1 < argc) {
      opts.profile_out = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
  if (opts.nodes.empty()) opts.nodes.push_back(256);
  return opts;
}

inline std::string wall_clock_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Append one entry to the BENCH_analysis.json file, creating it (with the
/// schema envelope) when absent.  Existing files are extended textually:
/// the envelope always ends with "]}" and entries are never empty, so the
/// append splices ",<entry>" before the closing brackets.  A file that
/// does not look like a schema-v1 envelope is overwritten.
inline bool append_bench_entry(const std::string& path,
                               const std::string& entry) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in)
      existing.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  static const char kHead[] = "{\"schema_version\":1,\"entries\":[";
  std::string doc;
  std::size_t end = existing.find_last_not_of(" \t\r\n");
  if (end != std::string::npos && end >= 1 && existing[end] == '}' &&
      existing[end - 1] == ']' && existing.rfind(kHead, 0) == 0) {
    doc = existing.substr(0, end - 1) + ",\n" + entry + "]}\n";
  } else {
    doc = std::string(kHead) + "\n" + entry + "]}\n";
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << doc;
  return out.good();
}

/// The wall-clock sweep: every paper system at every requested node count,
/// one measured run each (the analysis is deterministic; host timing noise
/// is what it is).
inline int run_wall_clock(const char* bench, const char* app,
                          const WallClockOptions& opts,
                          const ConfigRunner& runner) {
  std::printf("# %s --wall-clock: real analysis seconds\n", bench);
  std::printf("system\tnodes\tanalysis_wall_s\tanalysis_cpu_s\t"
              "launches\tdep_edges\n");
  std::ostringstream runs;
  std::ostringstream profiles;
  bool first = true;
  double total_wall = 0;
  for (const SystemConfig& sys : paper_systems()) {
    for (std::uint32_t nodes : opts.nodes) {
      RunResult result = runner(sys, nodes);
      if (wall_clock_profiling(opts) && !result.profile_json.empty()) {
        if (!first) profiles << ",\n  ";
        profiles << "{\"system\":\"" << sys.label
                 << "\",\"nodes\":" << nodes
                 << ",\"profile\":" << result.profile_json << "}";
      }
      const RunStats& st = result.stats;
      std::printf("%s\t%u\t%.6f\t%.6f\t%zu\t%zu\n", sys.label, nodes,
                  st.analysis_wall_s, st.analysis_cpu_s, st.launches,
                  st.dep_edges);
      total_wall += st.analysis_wall_s;
      if (!first) runs << ",\n    ";
      first = false;
      runs << "{\"system\":\"" << sys.label << "\",\"nodes\":" << nodes
           << ",\"analysis_wall_s\":" << wall_clock_number(st.analysis_wall_s)
           << ",\"analysis_cpu_s\":" << wall_clock_number(st.analysis_cpu_s)
           << ",\"launches\":" << st.launches
           << ",\"dep_edges\":" << st.dep_edges
           << ",\"messages\":" << st.messages
           << ",\"init_time_s\":" << wall_clock_number(st.init_time_s)
           << ",\"total_time_s\":" << wall_clock_number(st.total_time_s)
           << "}";
    }
  }
  std::printf("# total analysis_wall_s across systems: %.6f\n", total_wall);
  std::ostringstream entry;
  entry << " {\"bench\":\"" << bench << "\",\"app\":\"" << app
        << "\",\"threads\":1,\n  \"runs\":[\n    " << runs.str() << "]}";
  if (!append_bench_entry(opts.out_path, entry.str())) {
    std::fprintf(stderr, "error: could not write %s\n",
                 opts.out_path.c_str());
    return 1;
  }
  std::printf("# appended entry to %s\n", opts.out_path.c_str());
  if (wall_clock_profiling(opts)) {
    std::ofstream prof(opts.profile_out, std::ios::trunc);
    prof << "{\"schema_version\":1,\"bench\":\"" << bench
         << "\",\n \"runs\":[\n  " << profiles.str() << "]}\n";
    if (prof.good())
      std::printf("# profile reports written to %s\n",
                  opts.profile_out.c_str());
    else
      std::fprintf(stderr, "error: could not write %s\n",
                   opts.profile_out.c_str());
  }
  return 0;
}

} // namespace visrt::bench
