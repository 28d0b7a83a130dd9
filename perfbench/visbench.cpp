// visbench: the measuring half of the repeatable benchmark (README.md).
//
//   visbench --workload NAME --seed N --seconds S [--trace 0|1]
//            [--scale default|tiny] [--verify] [--spans PATH]
//
// Repeats one workload -- set-up first, then the timed section -- until S
// seconds of repetitions have run, and prints one JSON object: every
// repetition's timings, statement-latency percentiles and output
// fingerprint, the peak RSS and, with --trace 1, the per-layer metrics and
// the "where the time goes" table.  run.py turns this into the
// benchmark's metrics and checks the fingerprints.
//
// The library is driven from outside through public calls only: the apps'
// constructors and run(), Runtime::finish / replay_graph / stats, and
// serve::StreamSession::feed / finish / counters / latency.  Every
// workload runs with analysis_threads = 1.
//
// --trace 1 alternates untraced and traced repetitions.  Traced ones turn
// on RuntimeConfig::profile (batch workloads) and record spans around the
// calls above; spans stay in memory and are written to --spans at exit.
// --verify adds one untimed pass under the spy verifier (batch) or the
// session's inline verifier (stream), for seeds with no pinned fingerprint.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/spy.h"
#include "apps/circuit.h"
#include "apps/stencil.h"
#include "common/rng.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/provenance.h"
#include "runtime/runtime.h"
#include "serve/session.h"

#ifndef VISBENCH_BUILD_TYPE
#define VISBENCH_BUILD_TYPE "unknown"
#endif

using namespace visrt;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile of raw samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile of a log-bucketed histogram, interpolated by rank inside the
/// bucket that holds it (the bucket edges alone are 1/16 apart, too
/// coarse to tell two runs apart).
double histogram_quantile(const obs::HistogramSnapshot& snap, double q) {
  if (snap.count == 0) return 0;
  const double rank = q * static_cast<double>(snap.count - 1);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
    const std::uint64_t n = snap.buckets[b];
    if (n == 0) continue;
    if (rank < static_cast<double>(before + n)) {
      const double lo =
          b == 0 ? 0.0 : static_cast<double>(obs::Histogram::bucket_upper(b - 1)) + 1;
      const double width =
          static_cast<double>(obs::Histogram::bucket_upper(b)) + 1 - lo;
      const double frac = (rank - static_cast<double>(before) + 0.5) /
                          static_cast<double>(n);
      return lo + width * std::min(frac, 1.0);
    }
    before += n;
  }
  return static_cast<double>(snap.max);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory, written at exit.

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
};

class Tracer {
public:
  /// Open a span (a no-op returning -1 unless `on`).
  std::int64_t begin(bool on, std::string name, std::int64_t parent = -1) {
    if (!on) return -1;
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  /// Close a span; returns its duration in seconds (0 for -1).
  double end(std::int64_t id) {
    if (id < 0) return 0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i
          << ",\"name\":" << quote(s.name) << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}";
    }
    out << "]\n";
    return out.good();
  }

private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Options and workloads.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool verify = false;
  std::string spans_path;
};

enum class Kind { Circuit, Stencil, Stream };

struct Workload {
  const char* name;
  Kind kind;
};

const Workload kWorkloads[] = {
    {"circuit_raycast_dcr", Kind::Circuit},
    {"stencil_warnock_central", Kind::Stencil},
    {"stream_ghost_retire", Kind::Stream},
};

/// One output fingerprint, as ordered name -> exact string value.
using Fingerprint = std::map<std::string, std::string>;

std::string fingerprint_json(const Fingerprint& fp) {
  std::string out = "{";
  for (const auto& [k, v] : fp) {
    if (out.size() > 1) out += ",";
    out += quote(k) + ":" + quote(v);
  }
  return out + "}";
}

/// One measured repetition.
struct Rep {
  bool warmup = false;
  bool traced = false;
  double setup_s = 0;
  double timed_s = 0; ///< the timed section's wall
  std::uint64_t launches = 0;
  /// Statement latency percentiles of this repetition: stream feeds,
  /// or per-launch analysis latency on the batch workloads.
  std::size_t stmt_samples = 0;
  double stmt_p50_us = 0;
  double stmt_p99_us = 0;
  std::uint64_t statements = 0; ///< stream: statements fed
  std::uint64_t rejected = 0;   ///< stream: statements rejected
  bool residency_ok = true;     ///< stream: peak residency within bound
  Fingerprint fp;
};

/// Per-layer samples of traced repetitions; medians are reported.
struct LayerSamples {
  std::map<std::string, std::vector<double>> timings;
  std::map<std::string, double> counts; ///< deterministic: last value
  std::map<std::string, double> table;  ///< layer -> summed self seconds
  double timed_wall_s = 0;              ///< summed over traced reps
  double covered_s = 0;                 ///< summed top-level span time
};

// ---------------------------------------------------------------------------
// Batch workloads: Circuit and Stencil, analysis only.

struct BatchResult {
  Rep rep;
  analysis::SpyReport spy; ///< verify pass only
};

BatchResult run_batch(Kind kind, const Options& opt, bool traced, bool verify,
                      Tracer& tracer, LayerSamples& layers) {
  obs::Histogram launch_latency; // outlives the runtime below
  RuntimeConfig rc;
  rc.track_values = false;
  rc.analysis_threads = 1;
  rc.profile = traced;
  rc.launch_latency = &launch_latency;
  rc.record_launches = verify;
  rc.order_queries = verify;
  apps::CircuitConfig ccfg;
  apps::StencilConfig scfg;
  if (kind == Kind::Circuit) {
    rc.algorithm = Algorithm::RayCast;
    rc.dcr = true;
    rc.machine.num_nodes = opt.tiny ? 8 : 256;
    // The fig13 circuit shape: 300 wires per piece, ~1.8 ms kernels.
    rc.costs.task_element_ns = 6000;
    ccfg.pieces = rc.machine.num_nodes;
    ccfg.nodes_per_piece = 200;
    ccfg.wires_per_piece = 300;
    ccfg.cross_fraction = 0.15;
    ccfg.iterations = 5;
    ccfg.seed = opt.seed;
  } else {
    rc.algorithm = Algorithm::Warnock;
    rc.dcr = false;
    const std::uint32_t nodes = opt.tiny ? 4 : 256;
    rc.machine.num_nodes = nodes;
    // The fig12 stencil shape: 128x128 tiles, ~2 ms kernels.
    rc.costs.task_element_ns = 125;
    std::uint32_t px = 1;
    while (px * px < nodes) px *= 2;
    scfg.pieces_x = px;
    scfg.pieces_y = nodes / px;
    scfg.tile_rows = scfg.tile_cols = opt.tiny ? 16 : 128;
    scfg.iterations = 5;
  }

  BatchResult out;
  Rep& rep = out.rep;
  rep.traced = traced;
  const std::int64_t root = tracer.begin(traced, "rep");

  // Set-up: construct the runtime and declare regions, partitions, fields.
  const std::int64_t setup_span = tracer.begin(traced, "apps.setup", root);
  auto t0 = Clock::now();
  auto rt = std::make_unique<Runtime>(rc);
  std::unique_ptr<apps::CircuitApp> circuit;
  std::unique_ptr<apps::StencilApp> stencil;
  if (kind == Kind::Circuit)
    circuit = std::make_unique<apps::CircuitApp>(*rt, ccfg);
  else
    stencil = std::make_unique<apps::StencilApp>(*rt, scfg);
  rep.setup_s = since(t0);
  tracer.end(setup_span);

  // Timed section: the launch stream, then finish() (the DES replay).
  const std::int64_t run_span = tracer.begin(traced, "runtime.launch_stream", root);
  t0 = Clock::now();
  if (circuit) circuit->run();
  else stencil->run();
  const double run_s = tracer.end(run_span);
  const std::int64_t finish_span = tracer.begin(traced, "sim.finish", root);
  RunStats stats = rt->finish();
  const double finish_s = tracer.end(finish_span);
  rep.timed_s = since(t0);
  rep.launches = stats.launches;
  const obs::HistogramSnapshot lat = launch_latency.snapshot();
  rep.stmt_samples = lat.count;
  rep.stmt_p50_us = histogram_quantile(lat, 0.50) * 1e-3;
  rep.stmt_p99_us = histogram_quantile(lat, 0.99) * 1e-3;

  rep.fp["dep_graph_hash"] = hex(rt->dep_graph().stream_hash());
  rep.fp["schedule_hash"] = hex(rt->schedule_hash());
  rep.fp["dep_edges"] = std::to_string(stats.dep_edges);
  rep.fp["launches"] = std::to_string(stats.launches);
  rep.fp["messages"] = std::to_string(stats.messages);
  rep.fp["init_time_s"] = num(stats.init_time_s);
  rep.fp["total_time_s"] = num(stats.total_time_s);

  if (traced) {
    const std::int64_t replay_span = tracer.begin(true, "sim.replay", root);
    (void)rt->replay_graph();
    const double replay_s = tracer.end(replay_span);
    tracer.end(root);

    double apply_s = 0, plan_s = 0, engine_s = 0;
    const obs::ProfileReport report = rt->profiler().report(
        static_cast<std::uint64_t>(stats.analysis_wall_s * 1e9));
    for (const obs::PhaseTotal& p : report.phases) {
      const double s = static_cast<double>(p.wall_ns) * 1e-9;
      if (p.label == "runtime/apply_instances") apply_s += s;
      else if (p.label == "runtime/plan_copies") plan_s += s;
      else if (p.label.rfind("runtime/", 0) != 0) engine_s += s;
    }
    auto& t = layers.timings;
    t["apps.setup_s"].push_back(rep.setup_s);
    t["runtime.launch_stream_s"].push_back(run_s);
    t["runtime.analysis_wall_s"].push_back(stats.analysis_wall_s);
    t["realm.apply_instances_s"].push_back(apply_s);
    t["realm.plan_copies_s"].push_back(plan_s);
    t["visibility.engine_s"].push_back(engine_s);
    t["sim.finish_s"].push_back(finish_s);
    t["sim.replay_s"].push_back(replay_s);
    auto& c = layers.counts;
    c["runtime.launches"] = static_cast<double>(stats.launches);
    c["runtime.dep_edges"] = static_cast<double>(stats.dep_edges);
    c["visibility.eqsets_created"] =
        static_cast<double>(stats.engine.total_eqsets_created);
    c["visibility.live_eqsets"] = static_cast<double>(stats.engine.live_eqsets);
    c["sim.messages"] = static_cast<double>(stats.messages);
    c["sim.message_bytes"] = static_cast<double>(stats.message_bytes);
    // Self time per layer inside the timed wall: the launch stream minus
    // the profiler phases of the layers it calls into.
    layers.table["runtime"] += run_s - apply_s - plan_s - engine_s;
    layers.table["realm"] += apply_s + plan_s;
    layers.table["visibility"] += engine_s;
    layers.table["sim"] += finish_s;
    layers.timed_wall_s += rep.timed_s;
    layers.covered_s += run_s + finish_s;
  }

  if (verify) out.spy = analysis::verify(*rt);
  return out;
}

// ---------------------------------------------------------------------------
// The stream workload: the Figure 5 ghost exchange fed to a StreamSession.

struct StreamShape {
  std::size_t pieces;
  std::size_t exchanges; ///< index statements per session
  std::size_t retire_every;
  std::size_t max_resident;
  std::size_t history_depth;
};

StreamShape stream_shape(bool tiny) {
  if (tiny) return StreamShape{8, 512, 64, 256, 8};
  return StreamShape{64, 1024, 1024, 8192, 64};
}

/// Declarations: a tree of 10*pieces cells, a disjoint primary partition,
/// an aliased ghost partition straddling each neighbour's edge cells, and
/// two fields exchanged in alternating directions.
std::string stream_prologue(const StreamShape& sh) {
  std::ostringstream os;
  os << "visprog 1\n"
     << "config nodes=4 dcr=0 tracing=0 subject=raycast\n"
     << "tuning occlusion=1 memoize=1 domwrites=1 kdfallback=0 paintbug=0\n"
     << "tree A " << 10 * sh.pieces << "\n";
  os << "partition P parent=0";
  for (std::size_t p = 0; p < sh.pieces; ++p)
    os << " [" << 10 * p << "," << 10 * p + 9 << "]";
  os << "\npartition G parent=0";
  for (std::size_t p = 0; p < sh.pieces; ++p) {
    if (p == 0)
      os << " [10,11]";
    else if (p + 1 == sh.pieces)
      os << " [" << 10 * p - 2 << "," << 10 * p - 1 << "]";
    else
      os << " [" << 10 * p - 2 << "," << 10 * p - 1 << "]+[" << 10 * (p + 1)
         << "," << 10 * (p + 1) + 1 << "]";
  }
  os << "\nfield up tree=0 mod=11\nfield down tree=0 mod=11\n";
  return os.str();
}

/// The launch statements: ghost exchanges whose direction the seed picks,
/// one iteration marker after every two exchanges.
std::vector<std::string> stream_statements(const StreamShape& sh,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < sh.exchanges; ++i) {
    const bool up = rng.chance(0.5);
    out.push_back("index salt=" + std::to_string(rng.below(1000000)) +
                  (up ? " p0 f0 rw | p1 f1 red:sum\n"
                      : " p0 f1 rw | p1 f0 red:sum\n"));
    if (i % 2 == 1) out.push_back("end_iteration\n");
  }
  return out;
}

struct StreamResult {
  Rep rep;
  std::vector<std::string> errors;
  std::optional<analysis::SpyReport> spy; ///< verify pass only
};

StreamResult run_stream(const StreamShape& sh, const std::string& prologue,
                        const std::vector<std::string>& statements,
                        bool traced, bool verify, Tracer& tracer,
                        LayerSamples& layers) {
  StreamResult out;
  Rep& rep = out.rep;
  rep.traced = traced;
  serve::SessionOptions so;
  so.retire_every = sh.retire_every;
  so.max_resident_launches = sh.max_resident;
  so.max_history_depth = sh.history_depth;
  so.track_values = false;
  so.analysis_threads = 1;
  so.verify = verify;
  so.on_error = [&out](const std::string& e) { out.errors.push_back(e); };
  serve::StreamSession session(so);

  const std::int64_t root = tracer.begin(traced, "session");
  const std::int64_t setup_span = tracer.begin(traced, "serve.prologue", root);
  auto t0 = Clock::now();
  session.feed(prologue);
  rep.setup_s = since(t0);
  tracer.end(setup_span);
  rep.statements = 1;

  std::vector<double> feed_us, plain_us, retire_us;
  feed_us.reserve(statements.size());
  double feed_total_s = 0, retire_feed_s = 0;
  t0 = Clock::now();
  for (const std::string& line : statements) {
    const std::uint64_t calls = session.counters().retire_calls;
    const std::int64_t span = tracer.begin(traced, "serve.feed", root);
    const std::uint64_t f0 = now_ns();
    session.feed(line);
    const double us = static_cast<double>(now_ns() - f0) * 1e-3;
    tracer.end(span);
    feed_us.push_back(us);
    if (traced) {
      feed_total_s += us * 1e-6;
      if (session.counters().retire_calls != calls) {
        retire_us.push_back(us);
        retire_feed_s += us * 1e-6;
      } else {
        plain_us.push_back(us);
      }
    }
  }
  const double feeds_s = since(t0);
  const std::int64_t finish_span = tracer.begin(traced, "serve.finish", root);
  const auto f0 = Clock::now();
  session.finish();
  const double finish_s = since(f0);
  tracer.end(finish_span);
  rep.timed_s = since(t0);
  rep.statements += statements.size();
  rep.stmt_samples = feed_us.size();
  rep.stmt_p50_us = quantile(feed_us, 0.50);
  rep.stmt_p99_us = quantile(feed_us, 0.99);

  const serve::SessionCounters& c = session.counters();
  const serve::SessionResult& r = session.result();
  rep.launches = c.launches;
  rep.rejected = c.rejected;
  // The residency plateau: the cap plus the analysis tail the retirement
  // cut cannot cross yet (as bench/stream_sustained bounds it).
  rep.residency_ok = c.peak_resident_launches <=
                     sh.max_resident + 4 * (sh.retire_every + sh.pieces) + 64;
  const Runtime* rt = session.runtime();
  const RunStats stats = rt ? rt->stats() : RunStats{};
  rep.fp["dep_graph_hash"] = hex(r.dep_graph_hash);
  rep.fp["schedule_hash"] = hex(r.schedule_hash);
  rep.fp["launches"] = std::to_string(r.launches);
  rep.fp["dep_edges"] = std::to_string(r.dep_edges);
  rep.fp["messages"] = std::to_string(stats.messages);
  rep.fp["init_time_s"] = num(stats.init_time_s);
  rep.fp["total_time_s"] = num(stats.total_time_s);
  rep.fp["retire_calls"] = std::to_string(c.retire_calls);
  rep.fp["retired_launches"] = std::to_string(c.retired_launches);
  if (verify) out.spy = r.verify;

  if (traced && rt) {
    const std::int64_t replay_span = tracer.begin(true, "sim.replay", root);
    (void)rt->replay_graph();
    const double replay_s = tracer.end(replay_span);
    tracer.end(root);
    auto& t = layers.timings;
    t["apps.setup_s"].push_back(rep.setup_s);
    t["runtime.launch_stream_s"].push_back(feeds_s);
    t["runtime.analysis_wall_s"].push_back(stats.analysis_wall_s);
    t["sim.replay_s"].push_back(replay_s);
    t["serve.finish_s"].push_back(finish_s);
    t["serve.retire_share"].push_back(
        feed_total_s > 0 ? retire_feed_s / feed_total_s : 0);
    t["serve.feed_plain_p50_us"].push_back(quantile(plain_us, 0.50));
    t["serve.feed_retire_p50_us"].push_back(quantile(retire_us, 0.50));
    t["serve.feed_retire_p99_us"].push_back(quantile(retire_us, 0.99));
    t["serve.retiring_feeds"].push_back(static_cast<double>(retire_us.size()));
    auto& k = layers.counts;
    k["runtime.launches"] = static_cast<double>(c.launches);
    k["runtime.dep_edges"] = static_cast<double>(r.dep_edges);
    k["visibility.eqsets_created"] =
        static_cast<double>(stats.engine.total_eqsets_created);
    k["visibility.live_eqsets"] = static_cast<double>(stats.engine.live_eqsets);
    k["sim.messages"] = static_cast<double>(stats.messages);
    k["sim.message_bytes"] = static_cast<double>(stats.message_bytes);
    k["serve.retire_calls"] = static_cast<double>(c.retire_calls);
    k["serve.retired_ops"] = static_cast<double>(c.retired_ops);
    k["serve.peak_resident_launches"] =
        static_cast<double>(c.peak_resident_launches);
    k["serve.peak_resident_ops"] = static_cast<double>(c.peak_resident_ops);
    // The session's own latency histograms: their percentiles, and their
    // sums as self time per layer -- parse, per-launch analysis (runtime,
    // engines, instance map) and retire pauses; the rest of the feed time
    // is the session's own.
    const serve::SessionLatency& lat = session.latency();
    t["serve.parse_p50_ns"].push_back(
        histogram_quantile(lat.statement_parse.snapshot(), 0.50));
    t["serve.retire_pause_p99_us"].push_back(
        histogram_quantile(lat.retire_pause.snapshot(), 0.99) * 1e-3);
    const double parse_s = static_cast<double>(lat.statement_parse.sum()) * 1e-9;
    const double analysis_s =
        static_cast<double>(lat.launch_analysis.sum()) * 1e-9;
    const double retire_s = static_cast<double>(lat.retire_pause.sum()) * 1e-9;
    layers.table["serve.parse"] += parse_s;
    layers.table["runtime"] += analysis_s;
    layers.table["serve.retire"] += retire_s;
    layers.table["serve.session"] +=
        feed_total_s - parse_s - analysis_s - retire_s;
    layers.table["serve.finish"] += finish_s;
    layers.timed_wall_s += rep.timed_s;
    layers.covered_s += feed_total_s + finish_s;
  }
  return out;
}

// ---------------------------------------------------------------------------

/// Peak resident memory of this process image.  VmHWM, not getrusage:
/// ru_maxrss survives exec, so it would report the launching
/// interpreter's footprint whenever that exceeds the workload's.
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

int usage() {
  std::fprintf(stderr,
               "usage: visbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--scale default|tiny] [--verify] "
               "[--spans PATH]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--verify") {
      opt.verify = true;
      continue;
    }
    if (val == nullptr) return usage();
    ++i;
    if (arg == "--workload") opt.workload = val;
    else if (arg == "--seed") opt.seed = std::strtoull(val, nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(val);
    else if (arg == "--trace") opt.trace = std::atoi(val) != 0;
    else if (arg == "--scale") opt.tiny = std::strcmp(val, "tiny") == 0;
    else if (arg == "--spans") opt.spans_path = val;
    else return usage();
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) wl = &w;
  if (wl == nullptr || opt.seconds <= 0) return usage();

  Tracer tracer;
  LayerSamples layers;
  std::vector<Rep> reps;
  std::vector<std::string> errors;
  std::string verify_json = "null";

  const StreamShape shape = stream_shape(opt.tiny);
  const std::string prologue = stream_prologue(shape);
  const std::vector<std::string> statements =
      stream_statements(shape, opt.seed);

  // One repetition; the first is a warm-up whose timings are dropped.
  auto one = [&](bool traced, bool warmup) {
    if (wl->kind == Kind::Stream) {
      StreamResult r =
          run_stream(shape, prologue, statements, traced, false, tracer, layers);
      errors.insert(errors.end(), r.errors.begin(), r.errors.end());
      r.rep.warmup = warmup;
      reps.push_back(std::move(r.rep));
    } else {
      BatchResult r = run_batch(wl->kind, opt, traced, false, tracer, layers);
      r.rep.warmup = warmup;
      reps.push_back(std::move(r.rep));
    }
  };

  const auto start = Clock::now();
  one(false, true);
  // At least two measured repetitions of each kind, then until time is up.
  for (std::size_t n = 0;; ++n) {
    const bool traced = opt.trace && n % 2 == 1;
    one(traced, false);
    if (n + 1 >= (opt.trace ? 4u : 2u) && since(start) >= opt.seconds) break;
  }
  const long rss_kib = peak_rss_kib();

  if (opt.verify) {
    // Untimed ground-truth check for seeds without a pinned fingerprint.
    std::string summary;
    bool clean = false;
    Fingerprint fp;
    if (wl->kind == Kind::Stream) {
      StreamResult r = run_stream(shape, prologue, statements, false, true,
                                  tracer, layers);
      clean = r.spy.has_value() && r.spy->clean() && r.errors.empty();
      summary = r.spy ? r.spy->summary() : "no verification report";
      fp = r.rep.fp;
    } else {
      BatchResult r = run_batch(wl->kind, opt, false, true, tracer, layers);
      clean = r.spy.clean();
      summary = r.spy.summary();
      fp = r.rep.fp;
    }
    verify_json = "{\"clean\":" + std::string(clean ? "true" : "false") +
                  ",\"summary\":" + quote(summary) +
                  ",\"fp\":" + fingerprint_json(fp) + "}";
  }

  std::ostringstream os;
  os << "{\"workload\":" << quote(wl->name) << ",\"seed\":" << opt.seed
     << ",\"scale\":" << quote(opt.tiny ? "tiny" : "default")
     << ",\"trace\":" << (opt.trace ? 1 : 0)
     << ",\"build\":{\"type\":" << quote(VISBENCH_BUILD_TYPE)
     << ",\"VISRT_PROFILE\":" << (obs::kProfileEnabled ? 1 : 0)
     << ",\"VISRT_PROVENANCE\":" << (obs::kProvenanceEnabled ? 1 : 0)
     << ",\"VISRT_FLIGHT\":" << (obs::kFlightEnabled ? 1 : 0) << "}"
     << ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    os << (i ? "," : "") << "{\"warmup\":" << (r.warmup ? "true" : "false")
       << ",\"traced\":" << (r.traced ? "true" : "false")
       << ",\"setup_s\":" << num(r.setup_s) << ",\"timed_s\":" << num(r.timed_s)
       << ",\"launches\":" << r.launches
       << ",\"stmt_samples\":" << r.stmt_samples
       << ",\"stmt_p50_us\":" << num(r.stmt_p50_us)
       << ",\"stmt_p99_us\":" << num(r.stmt_p99_us)
       << ",\"statements\":" << r.statements
       << ",\"rejected\":" << r.rejected
       << ",\"residency_ok\":" << (r.residency_ok ? "true" : "false")
       << ",\"fp\":" << fingerprint_json(r.fp) << "}";
  }
  os << "],\"peak_rss_kib\":" << rss_kib
     << ",\"verify\":" << verify_json << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size() && i < 16; ++i)
    os << (i ? "," : "") << quote(errors[i]);
  os << "]";

  if (opt.trace) {
    std::vector<double> traced_wall, plain_wall;
    for (const Rep& r : reps) {
      if (r.warmup) continue;
      (r.traced ? traced_wall : plain_wall).push_back(r.timed_s);
    }
    // Fastest of each kind (see run.py): tracing cost, not noise.
    const double base = quantile(plain_wall, 0.0);
    os << ",\"layers\":{";
    bool first = true;
    auto put = [&](const std::string& k, double v) {
      os << (first ? "" : ",") << quote(k) << ":" << num(v);
      first = false;
    };
    for (const auto& [k, v] : layers.timings) put(k, median(v));
    for (const auto& [k, v] : layers.counts) put(k, v);
    put("trace_overhead_frac",
        base > 0 ? (quantile(traced_wall, 0.0) - base) / base : 0);
    put("trace.coverage_frac",
        layers.timed_wall_s > 0 ? layers.covered_s / layers.timed_wall_s : 0);
    os << "},\"table\":{";
    first = true;
    for (const auto& [k, v] : layers.table) put(k, v);
    os << "},\"timed_wall_s\":" << num(layers.timed_wall_s);
  }
  os << "}";
  std::printf("%s\n", os.str().c_str());

  if (!opt.spans_path.empty() && !tracer.write(opt.spans_path)) {
    std::fprintf(stderr, "visbench: cannot write %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  return 0;
}
