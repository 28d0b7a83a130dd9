// stream_sustained: the streaming-service endurance bench.
//
// Drives a multi-million-launch `.visprog` stream — the paper's Figure 5
// shape (aliased ghost exchanges over two fields) scaled out to many
// pieces and unbounded iterations — through serve::StreamSession with
// epoch retirement and composite-view history collapsing on, and reports
// the sustained ingest rate and the residency plateau:
//
//   stream_sustained [--launches N] [--pieces N]
//                    [--retire-interval N] [--max-resident-launches N]
//                    [--max-history-depth N] [--values]
//
// Statements are synthesized on the fly (the stream text is never
// materialized), so the only O(stream) state is whatever the session
// fails to retire — the point of the bench.  The run aborts nonzero if
// residency exceeds the configured cap plus the analysis tail, i.e. if
// memory is not actually bounded.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "serve/session.h"

using namespace visrt;

namespace {

struct Options {
  std::size_t launches = 1u << 20; // 1,048,576
  std::size_t pieces = 64;
  std::size_t retire_interval = 1024;
  std::size_t max_resident_launches = 8192;
  std::size_t max_history_depth = 64;
  bool values = false; // analysis-only by default: the service-rate metric
};

/// The figure-5 stream prologue at `pieces` primary pieces: tree of
/// 10*pieces cells, a disjoint primary partition, an aliased ghost
/// partition (each ghost straddles its neighbours' edge cells), two
/// fields exchanged in alternating directions.
std::string prologue(const Options& opt) {
  std::ostringstream os;
  const std::size_t cells = 10 * opt.pieces;
  os << "visprog 1\n"
     << "config nodes=4 dcr=0 tracing=0 subject=raycast\n"
     << "tuning occlusion=1 memoize=1 domwrites=1 kdfallback=0 paintbug=0\n"
     << "tree A " << cells << "\n";
  os << "partition P parent=0";
  for (std::size_t p = 0; p < opt.pieces; ++p)
    os << " [" << 10 * p << "," << 10 * p + 9 << "]";
  os << "\n";
  os << "partition G parent=0";
  for (std::size_t p = 0; p < opt.pieces; ++p) {
    if (p == 0) {
      os << " [10,11]";
    } else if (p + 1 == opt.pieces) {
      os << " [" << 10 * p - 2 << "," << 10 * p - 1 << "]";
    } else {
      os << " [" << 10 * p - 2 << "," << 10 * p - 1 << "]+[" << 10 * (p + 1)
         << "," << 10 * (p + 1) + 1 << "]";
    }
  }
  os << "\n";
  os << "field up tree=0 mod=11\n"
     << "field down tree=0 mod=11\n";
  return os.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: stream_sustained [--launches N] [--pieces N] "
               "[--retire-interval N] "
               "[--max-resident-launches N] [--max-history-depth N] "
               "[--values]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> long {
      return i + 1 < argc ? std::atol(argv[++i]) : 0;
    };
    if (arg == "--launches") opt.launches = static_cast<std::size_t>(next());
    else if (arg == "--pieces") opt.pieces = static_cast<std::size_t>(next());
    else if (arg == "--retire-interval")
      opt.retire_interval = static_cast<std::size_t>(next());
    else if (arg == "--max-resident-launches")
      opt.max_resident_launches = static_cast<std::size_t>(next());
    else if (arg == "--max-history-depth")
      opt.max_history_depth = static_cast<std::size_t>(next());
    else if (arg == "--values") opt.values = true;
    else return usage();
  }
  if (opt.pieces < 3) opt.pieces = 3; // the ghost shape needs neighbours

  serve::SessionOptions so;
  so.retire_every = opt.retire_interval;
  so.max_resident_launches = opt.max_resident_launches;
  so.max_history_depth = opt.max_history_depth;
  so.track_values = opt.values;
  so.on_error = [](const std::string& e) {
    std::fprintf(stderr, "stream_sustained: statement rejected: %s\n",
                 e.c_str());
    std::exit(1);
  };
  serve::StreamSession session(so);

  std::printf("# stream_sustained: %zu launches, %zu pieces, "
              "retire=%zu cap=%zu depth=%zu values=%d\n",
              opt.launches, opt.pieces, opt.retire_interval,
              opt.max_resident_launches, opt.max_history_depth,
              opt.values ? 1 : 0);

  auto start = std::chrono::steady_clock::now();
  session.feed(prologue(opt));

  // Alternating ghost exchanges; every `pieces` launches one iteration
  // marker, exactly the paper's outer-loop shape.  Statements are
  // regenerated each round so the resident stream text is one line.
  std::size_t ingested = 0;
  std::uint64_t salt = 0;
  std::string line;
  while (ingested < opt.launches) {
    const bool up = (salt % 2) == 0;
    line = "index salt=" + std::to_string(salt) +
           (up ? " p0 f0 rw | p1 f1 red:sum\n" : " p0 f1 rw | p1 f0 red:sum\n");
    session.feed(line);
    ingested += opt.pieces;
    ++salt;
    if (salt % 2 == 0) session.feed("end_iteration\n");
  }
  session.finish();
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();

  const serve::SessionCounters& c = session.counters();
  const serve::SessionResult& r = session.result();
  const double rate = wall > 0 ? static_cast<double>(c.launches) / wall : 0;
  // Per-launch analysis latency percentiles from the session's always-on
  // histogram (the telemetry the serve daemon exports via @metrics).
  const obs::HistogramSnapshot lat = session.latency().launch_analysis.snapshot();
  const std::uint64_t p50 = lat.quantile(0.50);
  const std::uint64_t p99 = lat.quantile(0.99);
  const std::uint64_t p999 = lat.quantile(0.999);
  std::printf("launches\twall_s\tlaunches_per_s\tpeak_resident\tretired\t"
              "dep_edges\tp50_ns\tp99_ns\tp999_ns\n");
  std::printf("%llu\t%.3f\t%.0f\t%llu\t%llu\t%zu\t%llu\t%llu\t%llu\n",
              static_cast<unsigned long long>(c.launches), wall, rate,
              static_cast<unsigned long long>(c.peak_resident_launches),
              static_cast<unsigned long long>(c.retired_launches), r.dep_edges,
              static_cast<unsigned long long>(p50),
              static_cast<unsigned long long>(p99),
              static_cast<unsigned long long>(p999));

  // The bounded-memory acceptance: the plateau is the cap plus the
  // analysis-dependent tail the cut cannot cross yet (at most one retire
  // interval plus one iteration of launches, with generous slack for the
  // engine watermark lag).
  if (opt.max_resident_launches != 0) {
    const std::uint64_t bound = opt.max_resident_launches +
                                4 * (opt.retire_interval + opt.pieces) + 64;
    if (c.peak_resident_launches > bound) {
      std::fprintf(stderr,
                   "stream_sustained: residency NOT bounded: peak %llu > "
                   "allowed %llu\n",
                   static_cast<unsigned long long>(c.peak_resident_launches),
                   static_cast<unsigned long long>(bound));
      return 1;
    }
  }

  return 0;
}
