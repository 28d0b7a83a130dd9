// verify_scale: spy-verification scaling — batch closure vs batch
// order-maintenance vs streamed incremental verification.
//
//   verify_scale [--launches N] [--pieces N] [--retire-interval N]
//                [--max-resident-launches N] [--batch-cap N]
//
// Drives the paper's Figure-5 ghost-exchange shape (aliased neighbour
// ghosts over two alternating fields) at the requested launch count
// through up to three verification systems and prints one row per system
// (system, launches verified, wall seconds, interfering pairs, verdict):
//
//   spy_bitmatrix       the pre-order-maintenance spy, kept as the test
//                       suite's reference (tests/reference_spy.h): an
//                       O(n²)-memory BitMatrix transitive closure plus a
//                       pairwise interference matrix.  Only run when
//                       launches <= --batch-cap (the closure alone is
//                       n²/8 bytes).
//   spy_order           analysis::verify over a finished batch run's
//                       forest, graph and launch log — the shipped spy:
//                       one sweep over a per-field index of requirements,
//                       order-maintenance labels, O(resident requirements)
//                       memory, no schedule replay.  Same cap, because its
//                       time grows with the interfering pairs, O(n²) here.
//   serve_stream_verify serve::StreamSession with SessionOptions::verify:
//                       the program is streamed, each launch's edges are
//                       verified on arrival against the resident window,
//                       and epoch retirement keeps memory bounded — the
//                       only system that reaches the 1,048,576-launch
//                       point.  Always run; wall time is end to end
//                       (ingest + analysis + verification).
//
// Any verification failure (the program is interference-clean by
// construction) exits nonzero, so CI can use a single invocation as both
// a perf smoke and a correctness check.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/spy.h"
#include "reference_spy.h"
#include "runtime/runtime.h"
#include "serve/session.h"

using namespace visrt;
using analysis::reference::BaselineReport;
using analysis::reference::baseline_verify;

namespace {

struct Options {
  std::size_t launches = 10240;
  std::size_t pieces = 64;
  std::size_t retire_interval = 1024;
  std::size_t max_resident_launches = 8192;
  /// Largest launch count the batch systems attempt; beyond it only the
  /// streamed system runs (the baseline is O(n²) memory, both batch
  /// systems O(n²) time).
  std::size_t batch_cap = 16384;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// The Figure-5 ghost-exchange program, in two forms: Runtime API calls for
// the batch systems, .visprog text for the streamed one.  Same shape as
// bench/stream_sustained.

/// Build the region tree and issue `launches` index launches.
void run_batch_program(Runtime& rt, const Options& opt) {
  const coord_t cells = static_cast<coord_t>(10 * opt.pieces);
  RegionHandle root = rt.create_region(IntervalSet(0, cells - 1), "A");
  std::vector<IntervalSet> primary, ghost;
  for (std::size_t p = 0; p < opt.pieces; ++p) {
    const coord_t lo = static_cast<coord_t>(10 * p);
    primary.push_back(IntervalSet(lo, lo + 9));
    if (p == 0) {
      ghost.push_back(IntervalSet(10, 11));
    } else if (p + 1 == opt.pieces) {
      ghost.push_back(IntervalSet(lo - 2, lo - 1));
    } else {
      ghost.push_back(
          IntervalSet(lo - 2, lo - 1).unite(IntervalSet(lo + 10, lo + 11)));
    }
  }
  PartitionHandle pp = rt.create_partition(root, primary, "P");
  PartitionHandle gp = rt.create_partition(root, ghost, "G");
  FieldID up = rt.add_field(root, "up", 0.0);
  FieldID down = rt.add_field(root, "down", 0.0);

  std::size_t ingested = 0;
  std::uint64_t salt = 0;
  while (ingested < opt.launches) {
    IndexLaunch il;
    il.name = "exchange";
    const FieldID fw = (salt % 2) == 0 ? up : down;
    const FieldID fr = (salt % 2) == 0 ? down : up;
    il.requirements = {IndexReq{pp, fw, Privilege::read_write()},
                       IndexReq{gp, fr, Privilege::reduce(1)}};
    rt.index_launch(il);
    ingested += opt.pieces;
    ++salt;
    if (salt % 2 == 0) rt.end_iteration();
  }
}

/// The same program as stream text (see stream_sustained for the shape).
std::string stream_prologue(const Options& opt) {
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
               "usage: verify_scale [--launches N] [--pieces N] "
               "[--retire-interval N] [--max-resident-launches N] "
               "[--batch-cap N]\n");
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
    else if (arg == "--batch-cap")
      opt.batch_cap = static_cast<std::size_t>(next());
    else return usage();
  }
  if (opt.pieces < 3) opt.pieces = 3; // the ghost shape needs neighbours

  std::printf("# verify_scale: %zu launches, %zu pieces, retire=%zu cap=%zu\n",
              opt.launches, opt.pieces, opt.retire_interval,
              opt.max_resident_launches);
  std::printf("system\tlaunches\tverify_wall_s\tinterfering\tverdict\n");

  bool failed = false;

  // --- Batch systems: one engine run, two verifiers over its output. ---
  if (opt.launches <= opt.batch_cap) {
    RuntimeConfig config;
    config.algorithm = Algorithm::RayCast;
    config.track_values = false;
    config.record_launches = true;
    config.machine.num_nodes = 4;
    Runtime rt(config);
    run_batch_program(rt, opt);

    // The forest/graph/log overload: dependence verification only, no
    // DES replay for the schedule check.
    auto t0 = std::chrono::steady_clock::now();
    analysis::SpyReport spy =
        analysis::verify(rt.forest(), rt.dep_graph(), rt.launch_log());
    const double order_wall = seconds_since(t0);
    std::printf("spy_order\t%zu\t%.3f\t%zu\t%s\n", spy.launches, order_wall,
                spy.interfering_pairs, spy.clean() ? "clean" : "VIOLATIONS");
    if (!spy.clean()) {
      std::fprintf(stderr, "verify_scale: spy_order: %s\n",
                   spy.summary().c_str());
      failed = true;
    }

    t0 = std::chrono::steady_clock::now();
    BaselineReport base =
        baseline_verify(rt.forest(), rt.dep_graph(), rt.launch_log());
    const double bitmatrix_wall = seconds_since(t0);
    std::printf("spy_bitmatrix\t%zu\t%.3f\t%zu\t%s\n", rt.launch_log().size(),
                bitmatrix_wall, base.interfering_pairs,
                base.clean() ? "clean" : "VIOLATIONS");
    if (!base.clean()) {
      std::fprintf(stderr,
                   "verify_scale: spy_bitmatrix: %zu unordered, %zu "
                   "imprecise\n",
                   base.unordered_pairs, base.imprecise_edges);
      failed = true;
    }
    // The two verifiers recompute the same ground truth; disagreement
    // means one of them is wrong.
    if (base.interfering_pairs != spy.interfering_pairs ||
        base.unordered_pairs != spy.unordered_pairs ||
        base.imprecise_edges != spy.imprecise_edges ||
        base.transitive_edges != spy.transitive_edges) {
      std::fprintf(stderr,
                   "verify_scale: baseline/order verdict mismatch: "
                   "pairs %zu/%zu unordered %zu/%zu imprecise %zu/%zu "
                   "transitive %zu/%zu\n",
                   base.interfering_pairs, spy.interfering_pairs,
                   base.unordered_pairs, spy.unordered_pairs,
                   base.imprecise_edges, spy.imprecise_edges,
                   base.transitive_edges, spy.transitive_edges);
      failed = true;
    }
  } else {
    std::printf("# batch systems skipped: %zu launches > batch cap %zu\n",
                opt.launches, opt.batch_cap);
  }

  // --- Streamed incremental verification, end to end. ---
  {
    serve::SessionOptions so;
    so.retire_every = opt.retire_interval;
    so.max_resident_launches = opt.max_resident_launches;
    so.track_values = false;
    so.verify = true;
    std::size_t rejected = 0;
    so.on_error = [&rejected](const std::string& e) {
      std::fprintf(stderr, "verify_scale: %s\n", e.c_str());
      ++rejected;
    };
    serve::StreamSession session(so);

    auto t0 = std::chrono::steady_clock::now();
    session.feed(stream_prologue(opt));
    std::size_t ingested = 0;
    std::uint64_t salt = 0;
    std::string line;
    while (ingested < opt.launches) {
      const bool up = (salt % 2) == 0;
      line = "index salt=" + std::to_string(salt) +
             (up ? " p0 f0 rw | p1 f1 red:sum\n"
                 : " p0 f1 rw | p1 f0 red:sum\n");
      session.feed(line);
      ingested += opt.pieces;
      ++salt;
      if (salt % 2 == 0) session.feed("end_iteration\n");
    }
    session.finish();
    const double wall = seconds_since(t0);

    const serve::SessionCounters& c = session.counters();
    const serve::SessionResult& r = session.result();
    const bool clean = rejected == 0 && c.verify_violations == 0 &&
                       r.verify.has_value() && r.verify->clean();
    std::printf("serve_stream_verify\t%llu\t%.3f\t%zu\t%s\n",
                static_cast<unsigned long long>(c.verified_launches), wall,
                r.verify.has_value() ? r.verify->interfering_pairs : 0,
                clean ? "clean" : "VIOLATIONS");
    if (!clean) {
      std::fprintf(stderr, "verify_scale: serve_stream_verify: %s\n",
                   r.verify.has_value() ? r.verify->summary().c_str()
                                        : "no verify report");
      failed = true;
    }
  }

  return failed ? 1 : 0;
}
