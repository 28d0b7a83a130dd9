// Steady-state heap calls per launch, pinned.  This executable replaces the
// global operator new with one that counts its calls, runs small shapes of
// the three benchmark workloads (Stencil under Warnock, Circuit under ray
// casting with DCR, and a retiring ghost-exchange stream) twice — a short
// and a long run — and divides the difference in heap calls by the
// difference in launches.  What the first launches allocate (fields,
// equivalence sets, caches) cancels; what is left is what one more launch
// costs in steady state.
//
// Each bound is the count measured when it was set (the same in Release,
// Debug and ASan builds) plus less than one call, so one more heap call
// per launch fails here.  A change that allocates less should lower the
// bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "apps/circuit.h"
#include "apps/stencil.h"
#include "geom/interval_store.h"
#include "runtime/runtime.h"
#include "serve/session.h"

namespace {
std::atomic<std::uint64_t> g_heap_calls{0};

void* counted_malloc(std::size_t n) {
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
} // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace visrt;

namespace {

struct Tally {
  std::uint64_t heap_calls = 0;
  std::uint64_t launches = 0;
};

/// Heap calls per launch between a short and a long run of `run(len)`.
template <class Run>
double steady_calls_per_launch(Run run, int short_len, int long_len,
                               const char* shape) {
  const Tally a = run(short_len);
  const Tally b = run(long_len);
  EXPECT_GT(b.launches, a.launches) << shape;
  const double per_launch =
      static_cast<double>(b.heap_calls - a.heap_calls) /
      static_cast<double>(b.launches - a.launches);
  std::printf("%s: %.2f heap calls per launch (%llu launches)\n", shape,
              per_launch, static_cast<unsigned long long>(b.launches));
  return per_launch;
}

/// Counts the heap calls of `app.run()` only: the runtime and the app's
/// declarations are built before, and finish() runs after.
template <class App, class Config>
Tally run_app(const RuntimeConfig& rc, const Config& cfg) {
  Runtime rt(rc);
  App app(rt, cfg);
  const std::uint64_t before = g_heap_calls.load();
  app.run();
  Tally t;
  t.heap_calls = g_heap_calls.load() - before;
  t.launches = rt.finish().launches;
  return t;
}

TEST(HeapCalls, StencilWarnock) {
  auto run = [](int iterations) {
    RuntimeConfig rc;
    rc.algorithm = Algorithm::Warnock;
    rc.track_values = false;
    rc.machine.num_nodes = 4;
    apps::StencilConfig cfg;
    cfg.pieces_x = cfg.pieces_y = 2;
    cfg.tile_rows = cfg.tile_cols = 16;
    cfg.iterations = iterations;
    return run_app<apps::StencilApp>(rc, cfg);
  };
  // Measured: 39.91.
  EXPECT_LE(steady_calls_per_launch(run, 4, 20, "stencil warnock"), 40.0);
}

TEST(HeapCalls, CircuitRayCastDcr) {
  auto run = [](int iterations) {
    RuntimeConfig rc;
    rc.algorithm = Algorithm::RayCast;
    rc.dcr = true;
    rc.track_values = false;
    rc.machine.num_nodes = 8;
    apps::CircuitConfig cfg;
    cfg.pieces = 8;
    cfg.nodes_per_piece = 200;
    cfg.wires_per_piece = 300;
    cfg.cross_fraction = 0.15;
    cfg.iterations = iterations;
    return run_app<apps::CircuitApp>(rc, cfg);
  };
  // Measured: 71.44.
  EXPECT_LE(steady_calls_per_launch(run, 4, 20, "circuit raycast dcr"),
            72.0);
}

/// A Figure 5 ghost exchange over 8 pieces fed statement by statement to a
/// session that retires every 64 launches and collapses histories past 8.
TEST(HeapCalls, GhostStreamRetire) {
  std::string prologue =
      "visprog 1\nconfig nodes=4 dcr=0 tracing=0 subject=raycast\n"
      "tree A 80\npartition P parent=0";
  for (int p = 0; p < 8; ++p)
    prologue += " [" + std::to_string(10 * p) + "," +
                std::to_string(10 * p + 9) + "]";
  prologue += "\npartition G parent=0 [10,11]";
  for (int p = 1; p < 7; ++p)
    prologue += " [" + std::to_string(10 * p - 2) + "," +
                std::to_string(10 * p - 1) + "]+[" +
                std::to_string(10 * (p + 1)) + "," +
                std::to_string(10 * (p + 1) + 1) + "]";
  prologue += " [68,69]\nfield up tree=0 mod=11\nfield down tree=0 mod=11\n";

  auto run = [&prologue](int exchanges) {
    serve::SessionOptions so;
    so.retire_every = 64;
    so.max_resident_launches = 256;
    so.max_history_depth = 8;
    so.track_values = false;
    serve::StreamSession session(so);
    session.feed(prologue);
    const std::uint64_t before = g_heap_calls.load();
    for (int s = 0; s < exchanges; ++s) {
      session.feed(s % 2 == 0 ? "index salt=1 p0 f0 rw | p1 f1 red:sum\n"
                              : "index salt=2 p0 f1 rw | p1 f0 red:sum\n"
                                "end_iteration\n");
    }
    Tally t;
    t.heap_calls = g_heap_calls.load() - before;
    session.finish();
    EXPECT_EQ(session.counters().rejected, 0u);
    EXPECT_GT(session.counters().retire_calls, 0u);
    t.launches = session.counters().launches;
    return t;
  };
  // Measured: 65.45.
  EXPECT_LE(steady_calls_per_launch(run, 256, 1024, "ghost stream retire"),
            66.0);
}

/// Ray casting's interned domains: once an operation on two ids is
/// memoized, repeating it costs a hash probe and no heap call.
TEST(HeapCalls, DomainStoreMemoHits) {
  IntervalStore store;
  std::vector<IntervalStore::Id> ids;
  for (coord_t k = 0; k < 24; ++k)
    ids.push_back(
        store.intern(IntervalSet{{k, k + 9}, {3 * k + 40, 4 * k + 60}}));
  auto all_ops = [&] {
    for (IntervalStore::Id a : ids)
      for (IntervalStore::Id b : ids) {
        store.intersect(a, b);
        store.subtract(a, b);
        store.unite(a, b);
      }
  };
  all_ops(); // fills the memo
  const std::uint64_t before = g_heap_calls.load();
  all_ops(); // every call is a hit
  EXPECT_EQ(g_heap_calls.load() - before, 0u);
}

} // namespace
