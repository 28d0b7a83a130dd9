#include "obs/flight.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace visrt::obs {

namespace {

// One thread's ring.  Single writer (the owning thread); every field of
// every slot is individually atomic so concurrent readers (snapshot,
// crash dump from another thread or a signal frame) never race in the
// language-semantics sense — at worst they read a torn *slot* (fields
// from two different events), which the seq-ordering pass tolerates.
struct FlightRing {
  static constexpr std::size_t kCapacity = 2048;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint32_t> kind{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };

  std::array<Slot, kCapacity> slots;
  std::atomic<std::uint64_t> head{0}; ///< events ever written
};

std::atomic<std::uint64_t> g_seq{0};
std::atomic<std::uint64_t> g_last_launch{0}; ///< breadcrumb for CheckFailure

// Every ring ever allocated, and the free ones (rings of exited threads,
// most recently freed last).  Leaked on purpose: thread_local leases and
// crash dumps may outlive static destruction.
struct RingPool {
  std::mutex mu;
  std::vector<FlightRing*> all;
  std::vector<FlightRing*> free;
};

RingPool& pool() {
  static RingPool* instance = new RingPool;
  return *instance;
}

// The calling thread's ring, returned to the free stack at thread exit.
struct RingLease {
  FlightRing* ring = nullptr;
  ~RingLease() {
    if (ring == nullptr) return;
    std::lock_guard<std::mutex> lock(pool().mu);
    pool().free.push_back(ring);
  }
};

FlightRing& local_ring() {
  thread_local RingLease lease;
  if (lease.ring != nullptr) return *lease.ring;
  RingPool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  if (p.free.empty()) {
    p.all.push_back(new FlightRing);
    lease.ring = p.all.back();
  } else {
    lease.ring = p.free.back();
    p.free.pop_back();
  }
  return *lease.ring;
}

std::atomic<FlightContextProvider> g_context_provider{nullptr};

std::mutex g_dump_mu; ///< guards g_dump_dir / g_last_dump_path
std::string& dump_dir() {
  static std::string dir;
  return dir;
}
std::string& last_dump_path() {
  static std::string path;
  return path;
}

std::atomic<bool> g_dumped{false}; ///< one crash dump per process

void crash_dump(std::string_view reason) {
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return;
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    dir = dump_dir();
  }
  const std::string path = flight_dump(reason, dir);
  if (!path.empty())
    std::fprintf(stderr, "visrt: flight recorder dump written to %s\n",
                 path.c_str());
}

void check_hook(std::string_view message) {
  flight_record(FlightKind::CheckFailure,
                g_last_launch.load(std::memory_order_relaxed), 0);
  crash_dump(message);
}

void fatal_signal_handler(int sig) {
  // Not async-signal-safe in the strict sense (allocation, stdio) — the
  // process is dying anyway and a best-effort artifact beats none.  The
  // g_dumped guard keeps a crash *inside* the dump path from recursing.
  crash_dump(std::string("fatal signal ") + std::to_string(sig));
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

} // namespace

void flight_record(FlightKind kind, std::uint64_t a, std::uint64_t b) {
  if (kind == FlightKind::Launch)
    g_last_launch.store(a, std::memory_order_relaxed);
  FlightRing& ring = local_ring();
  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t at =
      ring.head.fetch_add(1, std::memory_order_relaxed) %
      FlightRing::kCapacity;
  FlightRing::Slot& slot = ring.slots[at];
  slot.ns.store(prof_now_ns(), std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint32_t>(kind),
                  std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  // seq last, with release: a reader that sees the new seq sees the new
  // payload (same-slot overwrites can still tear; see FlightRing).
  slot.seq.store(seq, std::memory_order_release);
}

std::vector<FlightEvent> flight_snapshot() {
  std::vector<FlightEvent> events;
  RingPool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  for (const FlightRing* ring : p.all) {
    for (const FlightRing::Slot& slot : ring->slots) {
      FlightEvent ev;
      ev.seq = slot.seq.load(std::memory_order_acquire);
      if (ev.seq == 0) continue;
      ev.ns = slot.ns.load(std::memory_order_relaxed);
      ev.kind = static_cast<FlightKind>(
          slot.kind.load(std::memory_order_relaxed));
      ev.a = slot.a.load(std::memory_order_relaxed);
      ev.b = slot.b.load(std::memory_order_relaxed);
      events.push_back(ev);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return events;
}

void flight_set_context_provider(FlightContextProvider provider) {
  g_context_provider.store(provider, std::memory_order_release);
}

std::string flight_dump_json(std::string_view reason) {
  const std::vector<FlightEvent> events = flight_snapshot();
  std::ostringstream os;
  os << "{\"schema_version\":1,\"reason\":\"" << json_escape(reason)
     << "\",\"pid\":" << static_cast<std::uint64_t>(::getpid())
     << ",\"time_ns\":" << prof_now_ns()
     << ",\"last_launch\":" << g_last_launch.load(std::memory_order_relaxed)
     << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) os << ",";
    const FlightEvent& ev = events[i];
    os << "{\"seq\":" << ev.seq << ",\"ns\":" << ev.ns << ",\"kind\":\""
       << flight_kind_name(ev.kind) << "\",\"a\":" << ev.a
       << ",\"b\":" << ev.b << "}";
  }
  os << "],\"context\":";
  FlightContextProvider provider =
      g_context_provider.load(std::memory_order_acquire);
  if (provider != nullptr) {
    os << provider();
  } else {
    os << "null";
  }
  os << "}";
  return os.str();
}

std::string flight_dump(std::string_view reason, std::string_view dir) {
  const std::uint64_t epoch_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string path;
  if (!dir.empty()) {
    path = std::string(dir);
    if (path.back() != '/') path += '/';
  }
  path += "visrt-flight-" + std::to_string(epoch_ms) + "-" +
          std::to_string(static_cast<std::uint64_t>(::getpid())) + ".json";
  const std::string doc = flight_dump_json(reason);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (!ok) return {};
  std::lock_guard<std::mutex> lock(g_dump_mu);
  last_dump_path() = path;
  return path;
}

std::string flight_last_dump_path() {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  return last_dump_path();
}

void flight_arm_crash_dumps(std::string_view dir) {
  {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    dump_dir() = std::string(dir);
  }
  set_check_failure_hook(&check_hook);
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
    std::signal(sig, &fatal_signal_handler);
}

} // namespace visrt::obs
