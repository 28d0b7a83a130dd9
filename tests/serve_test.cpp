// Streaming analysis service tests: serve::StreamSession equivalence with
// the batch oracle under retirement / history collapsing / chunked feeds,
// bounded residency under caps, and serve::Server end-to-end over stdin
// streams and AF_UNIX sockets with concurrent clients.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/serialize.h"
#include "json_util.h"
#include "obs/flight.h"
#include "runtime/runtime.h"
#include "serve/server.h"
#include "serve/session.h"

using namespace visrt;

namespace {

/// Feed a serialized program through a StreamSession in fixed-size chunks.
void feed_chunked(serve::StreamSession& session, const std::string& prog,
                  std::size_t chunk) {
  for (std::size_t off = 0; off < prog.size(); off += chunk)
    session.feed(std::string_view(prog).substr(off, chunk));
  session.finish();
}

std::string serialize(const fuzz::ProgramSpec& spec) {
  std::ostringstream os;
  fuzz::write_visprog(os, spec);
  return os.str();
}

/// A long figure-5-shaped ghost-exchange stream: `pieces` disjoint primary
/// pieces, an aliased ghost partition, two fields swapped per step.
std::string ghost_stream(std::size_t pieces, std::size_t steps,
                         std::size_t nodes = 4, bool dcr = false) {
  std::ostringstream os;
  os << "visprog 1\n"
     << "config nodes=" << nodes << " dcr=" << dcr
     << " tracing=0 subject=raycast\n"
     << "tree A " << 10 * pieces << "\n"
     << "partition P parent=0";
  for (std::size_t p = 0; p < pieces; ++p)
    os << " [" << 10 * p << "," << 10 * p + 9 << "]";
  os << "\npartition G parent=0";
  for (std::size_t p = 0; p < pieces; ++p) {
    if (p == 0)
      os << " [10,11]";
    else if (p + 1 == pieces)
      os << " [" << 10 * p - 2 << "," << 10 * p - 1 << "]";
    else
      os << " [" << 10 * p - 2 << "," << 10 * p - 1 << "]+[" << 10 * (p + 1)
         << "," << 10 * (p + 1) + 1 << "]";
  }
  os << "\nfield up tree=0 mod=11\nfield down tree=0 mod=11\n";
  for (std::size_t s = 0; s < steps; ++s) {
    os << "index salt=" << s
       << (s % 2 == 0 ? " p0 f0 rw | p1 f1 red:sum\n"
                      : " p0 f1 rw | p1 f0 red:sum\n");
    if (s % 2 == 1) os << "end_iteration\n";
  }
  return os.str();
}

} // namespace

// ---------------------------------------------------------------------------
// StreamSession equivalence with the batch oracle.

TEST(ServeSession, StreamMatchesBatchOnGeneratedPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    fuzz::ProgramSpec spec = fuzz::generate_program(rng);
    fuzz::RunResult batch = fuzz::run_program(spec);
    if (batch.crashed) continue; // the fuzz oracle's jurisdiction

    serve::SessionOptions so;
    so.retire_every = 1 + seed % 4;
    so.max_history_depth = seed % 3;
    serve::StreamSession session(so);
    feed_chunked(session, serialize(spec), 1 + seed % 37);

    const serve::SessionResult& r = session.result();
    EXPECT_EQ(r.launches, batch.launch_hashes.size()) << "seed " << seed;
    EXPECT_EQ(r.dep_edges, batch.dep_edges) << "seed " << seed;
    EXPECT_EQ(r.dep_graph_hash, batch.dep_graph_hash) << "seed " << seed;
    EXPECT_EQ(r.schedule_hash, batch.schedule_hash) << "seed " << seed;
    EXPECT_EQ(r.value_hash, fnv1a_all(batch.launch_hashes))
        << "seed " << seed;
    EXPECT_EQ(r.final_hashes, batch.final_hashes) << "seed " << seed;
  }
}

// Retirement must be invisible in every fingerprint: a session retiring
// every 3 launches and one that never retires must agree bit-for-bit with
// plain batch execution, per-launch values included (through the fold).
TEST(ServeSession, RetirementEquivalence) {
  Rng rng(2026);
  fuzz::ProgramSpec spec = fuzz::generate_program(rng);
  fuzz::RunResult batch = fuzz::run_program(spec);
  ASSERT_FALSE(batch.crashed) << batch.crash_message;

  for (std::size_t retire_every : {std::size_t{0}, std::size_t{3}}) {
    serve::SessionOptions so;
    so.retire_every = retire_every;
    serve::StreamSession session(so);
    feed_chunked(session, serialize(spec), 4096);
    ASSERT_NE(session.runtime(), nullptr) << "retire_every=" << retire_every;
    const serve::SessionResult& r = session.result();
    EXPECT_EQ(r.dep_graph_hash, batch.dep_graph_hash)
        << "retire_every=" << retire_every;
    EXPECT_EQ(r.schedule_hash, batch.schedule_hash)
        << "retire_every=" << retire_every;
    EXPECT_EQ(r.launches, batch.launch_hashes.size())
        << "retire_every=" << retire_every;
    EXPECT_EQ(r.value_hash, fnv1a_all(batch.launch_hashes))
        << "retire_every=" << retire_every;
    EXPECT_EQ(r.final_hashes, batch.final_hashes)
        << "retire_every=" << retire_every;
    // The resident window's DES schedule still honors every resident
    // dependence edge after retirement.
    EXPECT_EQ(fuzz::validate_schedule(*session.runtime()), "")
        << "retire_every=" << retire_every;
  }
}

// Under DCR every node's issue chain bounds the future floor, so a cut
// must wait for the slowest of 64 tails.  Retiring at two cadences must
// leave every hash and the simulated times of a session that never
// retires unchanged.
TEST(ServeSession, RetirementEquivalenceUnderDcrAtSixtyFourNodes) {
  const std::string prog = ghost_stream(64, 40, 64, true);
  auto run = [&prog](std::size_t retire_every) {
    serve::SessionOptions so;
    so.retire_every = retire_every;
    if (retire_every == 0) so.max_resident_launches = 0; // the cap retires too
    auto session = std::make_unique<serve::StreamSession>(so);
    feed_chunked(*session, prog, 4096);
    return session;
  };
  const auto off = run(0);
  ASSERT_NE(off->runtime(), nullptr);
  EXPECT_EQ(off->counters().retired_ops, 0u);
  const RunStats want = off->runtime()->stats();
  for (std::size_t retire_every : {std::size_t{16}, std::size_t{1024}}) {
    const auto on = run(retire_every);
    ASSERT_NE(on->runtime(), nullptr);
    EXPECT_GT(on->counters().retired_ops, 0u)
        << "retire_every=" << retire_every;
    EXPECT_EQ(on->result().dep_graph_hash, off->result().dep_graph_hash)
        << "retire_every=" << retire_every;
    EXPECT_EQ(on->result().schedule_hash, off->result().schedule_hash)
        << "retire_every=" << retire_every;
    EXPECT_EQ(on->result().value_hash, off->result().value_hash)
        << "retire_every=" << retire_every;
    EXPECT_EQ(on->result().final_hashes, off->result().final_hashes)
        << "retire_every=" << retire_every;
    const RunStats got = on->runtime()->stats();
    EXPECT_EQ(got.init_time_s, want.init_time_s)
        << "retire_every=" << retire_every;
    EXPECT_EQ(got.total_time_s, want.total_time_s)
        << "retire_every=" << retire_every;
  }
}

TEST(ServeSession, ResidencyCapPlateausUnderLongStreams) {
  constexpr std::size_t kPieces = 8;
  constexpr std::size_t kSteps = 400; // 3200 launches
  serve::SessionOptions so;
  so.retire_every = 32;
  so.max_resident_launches = 128;
  so.max_history_depth = 8;
  so.track_values = false;
  serve::StreamSession session(so);
  feed_chunked(session, ghost_stream(kPieces, kSteps), 512);

  const serve::SessionCounters& c = session.counters();
  EXPECT_EQ(c.launches, kPieces * kSteps);
  EXPECT_GT(c.retired_launches, c.launches / 2);
  // The plateau: the cap plus one retire interval's worth of growth plus
  // the analysis tail the pop-order cut cannot cross yet.
  EXPECT_LE(c.peak_resident_launches,
            so.max_resident_launches + 4 * (so.retire_every + kPieces) + 64);
  // Retirement actually bounds the op window too, not just launches.
  EXPECT_LT(c.peak_resident_ops, 16 * c.peak_resident_launches + 4096);
}

// Composite-view history collapsing must fold old value payloads without
// perturbing any hash, and must actually collapse something at low depth.
TEST(ServeSession, HistoryCollapsingPreservesHashes) {
  const std::string prog = ghost_stream(6, 40);

  serve::SessionOptions base;
  base.retire_every = 0;
  base.max_history_depth = 0; // keep everything
  serve::StreamSession full(base);
  feed_chunked(full, prog, 256);

  serve::SessionOptions shallow = base;
  shallow.max_history_depth = 2;
  serve::StreamSession collapsed(shallow);
  feed_chunked(collapsed, prog, 256);

  EXPECT_EQ(collapsed.result().dep_graph_hash, full.result().dep_graph_hash);
  EXPECT_EQ(collapsed.result().schedule_hash, full.result().schedule_hash);
  EXPECT_EQ(collapsed.result().value_hash, full.result().value_hash);
  EXPECT_EQ(collapsed.result().final_hashes, full.result().final_hashes);
  ASSERT_NE(collapsed.runtime(), nullptr);
  EXPECT_GT(collapsed.runtime()->engine_stats().collapsed_entries, 0u);
}

TEST(ServeSession, RejectedStatementsDoNotAbortTheSession) {
  serve::SessionOptions so;
  std::vector<std::string> errors;
  so.on_error = [&errors](const std::string& e) { errors.push_back(e); };
  serve::StreamSession session(so);
  session.feed("visprog 1\n"
               "config nodes=2 dcr=0 tracing=0 subject=raycast\n"
               "tree A 20\n"
               "this is not a statement\n"
               "field f tree=0 mod=7\n"
               "task node=0 salt=1 r0 f0 rw\n"
               "task node=0 salt=2 r0 f9 rw\n" // unknown field: rejected
               "task node=0 salt=3 r0 f0 rw\n");
  session.finish();
  EXPECT_EQ(errors.size(), 2u);
  EXPECT_EQ(session.counters().rejected, 2u);
  EXPECT_EQ(session.result().launches, 2u);

  // The retired `threads` directive is an unknown statement now: a stream
  // still carrying it gets exactly one recoverable error line, and its
  // result equals that of the same stream without the line.
  auto serve_lines = [](const std::string& prog) {
    serve::Server server(serve::ServerOptions{});
    std::istringstream in(prog + "@end\n");
    std::ostringstream out;
    server.run_stream(in, out);
    std::vector<std::string> lines;
    std::istringstream reply(out.str());
    for (std::string line; std::getline(reply, line);) lines.push_back(line);
    return lines;
  };
  const std::string plain = ghost_stream(4, 10);
  const std::vector<std::string> want = serve_lines(plain);
  ASSERT_EQ(want.size(), 1u);
  std::string prog = plain;
  prog.insert(prog.find("tree "), "threads 8\n");
  const std::vector<std::string> got = serve_lines(prog);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].rfind("{\"error\":", 0), 0u) << got[0];
  const std::string rejected = "\"rejected\":1";
  std::string result = got[1];
  const std::size_t at = result.find(rejected);
  ASSERT_NE(at, std::string::npos) << result;
  result.replace(at, rejected.size(), "\"rejected\":0");
  EXPECT_EQ(result, want[0]);
}

// ---------------------------------------------------------------------------
// Server: stdin-mode stream and AF_UNIX socket with concurrent clients.

TEST(ServeServer, StdinStreamEmitsResultAndMetrics) {
  serve::ServerOptions options;
  serve::Server server(options);
  std::istringstream in(ghost_stream(4, 10) + "@metrics\n@end\n");
  std::ostringstream out;
  server.run_stream(in, out);

  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema_version\":2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"serve\""), std::string::npos);
  EXPECT_NE(text.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(text.find("\"dep_graph_hash\""), std::string::npos);
  EXPECT_EQ(server.stats().sessions_failed, 0u);
  EXPECT_EQ(server.stats().sessions_completed, 1u);
}

// The stdin transport runs the socket's session loop: a session that
// throws replies with one error line and fails alone, and run_stream
// returns normally.
TEST(ServeServer, StdinSessionFailureFailsOnlyThatSession) {
  ScopedCheckThrows catchable;
  serve::ServerOptions options;
  options.session.inject_check_failure_after = 10;
  serve::Server server(options);
  std::istringstream in(ghost_stream(4, 20));
  std::ostringstream out;
  server.run_stream(in, out);

  std::vector<std::string> lines;
  std::istringstream reply(out.str());
  for (std::string line; std::getline(reply, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u) << out.str();
  EXPECT_EQ(lines[0].rfind("{\"error\":", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("injected check failure"), std::string::npos)
      << lines[0];
  EXPECT_EQ(server.stats().sessions_failed, 1u);
  EXPECT_EQ(server.stats().sessions_completed, 0u);
}

namespace {

/// Minimal blocking AF_UNIX client: send `program`, shutdown the write
/// side when `eof` is set, then read until the server closes.
std::string client_roundtrip(const std::string& path,
                             const std::string& program, bool eof) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // The server binds asynchronously; retry briefly.
  int rc = -1;
  for (int attempt = 0; attempt < 100 && rc != 0; ++attempt) {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(rc, 0) << "connect to " << path;
  std::size_t off = 0;
  while (off < program.size()) {
    ssize_t n = ::send(fd, program.data() + off, program.size() - off, 0);
    EXPECT_GT(n, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  if (eof) ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string test_socket_path(const char* tag) {
  return "/tmp/visrt_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

} // namespace

TEST(ServeServer, ConcurrentSocketClientsGetIdenticalResults) {
  serve::ServerOptions options;
  options.socket_path = test_socket_path("conc");
  options.poll_interval_ms = 20;
  serve::Server server(options);
  server.start();

  const std::string program = ghost_stream(4, 20) + "@end\n";
  std::vector<std::string> replies(2);
  std::thread a([&] { replies[0] = client_roundtrip(options.socket_path,
                                                    program, false); });
  std::thread b([&] { replies[1] = client_roundtrip(options.socket_path,
                                                    program, false); });
  a.join();
  b.join();
  server.stop();

  EXPECT_FALSE(replies[0].empty());
  // Identical program => byte-identical result line (no timing inside).
  EXPECT_EQ(replies[0], replies[1]);
  EXPECT_NE(replies[0].find("\"ok\":true"), std::string::npos) << replies[0];
  EXPECT_EQ(server.stats().sessions_completed, 2u);
  EXPECT_EQ(server.stats().sessions_failed, 0u);
}

// Both transports apply a final statement that has no newline before EOF,
// so the same bytes get the same result line over the socket and stdin.
TEST(ServeServer, FinalUnterminatedLineCountsOnBothTransports) {
  std::string program = ghost_stream(4, 6);
  ASSERT_EQ(program.back(), '\n');
  program.pop_back();

  serve::ServerOptions options;
  options.socket_path = test_socket_path("eof");
  options.poll_interval_ms = 20;
  serve::Server server(options);
  server.start();
  const std::string socket_reply =
      client_roundtrip(options.socket_path, program, true);
  server.stop();

  serve::Server stdin_server(serve::ServerOptions{});
  std::istringstream in(program);
  std::ostringstream out;
  stdin_server.run_stream(in, out);

  EXPECT_NE(out.str().find("\"ok\":true"), std::string::npos) << out.str();
  EXPECT_EQ(socket_reply, out.str());
}

// A stop() while a client holds an open session must drain it: the client
// still receives its result line, and the session counts as completed.
TEST(ServeServer, StopDrainsInFlightSessions) {
  serve::ServerOptions options;
  options.socket_path = test_socket_path("drain");
  options.poll_interval_ms = 20;
  serve::Server server(options);
  server.start();

  std::string reply;
  std::thread client([&] {
    // Full program but no @end and no EOF: the session stays open until
    // the server drains it.
    reply = client_roundtrip(options.socket_path, ghost_stream(4, 6), false);
  });
  // Give the worker time to ingest, then ask for a drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.request_stop();
  server.stop();
  client.join();

  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  EXPECT_EQ(server.stats().sessions_completed, 1u);
  EXPECT_EQ(server.stats().sessions_failed, 0u);
}

// ---------------------------------------------------------------------------
// Telemetry: @health / @prometheus, deterministic latency counts, and the
// flight-recorder crash-dump round trip.

TEST(ServeServer, HealthAndPrometheusAnswerOverTheSocket) {
  serve::ServerOptions options;
  options.socket_path = test_socket_path("health");
  options.poll_interval_ms = 20;
  options.sampler_interval_ms = 10; // exercise the sampler thread too
  serve::Server server(options);
  server.start();

  const std::string program =
      ghost_stream(4, 10) + "@health\n@prometheus\n@end\n";
  const std::string reply =
      client_roundtrip(options.socket_path, program, false);
  server.stop();

  // Health verdict: a live, uncapped single-session server is "ok".
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"draining\":false"), std::string::npos);
  EXPECT_NE(reply.find("\"sessions_in_backoff\":0"), std::string::npos);
  // Prometheus exposition: typed counters, latency histograms with
  // cumulative buckets, and the "# EOF" terminator for the block reply.
  EXPECT_NE(reply.find("# TYPE visrt_serve_launches_total counter"),
            std::string::npos);
  EXPECT_NE(reply.find("visrt_serve_launch_analysis_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(reply.find("visrt_serve_launch_analysis_seconds_count"),
            std::string::npos);
  EXPECT_NE(reply.find("# EOF"), std::string::npos);
  // The session still finishes normally after the control lines.
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos);
}

TEST(ServeFlight, InjectedCheckFailureWritesParseableDump) {
  const std::string dir = "/tmp"; // dump lands as /tmp/visrt-flight-*.json
  obs::flight_arm_crash_dumps(dir);

  ScopedCheckThrows catchable; // hook fires, then the failure throws
  serve::SessionOptions so;
  so.inject_check_failure_after = 10;
  serve::StreamSession session(so);
  bool threw = false;
  try {
    session.feed(ghost_stream(4, 20));
    session.finish();
  } catch (const CheckFailure& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  ASSERT_TRUE(threw) << "the injected check failure must surface";
  // Launch ids are the stream position: the last launch before the
  // injected failure is launches - 1.
  ASSERT_GE(session.counters().launches, 10u);
  const double failing = static_cast<double>(session.counters().launches - 1);

  const std::string path = obs::flight_last_dump_path();
  ASSERT_FALSE(path.empty()) << "check-failure hook must write a dump";
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << path;
  std::stringstream buf;
  buf << f.rdbuf();
  auto doc = testjson::parse(buf.str());
  ASSERT_TRUE(doc.has_value()) << "dump must be valid JSON: " << path;

  EXPECT_NE(doc->at("reason").str().find("injected"), std::string::npos);
  EXPECT_EQ(doc->at("last_launch").number(), failing);
  bool saw_check_failure = false;
  bool saw_failing_launch = false;
  for (const testjson::Value& ev : doc->at("events").array()) {
    const std::string& kind = ev.at("kind").str();
    if (kind == "check_failure") {
      saw_check_failure = true;
      // The breadcrumb: the failing launch id rides in the event payload.
      EXPECT_EQ(ev.at("a").number(), failing);
    }
    if (kind == "launch" && ev.at("a").number() == failing)
      saw_failing_launch = true;
  }
  EXPECT_TRUE(saw_check_failure);
  EXPECT_TRUE(saw_failing_launch);
  std::remove(path.c_str());
}

TEST(ServeFlight, ExitedThreadRingIsReusedNotGrown) {
  // The daemon runs one thread per connection.  An exited thread's ring
  // goes back on the free stack and the next thread takes it, so the rings
  // track the peak thread count; the dead thread's events stay visible
  // until the new owner overwrites them.
  constexpr std::uint64_t kMark = 0xF1167;
  constexpr std::size_t kRingSlots = 2048;
  std::thread first([] {
    for (std::size_t i = 0; i < kRingSlots; ++i)
      obs::flight_record(obs::FlightKind::Control, kMark, i);
  });
  first.join();
  std::thread second(
      [] { obs::flight_record(obs::FlightKind::Control, kMark, kRingSlots); });
  second.join();
  std::size_t marked = 0;
  for (const obs::FlightEvent& ev : obs::flight_snapshot())
    if (ev.kind == obs::FlightKind::Control && ev.a == kMark) ++marked;
  // The second thread's event overwrote the oldest of the first's.
  EXPECT_EQ(marked, kRingSlots);
}
