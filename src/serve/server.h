// visrt/serve/server.h
//
// The streaming analysis daemon behind `visrt_cli serve`: a local
// (AF_UNIX) socket server multiplexing concurrent client sessions, each an
// independent serve::StreamSession (its own Runtime, incremental analysis,
// epoch retirement).  Sessions share nothing but the aggregated counters,
// following the Distributed FrameBuffer serving pattern: many producers
// feed independent analysis state, and observability aggregates
// asynchronously off the ingest path.
//
// Wire protocol (line-oriented, one session per connection):
//
//   client -> server   .visprog statements, one per line (fuzz/serialize.h)
//   client -> server   @metrics     reply with one metrics JSON line
//   client -> server   @health      reply with one health-verdict JSON line
//   client -> server   @prometheus  reply with a text-exposition block
//                                   terminated by a "# EOF" line
//   client -> server   @end         finish the session, reply with one
//                                   result JSON line, close
//   server -> client   {"error":...}  a rejected statement (session lives)
//
// EOF without @end behaves like @end (half-close friendly), and a final
// line without a newline still counts.  SIGTERM drain: Server::stop()
// stops accepting, then every connection finishes its in-flight session,
// writes its result line and closes — no analysis state is dropped.
//
// The metrics line is the schema-v2 envelope with a "serve" section
// (docs/SERVING.md); host-dependent timing lives in its "timing"
// subobject so tests can strip it and byte-compare the rest.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/session.h"

namespace visrt::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket.
  std::string socket_path;
  /// Per-session execution and memory-bounding knobs.
  SessionOptions session;
  /// Stop-flag poll interval for the accept and connection loops.
  int poll_interval_ms = 200;
  /// Background sampler cadence (daemon mode): every interval the
  /// sampler thread snapshots counters/latency/residency into the bounded
  /// time-series ring.  0 disables the sampler.
  int sampler_interval_ms = 1000;
  /// Time-series ring capacity (oldest samples overwritten).
  std::size_t sampler_capacity = 600;
};

/// One time-series point the sampler records (daemon mode).
struct ServeSample {
  double uptime_s = 0;
  std::uint64_t statements = 0;
  std::uint64_t launches = 0;
  std::uint64_t sessions_active = 0;
  std::uint64_t resident_launches = 0;
  std::uint64_t launch_p99_ns = 0; ///< running launch-analysis p99
};

/// Point-in-time aggregate across all sessions, ever and active.
struct ServeStats {
  std::uint64_t sessions_total = 0;     ///< sessions that saw a statement
  std::uint64_t sessions_active = 0;
  std::uint64_t sessions_completed = 0; ///< finished cleanly (incl. drains)
  std::uint64_t sessions_failed = 0;    ///< died on a non-recoverable error
  SessionCounters totals;               ///< summed over all sessions
  std::uint64_t resident_launches = 0;  ///< gauge: sum over active sessions
  std::uint64_t resident_ops = 0;       ///< gauge: sum over active sessions
  std::uint64_t live_eqsets = 0;        ///< gauge: sum over active sessions
  std::uint64_t sessions_in_backoff = 0; ///< gauge: active, over-cap backoff
  double uptime_s = 0;
};

class Server {
public:
  explicit Server(ServerOptions options);
  ~Server();

  /// Bind + listen + start the accept loop.  Throws ApiError when the
  /// socket cannot be created.
  void start();

  /// Graceful drain: stop accepting, finish every in-flight session
  /// (each writes its result line), join all threads, remove the socket.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Has stop() been requested (e.g. by a signal handler via
  /// request_stop)?
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }
  /// Async-signal-safe stop request; the accept/connection loops notice
  /// it within one poll interval.  stop() must still be called to join.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Single-session stdin mode: read statements/controls from `in`,
  /// write replies to `out`; returns when the stream ends.  No threads.
  /// The session is driven, published and accounted exactly like a socket
  /// connection's: one that throws writes one {"error":...} line and
  /// counts in sessions_failed.
  void run_stream(std::istream& in, std::ostream& out);

  ServeStats stats() const;
  /// The schema-v2 metrics envelope with the "serve" section (including
  /// the "latency" histogram section; docs/SERVING.md).
  std::string metrics_json() const;
  /// One-line up/degraded/draining verdict (the @health reply).
  std::string health_json() const;
  /// Prometheus/OpenMetrics text exposition of every counter, gauge and
  /// latency histogram, terminated by a "# EOF" line (the @prometheus
  /// reply).
  std::string prometheus_text() const;

  /// The shared latency block every session of this server records into.
  const SessionLatency& latency() const { return latency_; }

  /// Copy of the sampler's time-series ring, oldest first (empty when the
  /// sampler is disabled).
  std::vector<ServeSample> samples() const;

  /// Context JSON attached to flight-recorder crash dumps: the latency
  /// section plus (best-effort, try-lock) live session gauges.  Safe to
  /// call from crash handlers on any thread.
  std::string flight_context_json() const;

private:
  struct Connection;
  void accept_loop();
  void handle_connection(Connection& conn, int fd);
  /// The one session loop both transports share (socket and stdin):
  /// every complete line of each chunk `read` appends to the input buffer
  /// goes to handle_line until @end or until `read` reports end of input;
  /// then the end-of-stream finish, the failure accounting, and the
  /// session's release.
  void drive(Connection& conn,
             const std::function<bool(std::string&)>& read);
  /// One complete input line: control (@...) or statement.  Returns false
  /// when the connection should close.
  bool handle_line(Connection& conn, std::string_view line,
                   std::string& reply);
  /// Answers one control line other than @end into `reply`.
  void dispatch_control(std::string_view line, std::string& reply);
  /// The "latency" section body (deterministic counts + strippable
  /// "timing" subobjects).
  std::string latency_section_json() const;
  void publish(Connection& conn, bool active);
  std::string result_json(const StreamSession& session) const;
  void sampler_start();
  void sampler_stop();

  ServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<Connection>> conns_;
  SessionCounters finished_totals_;
  std::uint64_t sessions_total_ = 0;
  std::uint64_t sessions_completed_ = 0;
  std::uint64_t sessions_failed_ = 0;
  std::chrono::steady_clock::time_point start_time_;

  /// Shared latency sink (ServerOptions::session.latency points here, so
  /// every session — socket or stdin — records into it wait-free).
  SessionLatency latency_;

  /// Sampler state: a bounded ring of ServeSample, guarded by mu_.
  std::thread sampler_thread_;
  std::vector<ServeSample> samples_;
  std::size_t samples_next_ = 0;
  std::uint64_t samples_taken_ = 0;
  void sampler_loop();
};

} // namespace visrt::serve
