#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace visrt::serve {

namespace {

/// Samples the daemon's time-series ring keeps (oldest overwritten).
constexpr std::size_t kSamplerCapacity = 600;

/// The server whose state flight-recorder crash dumps should attach as
/// context (last constructed wins; cleared by its destructor).  A plain
/// function pointer is all obs::flight accepts — it must be callable
/// from a crash frame with no captured state.
std::atomic<Server*> g_flight_context_server{nullptr};

std::string flight_context_thunk() {
  Server* server = g_flight_context_server.load(std::memory_order_acquire);
  return server != nullptr ? server->flight_context_json() : "null";
}

/// Accumulate one session's counters into an aggregate: monotone counts
/// add, residency peaks take the maximum over sessions (a per-session
/// bound, not a co-residency sum).
void merge_counters(SessionCounters& into, const SessionCounters& from) {
  into.statements += from.statements;
  into.rejected += from.rejected;
  into.launches += from.launches;
  into.iterations += from.iterations;
  into.retire_calls += from.retire_calls;
  into.retired_launches += from.retired_launches;
  into.retired_ops += from.retired_ops;
  into.eqset_slots_reclaimed += from.eqset_slots_reclaimed;
  into.peak_resident_launches =
      std::max(into.peak_resident_launches, from.peak_resident_launches);
  into.peak_resident_ops =
      std::max(into.peak_resident_ops, from.peak_resident_ops);
  into.verified_launches += from.verified_launches;
  into.verify_violations += from.verify_violations;
}

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string error_line(std::string_view what) {
  return "{\"error\":\"" + obs::json_escape(what) + "\"}";
}

/// Write `line` + '\n' to a socket, tolerating a vanished client.
void write_line(int fd, std::string_view line) {
  std::string buf(line);
  buf.push_back('\n');
  std::size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return; // client gone; the session result is still aggregated
    }
    off += static_cast<std::size_t>(n);
  }
}

} // namespace

/// One session's transport.  The thread serving the connection owns
/// `write`, `session` and `inbuf`; the mutable snapshot fields below the
/// comment are the published view other threads (stats/metrics) read
/// under Server::mu_.
struct Server::Connection {
  /// Writes one reply line (the transport's framing and flush).
  std::function<void(std::string_view)> write; // serving thread only
  std::unique_ptr<StreamSession> session;      // serving thread only
  std::string inbuf;                           // serving thread only

  // Published under Server::mu_ by publish():
  SessionCounters snap;
  std::uint64_t resident_launches = 0;
  std::uint64_t resident_ops = 0;
  std::uint64_t live_eqsets = 0;
  std::uint64_t retire_backoff = 0;
  bool counted = false; ///< included in sessions_total_
  bool active = false;  ///< has a live session not yet merged
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      start_time_(std::chrono::steady_clock::now()) {
  // Every session (socket or stdin) records into the server's shared
  // latency block; recording is wait-free, so sessions never serialize
  // on telemetry.
  options_.session.latency = &latency_;
  g_flight_context_server.store(this, std::memory_order_release);
  obs::flight_set_context_provider(&flight_context_thunk);
}

Server::~Server() {
  stop();
  Server* self = this;
  if (g_flight_context_server.compare_exchange_strong(self, nullptr))
    obs::flight_set_context_provider(nullptr);
}

void Server::start() {
  require(!started_, "server already started");
  require(!options_.socket_path.empty(), "serve: socket path is empty");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(options_.socket_path.size() < sizeof(addr.sun_path),
          "serve: socket path too long for AF_UNIX");
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(listen_fd_ >= 0, "serve: socket() failed");
  ::unlink(options_.socket_path.c_str()); // stale socket from a past run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ApiError("serve: cannot bind " + options_.socket_path + ": " +
                   std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ApiError(std::string("serve: listen() failed: ") +
                   std::strerror(errno));
  }
  int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);

  started_ = true;
  start_time_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
  sampler_start();
}

void Server::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  sampler_stop();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers.swap(workers_); // accept loop is down; no new workers appear
  }
  for (std::thread& w : workers)
    if (w.joinable()) w.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (started_) ::unlink(options_.socket_path.c_str());
  started_ = false;
}

void Server::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, options_.poll_interval_ms);
    if (rc <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->write = [fd](std::string_view line) { write_line(fd, line); };
    std::lock_guard<std::mutex> lock(mu_);
    conns_.push_back(conn);
    workers_.emplace_back([this, conn, fd] { handle_connection(*conn, fd); });
  }
}

void Server::handle_connection(Connection& conn, int fd) {
  drive(conn, [this, fd](std::string& inbuf) {
    char chunk[65536];
    for (;;) {
      if (stop_.load(std::memory_order_relaxed)) return false; // drain
      pollfd pfd{fd, POLLIN, 0};
      int rc = ::poll(&pfd, 1, options_.poll_interval_ms);
      if (rc < 0 && errno != EINTR) return false;
      if (rc <= 0) continue;
      ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) {
        // EOF: a final unterminated line still counts, as over stdin; the
        // end of input then behaves like @end.
        if (inbuf.empty()) return false;
        inbuf.push_back('\n');
        return true;
      }
      inbuf.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  });
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

void Server::drive(Connection& conn,
                   const std::function<bool(std::string&)>& read) {
  bool failed = false;
  bool ended = false;
  try {
    while (!ended && read(conn.inbuf)) {
      std::size_t start = 0;
      for (std::size_t nl;
           !ended && (nl = conn.inbuf.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        std::string_view line(conn.inbuf.data() + start, nl - start);
        std::string reply;
        ended = !handle_line(conn, line, reply);
        if (!reply.empty()) conn.write(reply);
      }
      conn.inbuf.erase(0, start);
      publish(conn, /*active=*/true);
    }
    // End of input or drain without @end: finish the in-flight session and
    // write its result line so no analysis state is silently dropped.
    if (!ended && conn.session != nullptr) {
      conn.session->finish();
      conn.write(result_json(*conn.session));
    }
  } catch (const std::exception& e) {
    conn.write(error_line(e.what()));
    failed = true;
  }
  publish(conn, /*active=*/false);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conn.counted) {
      merge_counters(finished_totals_, conn.snap);
      if (failed)
        ++sessions_failed_;
      else
        ++sessions_completed_;
    }
    conn.active = false;
    conn.resident_launches = conn.resident_ops = conn.live_eqsets = 0;
  }
  conn.session.reset(); // release the Runtime promptly
}

void Server::dispatch_control(std::string_view line, std::string& reply) {
  if (line == "@metrics") {
    const std::uint64_t begin = obs::prof_now_ns();
    reply = metrics_json();
    latency_.metrics_request.record(obs::prof_now_ns() - begin);
  } else if (line == "@health") {
    reply = health_json();
  } else if (line == "@prometheus") {
    reply = prometheus_text();
  } else {
    reply = error_line("unknown control line: " + std::string(line));
  }
  obs::flight_record(obs::FlightKind::Control, line.size(), reply.size());
}

bool Server::handle_line(Connection& conn, std::string_view line,
                         std::string& reply) {
  if (line == "@end") {
    if (conn.session != nullptr) {
      conn.session->finish();
      reply = result_json(*conn.session);
    } else {
      reply = "{\"ok\":true,\"launches\":0}";
    }
    return false;
  }
  if (!line.empty() && line.front() == '@') {
    // Freshen this connection's published counters first, so a control
    // reply covers the statements this very connection just ingested.
    if (conn.session != nullptr) publish(conn, /*active=*/true);
    dispatch_control(line, reply);
    return true;
  }
  if (conn.session == nullptr) {
    SessionOptions so = options_.session;
    so.on_error = [&conn](const std::string& what) {
      conn.write(error_line(what));
    };
    conn.session = std::make_unique<StreamSession>(std::move(so));
    std::lock_guard<std::mutex> lock(mu_);
    conn.counted = true;
    conn.active = true;
    ++sessions_total_;
  }
  std::string stmt(line);
  stmt.push_back('\n');
  conn.session->feed(stmt);
  return true;
}

void Server::publish(Connection& conn, bool active) {
  if (conn.session == nullptr) return;
  SessionCounters snap = conn.session->counters();
  std::uint64_t rl = 0, ro = 0, le = 0;
  if (const Runtime* rt = conn.session->runtime()) {
    rl = rt->resident_launches();
    ro = rt->work_graph().resident_ops();
    le = rt->engine_stats().live_eqsets;
  }
  const std::uint64_t backoff = conn.session->retire_backoff();
  std::lock_guard<std::mutex> lock(mu_);
  conn.snap = snap;
  conn.active = active && conn.counted;
  conn.resident_launches = rl;
  conn.resident_ops = ro;
  conn.live_eqsets = le;
  conn.retire_backoff = backoff;
}

ServeStats Server::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.totals = finished_totals_;
    s.sessions_total = sessions_total_;
    s.sessions_completed = sessions_completed_;
    s.sessions_failed = sessions_failed_;
    for (const std::shared_ptr<Connection>& c : conns_) {
      if (!c->active) continue;
      ++s.sessions_active;
      merge_counters(s.totals, c->snap);
      s.resident_launches += c->resident_launches;
      s.resident_ops += c->resident_ops;
      s.live_eqsets += c->live_eqsets;
      if (c->retire_backoff > 0) ++s.sessions_in_backoff;
    }
  }
  s.uptime_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_time_)
                   .count();
  return s;
}

std::string Server::metrics_json() const {
  ServeStats s = stats();
  const SessionCounters& t = s.totals;
  std::ostringstream os;
  os << "{\"schema_version\":" << obs::kMetricsSchemaVersion
     << ",\"binary\":\"visrt_serve\",\"serve\":{"
     << "\"sessions_total\":" << s.sessions_total
     << ",\"sessions_active\":" << s.sessions_active
     << ",\"sessions_completed\":" << s.sessions_completed
     << ",\"sessions_failed\":" << s.sessions_failed
     << ",\"statements\":" << t.statements << ",\"rejected\":" << t.rejected
     << ",\"launches\":" << t.launches << ",\"iterations\":" << t.iterations
     << ",\"retire_calls\":" << t.retire_calls
     << ",\"retired_launches\":" << t.retired_launches
     << ",\"retired_ops\":" << t.retired_ops
     << ",\"eqset_slots_reclaimed\":" << t.eqset_slots_reclaimed
     << ",\"peak_resident_launches\":" << t.peak_resident_launches
     << ",\"peak_resident_ops\":" << t.peak_resident_ops
     << ",\"resident_launches\":" << s.resident_launches
     << ",\"resident_ops\":" << s.resident_ops
     << ",\"live_eqsets\":" << s.live_eqsets;
  // Only sessions configured for inline verification report it — keeps
  // the metrics shape (and the CI golden) stable when verification is off.
  if (options_.session.verify)
    os << ",\"verify\":{\"verified_launches\":" << t.verified_launches
       << ",\"violations\":" << t.verify_violations << "}";
  os << ",\"caps\":{"
     << "\"max_resident_launches\":" << options_.session.max_resident_launches
     << ",\"max_history_depth\":" << options_.session.max_history_depth
     << ",\"retire_every\":" << options_.session.retire_every << "}"
     << ",\"latency\":" << latency_section_json()
     << ",\"timing\":{\"uptime_s\":" << obs::json_number(s.uptime_s)
     << ",\"launches_per_s\":"
     << obs::json_number(s.uptime_s > 0
                             ? static_cast<double>(t.launches) / s.uptime_s
                             : 0.0)
     << "}}}";
  return os.str();
}

std::string Server::latency_section_json() const {
  // Deterministic counts outside, host-dependent nanoseconds inside the
  // strippable "timing" subobject — mirroring the profiler's
  // structure/timing split so golden comparisons stay byte-exact.
  auto one = [](std::ostringstream& os, const char* key,
                const obs::HistogramSnapshot& snap) {
    os << "\"" << key << "\":{\"count\":" << snap.count
       << ",\"timing\":" << obs::histogram_timing_json(snap) << "}";
  };
  std::ostringstream os;
  os << "{";
  one(os, "launch_analysis", latency_.launch_analysis.snapshot());
  os << ",";
  one(os, "statement_parse", latency_.statement_parse.snapshot());
  os << ",";
  one(os, "retire_pause", latency_.retire_pause.snapshot());
  os << ",";
  one(os, "metrics_request", latency_.metrics_request.snapshot());
  os << "}";
  return os.str();
}

std::string Server::health_json() const {
  ServeStats s = stats();
  const std::size_t cap = options_.session.max_resident_launches;
  // Residency is summed over sessions and the cap is per-session, so the
  // fleet-level bound is cap * active sessions; per-session over-cap
  // pressure additionally surfaces as a nonzero retire backoff.
  const bool over_cap =
      cap != 0 && s.resident_launches >
                      static_cast<std::uint64_t>(cap) *
                          std::max<std::uint64_t>(1, s.sessions_active);
  const bool draining = stopping();
  const bool degraded = s.sessions_in_backoff > 0 || over_cap;
  const char* status = draining ? "draining" : degraded ? "degraded" : "ok";
  std::ostringstream os;
  os << "{\"status\":\"" << status << "\",\"draining\":"
     << (draining ? "true" : "false")
     << ",\"sessions_active\":" << s.sessions_active
     << ",\"sessions_total\":" << s.sessions_total
     << ",\"sessions_failed\":" << s.sessions_failed
     << ",\"sessions_in_backoff\":" << s.sessions_in_backoff
     << ",\"resident_launches\":" << s.resident_launches
     << ",\"max_resident_launches\":" << cap
     << ",\"launches\":" << s.totals.launches
     << ",\"uptime_s\":" << obs::json_number(s.uptime_s);
  {
    std::ostringstream tail;
    std::uint64_t taken = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      taken = samples_taken_;
    }
    std::vector<ServeSample> recent = samples();
    const std::size_t show = std::min<std::size_t>(recent.size(), 5);
    for (std::size_t i = recent.size() - show; i < recent.size(); ++i) {
      const ServeSample& smp = recent[i];
      if (tail.tellp() > 0) tail << ",";
      tail << "{\"uptime_s\":" << obs::json_number(smp.uptime_s)
           << ",\"launches\":" << smp.launches
           << ",\"sessions_active\":" << smp.sessions_active
           << ",\"resident_launches\":" << smp.resident_launches
           << ",\"launch_p99_ns\":" << smp.launch_p99_ns << "}";
    }
    os << ",\"sampler\":{\"samples\":" << taken
       << ",\"capacity\":" << kSamplerCapacity
       << ",\"interval_ms\":" << options_.sampler_interval_ms
       << ",\"series_tail\":[" << tail.str() << "]}";
  }
  os << "}";
  return os.str();
}

namespace {

/// One histogram in Prometheus text exposition: cumulative `le` buckets
/// at each populated octave boundary (seconds), then +Inf, _sum, _count.
void prometheus_histogram(std::ostringstream& os, const char* name,
                          const obs::HistogramSnapshot& snap) {
  os << "# TYPE " << name << " histogram\n";
  std::size_t last_nonzero = 0;
  bool any = false;
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
    if (snap.buckets[i] != 0) {
      last_nonzero = i;
      any = true;
    }
  }
  std::uint64_t cum = 0;
  if (any) {
    for (std::size_t i = 0; i <= last_nonzero; ++i) {
      cum += snap.buckets[i];
      const bool octave_end = i % obs::Histogram::kSubCount ==
                              obs::Histogram::kSubCount - 1;
      if (octave_end || i == last_nonzero) {
        os << name << "_bucket{le=\""
           << obs::json_number(
                  static_cast<double>(obs::Histogram::bucket_upper(i)) / 1e9)
           << "\"} " << cum << "\n";
      }
    }
  }
  os << name << "_bucket{le=\"+Inf\"} " << snap.count << "\n"
     << name << "_sum " << obs::json_number(static_cast<double>(snap.sum) / 1e9)
     << "\n"
     << name << "_count " << snap.count << "\n";
}

void prometheus_counter(std::ostringstream& os, const char* name,
                        const char* type, std::uint64_t value) {
  os << "# TYPE " << name << " " << type << "\n" << name << " " << value
     << "\n";
}

} // namespace

std::string Server::prometheus_text() const {
  ServeStats s = stats();
  const SessionCounters& t = s.totals;
  std::ostringstream os;
  prometheus_counter(os, "visrt_serve_sessions_total", "counter",
                     s.sessions_total);
  prometheus_counter(os, "visrt_serve_sessions_completed_total", "counter",
                     s.sessions_completed);
  prometheus_counter(os, "visrt_serve_sessions_failed_total", "counter",
                     s.sessions_failed);
  prometheus_counter(os, "visrt_serve_statements_total", "counter",
                     t.statements);
  prometheus_counter(os, "visrt_serve_rejected_total", "counter", t.rejected);
  prometheus_counter(os, "visrt_serve_launches_total", "counter", t.launches);
  prometheus_counter(os, "visrt_serve_iterations_total", "counter",
                     t.iterations);
  prometheus_counter(os, "visrt_serve_retire_calls_total", "counter",
                     t.retire_calls);
  prometheus_counter(os, "visrt_serve_retired_launches_total", "counter",
                     t.retired_launches);
  prometheus_counter(os, "visrt_serve_retired_ops_total", "counter",
                     t.retired_ops);
  prometheus_counter(os, "visrt_serve_sessions_active", "gauge",
                     s.sessions_active);
  prometheus_counter(os, "visrt_serve_sessions_in_backoff", "gauge",
                     s.sessions_in_backoff);
  prometheus_counter(os, "visrt_serve_resident_launches", "gauge",
                     s.resident_launches);
  prometheus_counter(os, "visrt_serve_resident_ops", "gauge", s.resident_ops);
  prometheus_counter(os, "visrt_serve_live_eqsets", "gauge", s.live_eqsets);
  prometheus_histogram(os, "visrt_serve_launch_analysis_seconds",
                       latency_.launch_analysis.snapshot());
  prometheus_histogram(os, "visrt_serve_statement_parse_seconds",
                       latency_.statement_parse.snapshot());
  prometheus_histogram(os, "visrt_serve_retire_pause_seconds",
                       latency_.retire_pause.snapshot());
  prometheus_histogram(os, "visrt_serve_metrics_request_seconds",
                       latency_.metrics_request.snapshot());
  os << "# EOF";
  return os.str();
}

std::vector<ServeSample> Server::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ServeSample> out;
  if (samples_.empty()) return out;
  const std::uint64_t taken = samples_taken_;
  const std::size_t cap = samples_.size();
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(taken, cap));
  out.reserve(n);
  // Oldest first: the ring cursor points at the next (oldest) slot once
  // the ring has wrapped.
  const std::size_t first = taken >= cap ? samples_next_ : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(samples_[(first + i) % cap]);
  return out;
}

std::string Server::flight_context_json() const {
  // Runs during crash handling: the latency section reads lock-free
  // atomics; the session summary is try-lock so a crash while holding
  // mu_ still produces a dump.
  std::ostringstream os;
  os << "{\"latency\":" << latency_section_json();
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (lock.owns_lock()) {
    os << ",\"sessions\":{\"total\":" << sessions_total_
       << ",\"completed\":" << sessions_completed_
       << ",\"failed\":" << sessions_failed_ << ",\"active\":[";
    bool first = true;
    for (const std::shared_ptr<Connection>& c : conns_) {
      if (!c->active) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"statements\":" << c->snap.statements
         << ",\"launches\":" << c->snap.launches
         << ",\"resident_launches\":" << c->resident_launches
         << ",\"retire_backoff\":" << c->retire_backoff << "}";
    }
    os << "]}";
  }
  os << "}";
  return os.str();
}

void Server::sampler_start() {
  if (options_.sampler_interval_ms <= 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.assign(kSamplerCapacity, ServeSample{});
    samples_next_ = 0;
    samples_taken_ = 0;
  }
  sampler_thread_ = std::thread([this] { sampler_loop(); });
}

void Server::sampler_stop() {
  if (sampler_thread_.joinable()) sampler_thread_.join();
}

void Server::sampler_loop() {
  const auto interval = std::chrono::milliseconds(options_.sampler_interval_ms);
  const auto poll = std::chrono::milliseconds(
      std::max(1, std::min(options_.poll_interval_ms,
                           options_.sampler_interval_ms)));
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (std::chrono::steady_clock::now() < next) {
      std::this_thread::sleep_for(poll);
      continue;
    }
    next += interval;
    ServeStats s = stats();
    ServeSample smp;
    smp.uptime_s = s.uptime_s;
    smp.statements = s.totals.statements;
    smp.launches = s.totals.launches;
    smp.sessions_active = s.sessions_active;
    smp.resident_launches = s.resident_launches;
    smp.launch_p99_ns = latency_.launch_analysis.snapshot().quantile(0.99);
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.empty()) continue;
    samples_[samples_next_] = smp;
    samples_next_ = (samples_next_ + 1) % samples_.size();
    ++samples_taken_;
  }
}

std::string Server::result_json(const StreamSession& session) const {
  const SessionResult& r = session.result();
  const SessionCounters& c = session.counters();
  std::ostringstream os;
  os << "{\"ok\":true,\"launches\":" << r.launches
     << ",\"dep_edges\":" << r.dep_edges << ",\"statements\":" << c.statements
     << ",\"rejected\":" << c.rejected
     << ",\"retire_calls\":" << c.retire_calls
     << ",\"retired_launches\":" << c.retired_launches
     << ",\"peak_resident_launches\":" << c.peak_resident_launches
     << ",\"dep_graph_hash\":\"" << hex_u64(r.dep_graph_hash)
     << "\",\"schedule_hash\":\"" << hex_u64(r.schedule_hash)
     << "\",\"value_hash\":\"" << hex_u64(r.value_hash)
     << "\",\"final_hashes\":[";
  for (std::size_t i = 0; i < r.final_hashes.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"" << hex_u64(r.final_hashes[i]) << "\"";
  }
  os << "]";
  if (r.verify.has_value()) os << ",\"verify\":" << r.verify->to_json();
  os << "}";
  return os.str();
}

void Server::run_stream(std::istream& in, std::ostream& out) {
  auto conn = std::make_shared<Connection>();
  conn->write = [&out](std::string_view line) {
    out << line << "\n" << std::flush;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.push_back(conn);
  }
  drive(*conn, [&in](std::string& inbuf) {
    std::string line;
    if (!std::getline(in, line)) return false;
    inbuf.append(line).push_back('\n');
    return true;
  });
}

} // namespace visrt::serve
