#include "serving/daemon.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/parallel.hpp"

namespace wsr::serving {

namespace {

/// Accepts drained per listener readiness event, for fairness with
/// connection I/O.
constexpr u32 kAcceptsPerEvent = 64;

/// One read(2) per connection readiness event; level-triggered epoll
/// re-arms if more bytes are waiting, which keeps one firehose connection
/// from starving the rest.
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

Daemon::Daemon(Core& core, Limits limits,
               volatile std::sig_atomic_t* drain_flag)
    : core_(core), limits_(limits), drain_flag_(drain_flag) {
  if (limits_.dispatchers == 0) {
    limits_.dispatchers = std::clamp(hardware_jobs() / 4, 2u, 8u);
  }
  // Sweep deadlines at ~1/4 of the tightest timeout so an eviction lands at
  // most 25% late, with a floor to keep the loop cheap when timeouts are
  // sub-second.
  i64 tightest = limits_.idle_timeout_ms;
  tightest = std::min(tightest, limits_.request_timeout_ms);
  tightest = std::min(tightest, limits_.write_timeout_ms);
  tightest = std::min(tightest, limits_.drain_timeout_ms);
  loop_.set_tick(std::clamp<i64>(tightest / 4, 10, 100), [this] { tick(); });
  loop_.set_on_wake([this] {
    if (drain_flag_ == nullptr || *drain_flag_ == 0) return;
    if (*drain_flag_ >= 2) {
      force_stop();
    } else if (!draining_) {
      begin_drain();
    }
  });
}

Daemon::~Daemon() {
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (auto& [id, c] : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  for (auto& l : listeners_) {
    if (l.listener.fd() >= 0) ::close(l.listener.fd());
    if (!l.unlink_path.empty()) ::unlink(l.unlink_path.c_str());
  }
}

void Daemon::add_listener(int fd, bool tcp, std::string label,
                          std::string unlink_path) {
  listeners_.push_back(
      ListenerState{Listener(fd, tcp, std::move(label)), 0,
                    std::move(unlink_path), 0});
  const std::size_t idx = listeners_.size() - 1;
  listeners_[idx].loop_id =
      loop_.add(fd, EPOLLIN, [this, idx](u32) { on_accept_ready(idx); });
}

int Daemon::run() {
  for (u32 i = 0; i < limits_.dispatchers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  loop_.run();
  return 0;
}

void Daemon::worker_loop() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return work_stop_ || !work_.empty(); });
      if (work_stop_ && work_.empty()) return;
      work = std::move(work_.front());
      work_.pop_front();
    }
    const u64 lines = work.batch.size();
    std::string out = core_.serve_batch(work.batch);
    core_.metrics().inflight.fetch_sub(lines);
    loop_.post([this, conn_id = work.conn_id, out = std::move(out)]() mutable {
      complete_batch(conn_id, std::move(out));
    });
  }
}

// --- accept path -----------------------------------------------------------

void Daemon::on_accept_ready(std::size_t idx) {
  if (draining_) return;
  ListenerState& l = listeners_[idx];
  Metrics& m = core_.metrics();
  const auto on_conn = [this, &m](int fd) {
    m.accepted.fetch_add(1);
    if (conns_.size() >= limits_.max_conns) {
      // Over the cap: tell the client why before closing, so it can back
      // off and retry instead of seeing a bare RST. Best-effort — the
      // response is a handful of bytes and the socket buffer is empty.
      m.shed_conns.fetch_add(1);
      const std::string msg = error_response("overloaded");
      [[maybe_unused]] const ssize_t n =
          ::send(fd, msg.data(), msg.size(), MSG_NOSIGNAL);
      ::close(fd);
      return;
    }
    const u64 id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->id = id;
    conn->fd = fd;
    conn->idle_deadline_us = now_us() + limits_.idle_timeout_ms * 1000;
    conn->loop_id = loop_.add(
        fd, EPOLLIN, [this, id](u32 events) { on_conn_event(id, events); });
    conns_.emplace(id, std::move(conn));
    m.open_conns.fetch_add(1);
  };
  const auto on_retriable = [&m] { m.accept_retries.fetch_add(1); };
  if (l.listener.accept_ready(kAcceptsPerEvent, on_conn, on_retriable) ==
      Listener::After::Backoff) {
    loop_.set_events(l.loop_id, 0);
    l.resume_us = now_us() + l.listener.backoff_ms() * 1000;
  }
}

// --- connection I/O --------------------------------------------------------

void Daemon::on_conn_event(u64 conn_id, u32 events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* c = it->second.get();
  if (events & EPOLLIN) {
    if (!on_readable(*c)) return;
  }
  if (events & EPOLLOUT) {
    if (!on_writable(*c)) return;
  }
  if (events & (EPOLLHUP | EPOLLERR)) {
    destroy(*c);
  }
}

bool Daemon::on_readable(Connection& c) {
  const u64 id = c.id;
  char chunk[kReadChunk];
  const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
    destroy(c);
    return false;
  }
  if (n == 0) {
    // Peer half-closed. Serve what it already sent, flush, then close; an
    // incomplete trailing line without its newline is still served, the
    // same rule the pipe front end applies at EOF.
    c.eof_seen = true;
    c.reading = false;
    if (!c.rbuf.empty()) {
      enqueue_line(c, std::move(c.rbuf));
      c.rbuf.clear();
      c.request_deadline_us = 0;
    }
    set_interest(c);
    maybe_dispatch(c);
    maybe_finish(c);  // may destroy c
    return conns_.count(id) != 0;
  }
  c.idle_deadline_us = now_us() + limits_.idle_timeout_ms * 1000;
  c.rbuf.append(chunk, static_cast<std::size_t>(n));
  take_lines(c);
  update_read_deadlines(c);
  if (c.pending.size() >= limits_.max_pipeline && c.reading) {
    // Pipelined past the cap: stop reading and let TCP backpressure the
    // client until dispatched batches drain the queue.
    c.reading = false;
    c.paused_pipeline = true;
    set_interest(c);
  }
  maybe_dispatch(c);
  return true;
}

void Daemon::take_lines(Connection& c) {
  std::size_t start = 0;
  for (std::size_t nl = c.rbuf.find('\n', start); nl != std::string::npos;
       nl = c.rbuf.find('\n', start)) {
    if (nl - start > limits_.max_line_bytes) {
      c.rbuf.erase(0, start);
      mark_too_large(c);
      return;
    }
    enqueue_line(c, c.rbuf.substr(start, nl - start));
    start = nl + 1;
  }
  c.rbuf.erase(0, start);
  if (c.rbuf.size() > limits_.max_line_bytes) mark_too_large(c);
}

void Daemon::enqueue_line(Connection& c, std::string text) {
  if (!text.empty() && text.back() == '\r') text.pop_back();
  if (text.find_first_not_of(" \t") == std::string::npos) return;
  Request line = parse_request(text);
  // Load shedding: past the in-flight high-water mark, plan and peering
  // lines are answered in-band without work. Stats and error lines still
  // flow — an operator querying an overloaded daemon is the point of stats.
  if ((line.is_plan() || line.is_cache()) &&
      core_.metrics().inflight.load() + pending_requests_ >=
          limits_.max_inflight) {
    core_.metrics().shed_requests.fetch_add(1);
    line.error = "overloaded";
  }
  c.pending.push_back(std::move(line));
  ++pending_requests_;
}

void Daemon::mark_too_large(Connection& c) {
  core_.metrics().too_large.fetch_add(1);
  Request line;
  line.t_enqueue_us = now_us();
  line.error = "too_large";
  c.pending.push_back(std::move(line));
  ++pending_requests_;
  // The framing is lost from here on: answer in order, flush, close.
  c.rbuf.clear();
  c.request_deadline_us = 0;
  c.reading = false;
  c.close_after_flush = true;
  set_interest(c);
  maybe_dispatch(c);
}

void Daemon::update_read_deadlines(Connection& c) {
  if (c.rbuf.empty()) {
    c.request_deadline_us = 0;
  } else if (c.request_deadline_us == 0) {
    // The anti-slow-loris clock: a partial line must complete within the
    // request deadline, counted from its first byte — progress does not
    // reset it.
    c.request_deadline_us = now_us() + limits_.request_timeout_ms * 1000;
  }
}

// --- dispatch and completion ----------------------------------------------

void Daemon::maybe_dispatch(Connection& c) {
  if (c.inflight || c.pending.empty()) return;
  // A stats line snapshots counters, so it must not share a batch with the
  // requests before it: cut the batch at the first stats verb (a leading
  // stats line dispatches alone).
  std::size_t cut = 0;
  while (cut < c.pending.size() && !c.pending[cut].stats) ++cut;
  if (cut == 0) cut = 1;
  std::vector<Request> batch;
  if (cut == c.pending.size()) {
    batch.swap(c.pending);
  } else {
    batch.assign(std::make_move_iterator(c.pending.begin()),
                 std::make_move_iterator(c.pending.begin() + cut));
    c.pending.erase(c.pending.begin(), c.pending.begin() + cut);
  }
  pending_requests_ -= batch.size();
  core_.metrics().inflight.fetch_add(batch.size());
  c.inflight = true;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_.push_back(Work{c.id, std::move(batch)});
  }
  work_cv_.notify_one();
}

void Daemon::complete_batch(u64 conn_id, std::string out) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // evicted while planning; drop the bytes
  Connection& c = *it->second;
  c.inflight = false;
  if (c.wbuf.size() - c.woff + out.size() > limits_.max_write_buffer) {
    // The reader is consuming so much slower than it pipelines that even
    // the bounded buffer overflowed: evict rather than grow.
    core_.metrics().evicted_slow.fetch_add(1);
    destroy(c);
    return;
  }
  if (c.wbuf.empty()) {
    c.wbuf = std::move(out);  // the common case: take the batch's buffer
  } else {
    c.wbuf += out;
  }
  if (!flush(c)) return;
  if (c.paused_pipeline && c.pending.size() < limits_.max_pipeline / 2 &&
      !c.eof_seen && !c.close_after_flush && !draining_) {
    c.paused_pipeline = false;
    c.reading = true;
    set_interest(c);
  }
  maybe_dispatch(c);
  maybe_finish(c);
}

bool Daemon::flush(Connection& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                             c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      destroy(c);
      return false;
    }
    c.woff += static_cast<std::size_t>(n);
  }
  if (c.woff >= c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
    c.write_deadline_us = 0;
    if (c.writing) {
      c.writing = false;
      set_interest(c);
    }
  } else {
    if (c.woff > kReadChunk && c.woff * 2 > c.wbuf.size()) {
      c.wbuf.erase(0, c.woff);
      c.woff = 0;
    }
    if (!c.writing) {
      c.writing = true;
      set_interest(c);
    }
    if (c.write_deadline_us == 0) {
      // The slow-reader clock: the buffer must drain to empty within the
      // write deadline, counted from when it became non-empty. A reader
      // trickling one byte per second makes "progress" but still hoards
      // the buffer — progress does not reset the clock.
      c.write_deadline_us = now_us() + limits_.write_timeout_ms * 1000;
    }
  }
  return true;
}

bool Daemon::on_writable(Connection& c) {
  const u64 id = c.id;
  if (!flush(c)) return false;
  maybe_finish(c);  // may destroy c
  return conns_.count(id) != 0;
}

void Daemon::set_interest(Connection& c) {
  u32 events = 0;
  if (c.reading) events |= EPOLLIN;
  if (c.writing) events |= EPOLLOUT;
  loop_.set_events(c.loop_id, events);
}

void Daemon::maybe_finish(Connection& c) {
  const bool drained = !c.inflight && c.pending.empty() && c.wbuf.empty();
  if (!drained) return;
  if (c.close_after_flush || c.eof_seen || draining_) destroy(c);
}

void Daemon::destroy(Connection& c) {
  loop_.remove(c.loop_id);
  ::close(c.fd);
  pending_requests_ -= c.pending.size();
  core_.metrics().open_conns.fetch_sub(1);
  conns_.erase(c.id);  // `c` is dead past this line
  if (draining_ && conns_.empty()) loop_.stop();
}

// --- housekeeping ----------------------------------------------------------

void Daemon::tick() {
  // A signal that landed before the wake fd was published (or whose eventfd
  // write raced the loop teardown) is still honoured within one tick.
  if (drain_flag_ != nullptr && *drain_flag_ != 0) {
    if (*drain_flag_ >= 2) {
      force_stop();
      return;
    }
    if (!draining_) begin_drain();
  }
  const i64 now = now_us();
  // Re-arm listeners whose accept backoff expired.
  for (auto& l : listeners_) {
    if (l.resume_us != 0 && now >= l.resume_us && !draining_) {
      l.resume_us = 0;
      loop_.set_events(l.loop_id, EPOLLIN);
    }
  }
  if (draining_ && now >= drain_deadline_us_) {
    force_stop();
    return;
  }
  // Deadline sweep. Destruction invalidates iterators: collect first.
  std::vector<Connection*> doomed_slow, doomed_timeout, doomed_idle;
  for (auto& [id, conn] : conns_) {
    Connection& c = *conn;
    if (c.write_deadline_us != 0 && now >= c.write_deadline_us) {
      doomed_slow.push_back(&c);
    } else if (c.request_deadline_us != 0 && now >= c.request_deadline_us) {
      doomed_timeout.push_back(&c);
    } else if (!c.inflight && c.pending.empty() && c.wbuf.empty() &&
               c.rbuf.empty() && now >= c.idle_deadline_us) {
      doomed_idle.push_back(&c);
    }
  }
  Metrics& m = core_.metrics();
  for (Connection* c : doomed_slow) {
    m.evicted_slow.fetch_add(1);
    destroy(*c);
  }
  for (Connection* c : doomed_timeout) {
    // Slow-loris: answer the half-written request in-band (after anything
    // already queued, to keep per-connection order), then close.
    m.evicted_timeout.fetch_add(1);
    c->rbuf.clear();
    c->request_deadline_us = 0;
    c->reading = false;
    c->close_after_flush = true;
    Request line;
    line.t_enqueue_us = now;
    line.error = "timeout";
    c->pending.push_back(std::move(line));
    ++pending_requests_;
    set_interest(*c);
    maybe_dispatch(*c);
  }
  for (Connection* c : doomed_idle) {
    m.evicted_idle.fetch_add(1);
    destroy(*c);
  }
}

void Daemon::begin_drain() {
  draining_ = true;
  drain_deadline_us_ = now_us() + limits_.drain_timeout_ms * 1000;
  std::fprintf(stderr, "wsrd: draining (%lld ms budget, %zu conns, "
               "%llu in flight)\n",
               static_cast<long long>(limits_.drain_timeout_ms),
               conns_.size(),
               static_cast<unsigned long long>(
                   core_.metrics().inflight.load()));
  // Stop accepting: close the listen sockets now so retrying clients see
  // ECONNREFUSED instead of queueing in a backlog nobody will drain.
  for (auto& l : listeners_) {
    loop_.remove(l.loop_id);
    ::close(l.listener.fd());
    if (!l.unlink_path.empty()) ::unlink(l.unlink_path.c_str());
  }
  listeners_.clear();
  // Stop reading everywhere; what is already parsed or dispatched finishes
  // and flushes, half-received lines are abandoned.
  std::vector<Connection*> all;
  all.reserve(conns_.size());
  for (auto& [id, conn] : conns_) all.push_back(conn.get());
  for (Connection* c : all) {
    c->reading = false;
    c->rbuf.clear();
    c->request_deadline_us = 0;
    set_interest(*c);
    maybe_dispatch(*c);
    maybe_finish(*c);  // may destroy
  }
  if (conns_.empty()) loop_.stop();
}

void Daemon::force_stop() {
  forced_ = true;
  std::vector<Connection*> all;
  all.reserve(conns_.size());
  for (auto& [id, conn] : conns_) all.push_back(conn.get());
  for (Connection* c : all) destroy(*c);
  for (auto& l : listeners_) {
    loop_.remove(l.loop_id);
    ::close(l.listener.fd());
    if (!l.unlink_path.empty()) ::unlink(l.unlink_path.c_str());
  }
  listeners_.clear();
  loop_.stop();
}

}  // namespace wsr::serving
