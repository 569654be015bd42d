// wsrd: the long-lived plan-serving daemon.
//
//   wsrd --pipe                      serve stdin -> stdout (testing / CI)
//   wsrd --socket=PATH [--tcp=SPEC]  serve a Unix stream socket (and/or TCP)
//   wsrd --tcp=[HOST:]PORT           serve TCP (loopback by default; port 0
//                                    binds an ephemeral port, printed on
//                                    stderr)
//
// serving options (docs/cli.md has the full table):
//   --cache-dir=DIR      persistent plan store shared with `wsr_plan
//                        --cache-dir` and other daemons (disk tier)
//   --max-entries=N      bound the in-memory plan cache (LRU; 0 = unbounded)
//   --jobs=N             planning worker threads per batch (0 = hardware)
//
// cache peering options (docs/serving.md "Cache peering"):
//   --peer=TARGET        consult another wsrd on local misses: "unix:PATH",
//                        an absolute socket path, "host:port", or a port.
//                        Every peer failure degrades silently to the local
//                        tiers (deadline, retries, circuit breaker).
//   --peer-timeout-ms=N  per-op deadline on the peer connection (250)
//   --peer-retries=N     extra attempts per failed peer op (1)
//   --serve-cache        answer cache_get/cache_put from other daemons
//   --prefetch=N         warm the N historically hottest shapes at boot
//
// robustness options (docs/serving.md "Operations & limits"):
//   --max-conns=N            connection cap; over it, accepts answer
//                            {"error":"overloaded"} and close (default 1024)
//   --max-inflight=N         queued+dispatched request high-water mark;
//                            past it plan lines answer "overloaded" (4096)
//   --max-line-bytes=N       request frame bound; over it, "too_large" (1MiB)
//   --idle-timeout-ms=N      evict silent connections (60000)
//   --request-timeout-ms=N   a partial line must complete in this window
//                            (anti slow-loris; 10000)
//   --write-timeout-ms=N     a non-empty write buffer must drain in this
//                            window (slow-reader eviction; 30000)
//   --drain-timeout-ms=N     SIGTERM drain budget before force-close (5000)
//
// Protocol (docs/serving.md): one JSON object per line in, one JSON object
// per line out, in request order. The daemon never aborts on a bad request:
// protocol and validation errors answer {"error":...} on the same line slot.
// SIGTERM/SIGINT drain gracefully (stop accepting, finish in-flight work,
// flush, exit 0); a second signal forces immediate shutdown.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "serving/core.hpp"
#include "serving/daemon.hpp"
#include "serving/listener.hpp"
#include "serving/pipe.hpp"

namespace {

using namespace wsr;

volatile std::sig_atomic_t g_stop = 0;
int g_wake_fd = -1;

void handle_signal(int) {
  g_stop = g_stop < 2 ? g_stop + 1 : 2;
  if (g_wake_fd >= 0) {
    const u64 one = 1;
    // write(2) is async-signal-safe; the eventfd wake is the only thing a
    // handler may do to the loop.
    [[maybe_unused]] const ssize_t n = ::write(g_wake_fd, &one, sizeof one);
  }
}

int usage() {
  std::fprintf(
      stderr,
      "usage: wsrd --pipe                [options]\n"
      "       wsrd --socket=PATH        [--tcp=[HOST:]PORT] [options]\n"
      "       wsrd --tcp=[HOST:]PORT    [options]\n"
      "options: --cache-dir=DIR --max-entries=N --jobs=N\n"
      "         --peer=TARGET --peer-timeout-ms=N --peer-retries=N\n"
      "         --serve-cache --prefetch=N\n"
      "         --max-conns=N --max-inflight=N --max-line-bytes=N\n"
      "         --idle-timeout-ms=N --request-timeout-ms=N\n"
      "         --write-timeout-ms=N --drain-timeout-ms=N\n"
      "Serves newline-delimited JSON plan requests (docs/serving.md).\n");
  return 2;
}

bool parse_u64_flag(const std::string& arg, const char* prefix, u64* out) {
  const std::size_t len = std::strlen(prefix);
  if (arg.rfind(prefix, 0) != 0) return false;
  char* end = nullptr;
  *out = std::strtoull(arg.c_str() + len, &end, 10);
  if (end == arg.c_str() + len || *end != '\0') {
    std::fprintf(stderr, "wsrd: bad value in %s\n", arg.c_str());
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool pipe_mode = false;
  std::string socket_path, tcp_spec;
  serving::Core::Options opts;
  serving::Limits limits;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    u64 v = 0;
    if (a == "--pipe") {
      pipe_mode = true;
    } else if (a.rfind("--socket=", 0) == 0) {
      socket_path = a.substr(9);
    } else if (a.rfind("--tcp=", 0) == 0) {
      tcp_spec = a.substr(6);
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      opts.cache_dir = a.substr(12);
    } else if (a.rfind("--peer=", 0) == 0) {
      opts.peer = a.substr(7);
    } else if (a == "--serve-cache") {
      opts.serve_cache = true;
    } else if (parse_u64_flag(a, "--peer-timeout-ms=", &v)) {
      opts.peer_timeout_ms = static_cast<u32>(v > 0 ? v : 1);
    } else if (parse_u64_flag(a, "--peer-retries=", &v)) {
      opts.peer_retries = static_cast<u32>(v);
    } else if (parse_u64_flag(a, "--prefetch=", &v)) {
      opts.prefetch = v;
    } else if (parse_u64_flag(a, "--max-entries=", &v)) {
      opts.max_entries = v;
    } else if (parse_u64_flag(a, "--jobs=", &v)) {
      opts.jobs = static_cast<u32>(v);
    } else if (parse_u64_flag(a, "--max-conns=", &v)) {
      limits.max_conns = v > 0 ? v : 1;
    } else if (parse_u64_flag(a, "--max-inflight=", &v)) {
      limits.max_inflight = v > 0 ? v : 1;
    } else if (parse_u64_flag(a, "--max-line-bytes=", &v)) {
      limits.max_line_bytes = v > 0 ? v : 1;
    } else if (parse_u64_flag(a, "--idle-timeout-ms=", &v)) {
      limits.idle_timeout_ms = static_cast<i64>(v > 0 ? v : 1);
    } else if (parse_u64_flag(a, "--request-timeout-ms=", &v)) {
      limits.request_timeout_ms = static_cast<i64>(v > 0 ? v : 1);
    } else if (parse_u64_flag(a, "--write-timeout-ms=", &v)) {
      limits.write_timeout_ms = static_cast<i64>(v > 0 ? v : 1);
    } else if (parse_u64_flag(a, "--drain-timeout-ms=", &v)) {
      limits.drain_timeout_ms = static_cast<i64>(v > 0 ? v : 1);
    } else if (parse_u64_flag(a, "--dispatchers=", &v)) {
      limits.dispatchers = static_cast<u32>(v);
    } else {
      return usage();
    }
  }
  const bool socket_mode = !socket_path.empty() || !tcp_spec.empty();
  if (pipe_mode == socket_mode) return usage();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a dropped connection is not fatal

  serving::Core core(opts);
  if (core.disk() != nullptr) {
    const auto s = core.disk()->stats();
    std::fprintf(stderr,
                 "wsrd: disk store %s: %llu plans loaded (%llu dropped) in "
                 "%.3f s\n",
                 core.disk()->store_path().c_str(),
                 static_cast<unsigned long long>(s.loaded),
                 static_cast<unsigned long long>(s.load_errors),
                 s.load_seconds);
  }
  if (opts.prefetch > 0) {
    std::fprintf(stderr, "wsrd: prefetched %zu hot shapes\n",
                 core.prefetched());
  }
  if (!opts.peer.empty()) {
    std::fprintf(stderr, "wsrd: peer cache tier at %s (timeout %u ms, "
                 "%u retries)\n",
                 opts.peer.c_str(), opts.peer_timeout_ms, opts.peer_retries);
  }

  if (pipe_mode) {
    serving::serve_pipe(core, STDIN_FILENO, STDOUT_FILENO,
                        limits.max_line_bytes, &g_stop);
    return 0;
  }

  serving::Daemon daemon(core, limits, &g_stop);
  if (!socket_path.empty()) {
    const int fd = serving::make_unix_listener(socket_path);
    if (fd < 0) return 1;
    daemon.add_listener(fd, /*tcp=*/false, socket_path, socket_path);
    std::fprintf(stderr, "wsrd: serving on unix %s\n", socket_path.c_str());
  }
  if (!tcp_spec.empty()) {
    u16 port = 0;
    const int fd = serving::make_tcp_listener(tcp_spec, &port);
    if (fd < 0) return 1;
    const std::size_t colon = tcp_spec.rfind(':');
    const std::string host =
        colon == std::string::npos || colon == 0 ? "127.0.0.1"
                                                 : tcp_spec.substr(0, colon);
    daemon.add_listener(fd, /*tcp=*/true, "tcp");
    std::fprintf(stderr, "wsrd: serving on tcp %s:%u\n", host.c_str(),
                 static_cast<unsigned>(port));
  }
  g_wake_fd = daemon.loop().wake_fd();
  const int rc = daemon.run();
  std::fprintf(stderr, "wsrd: shut down cleanly\n");
  return rc;
}
