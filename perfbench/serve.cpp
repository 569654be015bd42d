// serve_zipf: an open-loop NDJSON stream against a wsrd daemon.
//
// The key universe is a fixed list of (collective, grid, machine, forced
// algorithm) groups with a few B values each, in popularity order: rows of
// hundreds of PEs first, wafer-sized 2D grids last; half of every group is
// pre-warmed into the disk store. The seed orders the Zipf(1) request
// sequence and the store's records; requests are due at a fixed spacing
// (open loop). What each request costs therefore stays put from seed to
// seed while every input still derives from the seed.
//
// Subcommands: serve-prepare plans the warm keys into a fresh store;
// serve-load serves the stream in process through serving::Core (half
// before, half after the daemon phase), drives a running daemon (a
// fixed-rate phase, then optionally a ladder of offered rates) and checks
// every answer; serve-trace replays the stream with spans around each
// public call.
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/minijson.hpp"
#include "flowsim/flowsim.hpp"
#include "perfbench.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/persistent_plan_cache.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_json.hpp"
#include "serving/core.hpp"
#include "serving/request.hpp"
#include "store/plan_store.hpp"
#include "wse/checks.hpp"
#include "wse/export.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using wsr::registry::Collective;

// --- the key universe --------------------------------------------------------

struct Group {
  const char* collective;
  const char* grid;
  u32 tr;            ///< ramp latency override (0 = the default machine)
  const char* algo;  ///< forced algorithm ("" = model-selected)
};

/// Popularity order. A minority carry "tr" (a new machine: its own planner
/// and Auto-Gen DP table) or force an algorithm.
constexpr Group kGroups[] = {
    // The hot set: rows of 128-512 PEs and small 2D grids. Three machines
    // have cold 512-PE keys here, so three 512-PE Auto-Gen tables are
    // filled on the request path in every run.
    {"allreduce", "256", 0, ""},
    {"reduce", "512", 0, ""},
    {"reduce", "128", 0, ""},
    {"allreduce", "16x16", 0, ""},
    {"broadcast", "512", 0, ""},
    {"reduce", "512", 3, ""},
    {"allgather", "64", 0, ""},
    {"reducescatter", "128", 0, ""},
    {"reduce", "8x8", 0, ""},
    {"allreduce", "512", 1, ""},
    // Small rows, more grids, machine and algorithm variants.
    {"reduce", "16", 0, ""},
    {"allreduce", "32", 0, ""},
    {"broadcast", "64", 0, ""},
    {"allgather", "16", 0, ""},
    {"reducescatter", "32", 0, ""},
    {"reduce", "64", 0, ""},
    {"allreduce", "8", 0, ""},
    {"allreduce", "4", 0, ""},
    {"broadcast", "16x8", 0, ""},
    {"reduce", "256", 3, ""},
    {"allreduce", "64", 1, ""},
    {"allreduce", "32", 0, "Chain"},
    {"reduce", "64", 0, "Tree"},
    {"reduce", "16x16", 0, "Snake"},
    {"allreduce", "128", 0, "TwoPhase"},
    {"broadcast", "16", 0, ""},
    // Mid-size 2D grids.
    {"reduce", "32x32", 0, ""},
    {"allreduce", "32x16", 0, ""},
    {"allgather", "16x16", 0, ""},
    {"reducescatter", "512", 0, ""},
    {"broadcast", "32x32", 0, ""},
    {"reduce", "64x32", 0, ""},
    {"allreduce", "64x64", 0, ""},
    {"reduce", "64x64", 0, "X-Y Chain"},
    {"allreduce", "32x32", 1, ""},
    // Wafer-sized responses (megabytes of schedule JSON each).
    {"reduce", "128x128", 0, ""},
    {"allreduce", "128x64", 0, ""},
    {"broadcast", "128x128", 0, ""},
    {"allgather", "64x32", 0, ""},
    {"reduce", "128x128", 3, ""},
};

struct Key {
  std::string body;  ///< request fields after "id"
  u32 pes = 0;
  u32 tr = 0;
  bool forced = false;
  bool warm = false;
  bool reduce_1d = false;
};

struct Universe {
  std::vector<Key> keys;    ///< rank order, most popular first
  std::vector<double> cdf;  ///< cumulative Zipf(1) weight over ranks
  std::set<u32> sample;     ///< top-ranked key of every group: byte-checked
};

u32 pes_of(const std::string& grid, u32* extent) {
  const std::size_t x = grid.find('x');
  if (x == std::string::npos) {
    *extent = static_cast<u32>(std::stoul(grid));
    return *extent;
  }
  const u32 w = static_cast<u32>(std::stoul(grid.substr(0, x)));
  const u32 h = static_cast<u32>(std::stoul(grid.substr(x + 1)));
  *extent = std::max(w, h);
  return w * h;
}

Universe make_universe() {
  Universe u;
  for (u32 g = 0; g < std::size(kGroups); ++g) {
    const Group& grp = kGroups[g];
    u32 extent = 0;
    const u32 pes = pes_of(grp.grid, &extent);
    // B on the paper's 4 B .. 16 KB axis: every third point, offset by the
    // group, so the groups together cover the axis. Reduce-scatter needs
    // B to be a multiple of P.
    std::vector<u32> lens;
    if (std::string(grp.collective) == "reducescatter") {
      for (u32 b = pes; b <= 4096; b *= 4) lens.push_back(b);
    } else {
      for (u32 b = 1u << (g % 3); b <= 4096; b *= 8) lens.push_back(b);
    }
    for (std::size_t i = 0; i < lens.size(); ++i) {
      Key k;
      k.body = std::string("\"collective\":\"") + grp.collective + "\",\"grid\":\"" +
               grp.grid + "\",\"bytes\":" + std::to_string(4 * lens[i]);
      if (grp.tr != 0) k.body += ",\"tr\":" + std::to_string(grp.tr);
      if (grp.algo[0] != '\0') k.body += std::string(",\"algorithm\":\"") + grp.algo + "\"";
      k.pes = pes;
      k.tr = grp.tr;
      k.forced = grp.algo[0] != '\0';
      // Every other B is pre-warmed, starting low or high by group, so the
      // cold keys (the planning path) are the same set for every seed.
      k.warm = (i + g) % 2 == 0;
      k.reduce_1d = std::string(grp.collective) == "reduce" &&
                    std::string(grp.grid).find('x') == std::string::npos;
      if (i == 0) u.sample.insert(static_cast<u32>(u.keys.size()));
      u.keys.push_back(k);
    }
  }
  double acc = 0;
  for (std::size_t r = 0; r < u.keys.size(); ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    u.cdf.push_back(acc);
  }
  return u;
}

std::string request_line(u64 id, const Key& k) {
  return "{\"id\":" + std::to_string(id) + "," + k.body + "}";
}

/// An open-loop schedule: requests due every 1/rate seconds (the schedule
/// never waits for answers). Every key appears its Zipf share of the
/// stream, rounded by largest remainder, in a seeded order: the seed moves
/// requests around but never changes how often a key is asked for.
struct Stream {
  std::vector<double> due_s;
  std::vector<u32> key;
};

Stream make_stream(const Universe& u, Rng& rng, double rate, double seconds) {
  const std::size_t n = static_cast<std::size_t>(std::ceil(rate * seconds));
  std::vector<std::pair<double, u32>> rest;
  Stream s;
  std::size_t placed = 0;
  for (u32 k = 0; k < u.cdf.size(); ++k) {
    const double share = (u.cdf[k] - (k ? u.cdf[k - 1] : 0.0)) / u.cdf.back() * n;
    const auto whole = static_cast<std::size_t>(share);
    s.key.insert(s.key.end(), whole, k);
    placed += whole;
    rest.push_back({share - static_cast<double>(whole), k});
  }
  std::stable_sort(rest.begin(), rest.end(),
                   [](const auto& x, const auto& y) { return x.first > y.first; });
  for (std::size_t i = 0; placed + i < n; ++i) s.key.push_back(rest[i].second);
  rng.shuffle(s.key);
  for (std::size_t i = 0; i < s.key.size(); ++i) {
    s.due_s.push_back(static_cast<double>(i) / rate);
  }
  return s;
}

/// The fixed-rate phase's stream, shared by serve-load and serve-trace.
Stream fixed_stream(const Universe& u, u64 seed, double rate, double seconds) {
  Rng rng(seed * 2 + 2);
  return make_stream(u, rng, rate, seconds);
}

/// Planner table keyed like serving::Core's: machine and largest extent.
class Planners {
 public:
  const wsr::runtime::Planner& get(const wsr::MachineParams& mp, wsr::GridShape g) {
    const u32 extent = std::max({g.width, g.height, 2u});
    auto& slot = table_[{mp.ramp_latency, extent}];
    if (!slot) slot = std::make_unique<wsr::runtime::Planner>(extent, mp);
    return *slot;
  }

 private:
  std::map<std::pair<u32, u32>, std::unique_ptr<wsr::runtime::Planner>> table_;
};

wsr::serving::Request parse_or_die(const std::string& line) {
  wsr::serving::Request r = wsr::serving::parse_request(line);
  if (!r.is_plan()) {
    std::fprintf(stderr, "wsr_perfbench: generated request rejected: %s -> %s\n",
                 line.c_str(), r.error.c_str());
    std::exit(2);
  }
  return r;
}

/// The response with the live "cache_tier" and "plan_cache" fields cut
/// out: what must be byte-identical between daemon and in-process runs.
std::string mask_live_fields(std::string s) {
  for (const char* field : {"\"cache_tier\":\"", "\"plan_cache\":{"}) {
    const std::size_t at = s.find(field);
    if (at == std::string::npos) continue;
    const char close = field[std::strlen(field) - 1] == '{' ? '}' : '"';
    const std::size_t end = s.find(close, at + std::strlen(field));
    if (end == std::string::npos) continue;
    s.erase(at, end + 2 - at);  // the closing char and the trailing comma
  }
  return s;
}

// --- the open-loop client ----------------------------------------------------

struct Req {
  i64 due_us = 0;
  u32 key = 0;
  u64 id = 0;
  i64 sent_us = -1;
  i64 done_us = -1;
  bool ok = false;
  std::size_t bytes = 0;
};

/// A response line as the client sees it: responses can be megabytes, so
/// only the head (where id, tier and error live) is kept, plus the whole
/// line when the byte-identical check wants it.
struct Line {
  std::string head;
  std::string full;
  std::size_t bytes = 0;
  char last = 0;
  bool started = false, capture = false;
};

struct Conn {
  int fd = -1;
  std::string w;
  std::size_t woff = 0;
  bool want_out = false;
  Line line;
  std::deque<std::size_t> inflight;
  bool closed = false;
};

constexpr std::size_t kHeadBytes = 4096;

class Client {
 public:
  Client(const std::string& path, u32 conns) {
    std::signal(SIGPIPE, SIG_IGN);  // a closed connection shows as failures
    ep_ = epoll_create1(EPOLL_CLOEXEC);
    tfd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ~0ull;
    epoll_ctl(ep_, EPOLL_CTL_ADD, tfd_, &ev);
    for (u32 i = 0; i < conns; ++i) {
      Conn c;
      c.fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
      if (c.fd < 0 || connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        std::fprintf(stderr, "wsr_perfbench: cannot connect to %s: %s\n", path.c_str(),
                     std::strerror(errno));
        std::exit(2);
      }
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev);
      conns_.push_back(std::move(c));
    }
  }
  ~Client() {
    for (Conn& c : conns_) close(c.fd);
    close(tfd_);
    close(ep_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `reqs` (sorted by due time) open-loop and collects the answers.
  /// Stops sending when more than `max_outstanding` requests are
  /// unanswered (the rest stay unsent, sent_us = -1). `lines` gives each
  /// request's bytes; `on_line(idx, line)` sees every response line and
  /// `want_full(idx)` says whether to keep that response whole.
  template <typename OnLine, typename WantFull>
  void run(std::vector<Req>& reqs, const std::vector<std::string>& lines,
           std::size_t max_outstanding, OnLine on_line, WantFull want_full) {
    std::size_t next = 0, done = 0;
    bool stopped = false;
    const i64 give_up_after_us = 60'000'000;
    i64 last_progress = now_us();
    while (true) {
      const i64 now = now_us();
      while (!stopped && next < reqs.size() && reqs[next].due_us <= now) {
        if (next - done > max_outstanding) {
          stopped = true;
          break;
        }
        Conn& c = conns_[next % conns_.size()];
        c.w += lines[next];
        c.w += '\n';
        reqs[next].sent_us = now;
        c.inflight.push_back(next);
        flush(c, next % conns_.size());
        ++next;
      }
      const std::size_t sent = next;
      if ((stopped || next == reqs.size()) && done == sent) break;
      if (now - last_progress > give_up_after_us) break;
      int timeout_ms = 1000;
      if (!stopped && next < reqs.size()) {
        itimerspec its{};
        const i64 due = reqs[next].due_us;
        its.it_value.tv_sec = due / 1'000'000;
        its.it_value.tv_nsec = (due % 1'000'000) * 1000;
        if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) its.it_value.tv_nsec = 1;
        timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
      }
      epoll_event evs[16];
      const int n = epoll_wait(ep_, evs, 16, timeout_ms);
      for (int i = 0; i < n; ++i) {
        if (evs[i].data.u64 == ~0ull) {
          u64 ticks;
          [[maybe_unused]] ssize_t r = read(tfd_, &ticks, sizeof ticks);
          continue;
        }
        const std::size_t ci = evs[i].data.u64;
        Conn& c = conns_[ci];
        if (evs[i].events & EPOLLOUT) flush(c, ci);
        if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
          const std::size_t got = drain(c, reqs, on_line, want_full);
          done += got;
          if (got > 0) last_progress = now_us();
          if (c.closed) {  // its unanswered requests fail; stop sending
            done += c.inflight.size();
            c.inflight.clear();
            stopped = true;
          }
        }
      }
    }
  }

 private:
  void flush(Conn& c, std::size_t ci) {
    while (c.woff < c.w.size()) {
      const ssize_t n = write(c.fd, c.w.data() + c.woff, c.w.size() - c.woff);
      if (n <= 0) break;
      c.woff += static_cast<std::size_t>(n);
    }
    if (c.woff == c.w.size()) {
      c.w.clear();
      c.woff = 0;
    }
    const bool want = !c.w.empty();
    if (want != c.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = ci;
      epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_out = want;
    }
  }

  template <typename OnLine, typename WantFull>
  std::size_t drain(Conn& c, std::vector<Req>& reqs, OnLine& on_line, WantFull& want_full) {
    std::size_t answered = 0;
    static char buf[1 << 20];
    while (true) {
      const ssize_t n = read(c.fd, buf, sizeof buf);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        if (!c.closed) std::fprintf(stderr, "wsr_perfbench: connection closed by wsrd\n");
        c.closed = true;
        epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
        break;
      }
      if (n < 0) break;
      const char* p = buf;
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        Line& l = c.line;
        if (!l.started) {
          l.started = true;
          l.capture = !c.inflight.empty() && want_full(c.inflight.front());
        }
        const char* nl = static_cast<const char*>(std::memchr(p, '\n', left));
        const std::size_t seg = nl != nullptr ? static_cast<std::size_t>(nl - p) : left;
        if (l.head.size() < kHeadBytes) {
          l.head.append(p, std::min(seg, kHeadBytes - l.head.size()));
        }
        if (l.capture) l.full.append(p, seg);
        if (seg > 0) l.last = p[seg - 1];
        l.bytes += seg;
        if (nl == nullptr) break;
        const i64 t = now_us();
        if (c.inflight.empty()) {
          std::fprintf(stderr, "wsr_perfbench: unsolicited response line\n");
        } else {
          const std::size_t idx = c.inflight.front();
          c.inflight.pop_front();
          reqs[idx].done_us = t;
          reqs[idx].bytes = l.bytes + 1;
          on_line(idx, l);
          ++answered;
        }
        l = Line{};
        p += seg + 1;
        left -= seg + 1;
      }
    }
    return answered;
  }

  int ep_ = -1, tfd_ = -1;
  std::vector<Conn> conns_;
};

/// In order (it answers the request at the head of its connection),
/// carries that request's id, is a plan (has a schedule) and has no error.
bool response_ok(const Line& line, u64 id) {
  const std::string_view head = line.head;
  const std::string id_field = "\"id\":" + std::to_string(id) + ",";
  const std::size_t at_id = head.find("\"id\":");
  const std::size_t at_sched = head.find("\"schedule\":");
  if (at_id == std::string_view::npos || head.compare(at_id, id_field.size(), id_field) != 0) {
    return false;
  }
  if (at_sched == std::string_view::npos || at_sched < at_id) return false;
  return head.substr(0, at_sched).find("\"error\"") == std::string_view::npos &&
         line.last == '}';
}

struct PhaseStats {
  std::vector<double> latency_ms, lag_ms;
  u64 attempted = 0, failed = 0, unsent = 0;
  double bytes = 0;
};

PhaseStats summarize(const std::vector<Req>& reqs) {
  PhaseStats s;
  for (const Req& r : reqs) {
    if (r.sent_us < 0) {
      ++s.unsent;
      continue;
    }
    ++s.attempted;
    s.lag_ms.push_back(static_cast<double>(r.sent_us - r.due_us) / 1e3);
    if (!r.ok || r.done_us < 0) {
      ++s.failed;
      continue;
    }
    s.latency_ms.push_back(static_cast<double>(r.done_us - r.due_us) / 1e3);
    s.bytes += static_cast<double>(r.bytes);
  }
  return s;
}

std::string tier_of(const std::string& line) {
  const std::string_view tag = "\"cache_tier\":\"";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "none";
  const std::size_t end = line.find('"', at + tag.size());
  return line.substr(at + tag.size(), end - at - tag.size());
}

/// Byte-compares every captured response line (sample key -> line, no
/// newline) with an in-process plan_response_json of the same request once
/// the live fields are masked. Returns how many differ.
u64 check_samples(const Universe& u, const std::map<u32, std::string>& captured,
                  Planners& planners, std::vector<std::string>* errors) {
  u64 failed = 0;
  for (const auto& [key, line] : captured) {
    const wsr::serving::Request r = parse_or_die(request_line(0, u.keys[key]));
    const wsr::runtime::Planner& planner = planners.get(r.mp, r.req.grid);
    const auto at = line.find("\"id\":");
    const std::string id_field = line.substr(at, line.find(',', at) + 1 - at);
    const std::string expect = wsr::runtime::plan_response_json(
        r.req, planner.plan(r.req), r.mp, id_field);
    if (mask_live_fields(line) != expect) {
      ++failed;
      if (errors->size() < 5) {
        errors->push_back("response differs from in-process plan: " +
                          request_line(0, u.keys[key]));
      }
    }
  }
  return failed;
}

/// Fresh copy of the prepared store (appends must not leak between runs).
std::string copy_store(const std::string& store, const std::string& tag) {
  const std::string dir = store + "." + tag;
  fs::remove_all(dir);
  fs::copy(store, dir, fs::copy_options::recursive);
  return dir;
}

/// What core_replay found: failed answers, and the first answer of each
/// sample key (newline cut) for the byte-identical check.
struct ReplayChecks {
  u64 failed = 0;
  std::vector<std::string> errors;
  std::map<u32, std::string> captured;
};

/// Serves the stream through a serving::Core configured like the daemon
/// (same store copy, memory bound, one planning thread), one line per
/// batch. Appends each line's serve_batch time (us) to `batch_us` and
/// checks every answer like a daemon response (its id, a schedule, no
/// error). Returns the wall time in seconds.
double core_replay(const Universe& u, const Stream& st, const std::string& store,
                   u32 max_entries, std::vector<double>* batch_us, ReplayChecks* checks) {
  wsr::serving::Core::Options opts;
  opts.max_entries = max_entries;
  opts.cache_dir = store;
  opts.jobs = 1;
  wsr::serving::Core core(opts);
  const double t0 = now_s();
  for (std::size_t i = 0; i < st.key.size(); ++i) {
    std::vector<wsr::serving::Request> batch{
        wsr::serving::parse_request(request_line(i, u.keys[st.key[i]]))};
    const i64 b0 = now_ns();
    std::string out = core.serve_batch(batch);
    batch_us->push_back(static_cast<double>(now_ns() - b0) / 1e3);
    Line line;
    line.head = out.substr(0, kHeadBytes);
    line.last = out.size() >= 2 ? out[out.size() - 2] : 0;
    if (!response_ok(line, i)) {
      ++checks->failed;
      if (checks->errors.size() < 5) {
        checks->errors.push_back("in-process serve_batch answered " + line.head.substr(0, 300));
      }
    } else if (u.sample.count(st.key[i]) && !checks->captured.count(st.key[i])) {
      out.pop_back();
      checks->captured.emplace(st.key[i], std::move(out));
    }
  }
  const double wall = now_s() - t0;
  fs::remove_all(store);
  return wall;
}

/// Serves the stream in process again and again, on a fresh store copy
/// each time, while at least half of another replay fits in `seconds` (at
/// least once when `seconds` > 0): appends every replay's wall time to
/// `walls`.
void replay_for(double seconds, const Universe& u, const Stream& st, const ServeArgs& a,
                std::vector<double>* walls, std::vector<double>* batch_us,
                ReplayChecks* checks) {
  if (seconds <= 0) return;
  const double t_end = now_s() + seconds;
  do {
    walls->push_back(core_replay(u, st, copy_store(a.store, "core"), a.max_entries,
                                 batch_us, checks));
  } while (now_s() + walls->back() / 2 < t_end);
}

}  // namespace

// --- serve-prepare -----------------------------------------------------------

int serve_prepare(const ServeArgs& a) {
  const Universe u = make_universe();
  fs::remove_all(a.store);
  fs::create_directories(a.store);
  wsr::runtime::PersistentPlanCache disk(a.store);
  Planners planners;
  u64 warm = 0;
  const double t0 = now_s();
  // The seed orders the store's records (its load order and the hot-shape
  // ranking seeded from it).
  std::vector<const Key*> order;
  for (const Key& k : u.keys) {
    if (k.warm) order.push_back(&k);
  }
  Rng rng(a.seed * 2 + 1);
  rng.shuffle(order);
  for (const Key* kp : order) {
    const Key& k = *kp;
    const wsr::serving::Request r = parse_or_die(request_line(0, k));
    const wsr::runtime::Planner& planner = planners.get(r.mp, r.req.grid);
    auto plan = std::make_shared<const wsr::runtime::Plan>(planner.plan(r.req));
    if (!disk.append(wsr::runtime::PlanCache::key_for(planner, r.req), plan)) {
      std::fprintf(stderr, "wsr_perfbench: store append failed\n");
      return 1;
    }
    ++warm;
  }
  Report rep;
  rep.num("keys", static_cast<double>(u.keys.size()));
  rep.num("warm_keys", static_cast<double>(warm));
  rep.num("prepare_s", now_s() - t0);
  rep.num("store_bytes", static_cast<double>(disk.stats().file_bytes));
  rep.print();
  return 0;
}

// --- serve-load ----------------------------------------------------------------

int serve_load(const ServeArgs& a) {
  const Universe u = make_universe();
  const Stream st = fixed_stream(u, a.seed, a.rate, a.seconds);

  // The in-process replays of the same stream (the gated serving numbers)
  // run half before and half after the fixed-rate phase, so that they
  // sample the host over the whole run. The daemon idles meanwhile.
  std::vector<double> walls, batch_us;
  ReplayChecks checks;
  replay_for(a.replay_seconds / 2, u, st, a, &walls, &batch_us, &checks);
  Client client(a.socket, a.conns);

  // Fixed-rate phase.
  std::vector<Req> reqs(st.key.size());
  std::vector<std::string> lines(st.key.size());
  const i64 t0 = now_us() + 20'000;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].due_us = t0 + static_cast<i64>(st.due_s[i] * 1e6);
    reqs[i].key = st.key[i];
    reqs[i].id = i;
    lines[i] = request_line(i, u.keys[st.key[i]]);
  }
  std::map<u32, std::string> captured;  // sample key -> first response
  std::map<std::string, u64> tiers;
  std::vector<std::string> errors;
  client.run(
      reqs, lines, reqs.size(),
      [&](std::size_t idx, const Line& line) {
        Req& r = reqs[idx];
        r.ok = response_ok(line, r.id);
        if (!r.ok && errors.size() < 5) errors.push_back(line.head.substr(0, 300));
        ++tiers[tier_of(line.head)];
        if (r.ok && line.capture && !captured.count(r.key)) captured[r.key] = line.full;
      },
      [&](std::size_t idx) {
        return u.sample.count(reqs[idx].key) > 0 && !captured.count(reqs[idx].key);
      });
  const PhaseStats fixed = summarize(reqs);
  std::set<u32> seen;  // ordered by rank
  for (const Req& r : reqs) {
    if (r.ok) seen.insert(r.key);
  }

  // The daemon's peak RSS as the fixed phase leaves it (the ladder's
  // overloaded rungs would add transient write buffers).
  const double rss_mb = a.daemon_pid > 0 ? vm_hwm_mb(a.daemon_pid) : 0;
  replay_for(a.replay_seconds / 2, u, st, a, &walls, &batch_us, &checks);

  // Ladder: fixed rungs R0 * 1.05^k, searched by bisection in six probes.
  // A rung passes with no failed request, its tail latency within the
  // limit and no growing backlog (the last quarter's median within twice
  // the first quarter's, plus 5 ms). Only keys the fixed phase already
  // answered are drawn, so rungs measure serving rather than cold planning.
  std::vector<double> ladder_rates;
  for (int k = 0; k < 64; ++k) ladder_rates.push_back(a.rate * std::pow(1.05, k));
  int lo = -1, hi = static_cast<int>(ladder_rates.size());
  const double rung_s = a.ladder_seconds / 6;
  u64 ladder_attempted = 0, ladder_failed = 0;
  std::vector<std::string> rung_log;
  Universe hot;  // the Zipf distribution restricted to the answered keys
  {
    double acc = 0;
    for (u32 k : seen) {
      hot.keys.push_back(u.keys[k]);
      acc += 1.0 / static_cast<double>(k + 1);
      hot.cdf.push_back(acc);
    }
  }
  for (int probe = 1; a.ladder_seconds > 0 && hi - lo > 1 && !hot.keys.empty(); ++probe) {
    const int mid = (lo + hi) / 2;
    const double rate = ladder_rates[mid];
    Rng rng(a.seed * 1000 + static_cast<u64>(probe));
    const Stream rs = make_stream(hot, rng, rate, rung_s);
    std::vector<Req> rr(rs.key.size());
    std::vector<std::string> rl(rs.key.size());
    const i64 r0 = now_us() + 20'000;
    for (std::size_t i = 0; i < rr.size(); ++i) {
      rr[i].due_us = r0 + static_cast<i64>(rs.due_s[i] * 1e6);
      rr[i].id = 1'000'000ull * static_cast<u64>(probe) + i;
      rl[i] = request_line(rr[i].id, hot.keys[rs.key[i]]);
    }
    client.run(
        rr, rl, 1024,
        [&](std::size_t idx, const Line& line) {
          rr[idx].ok = response_ok(line, rr[idx].id);
          if (!rr[idx].ok && errors.size() < 5) errors.push_back(line.head.substr(0, 300));
        },
        [](std::size_t) { return false; });
    const PhaseStats st_rung = summarize(rr);
    ladder_attempted += st_rung.attempted;
    ladder_failed += st_rung.failed;
    const std::vector<double>& lat = st_rung.latency_ms;
    const std::size_t q = lat.size() / 4;
    const std::vector<double> first(lat.begin(), lat.begin() + q);
    const std::vector<double> last(lat.end() - q, lat.end());
    const bool pass = st_rung.failed == 0 && st_rung.unsent == 0 && q > 0 &&
                      tail(lat) <= a.limit_ms &&
                      quantile(last, 0.5) <= 2 * quantile(first, 0.5) + 5.0;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "rung %.0f rps: %s (n=%zu tail %.1f ms, p50 first/last quarter "
                  "%.2f/%.2f ms, unsent %llu)",
                  rate, pass ? "pass" : "fail", lat.size(), tail(lat),
                  quantile(first, 0.5), quantile(last, 0.5),
                  static_cast<unsigned long long>(st_rung.unsent));
    rung_log.push_back(buf);
    (pass ? lo : hi) = mid;
  }

  // Output checks, untimed: the byte-identical sample, then the model
  // against FlowSim on the universe's pristine keys of <= 1024 PEs.
  Planners planners;
  const u64 sample_checked = captured.size() + checks.captured.size();
  for (const std::string& e : checks.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
  const u64 sample_failed = check_samples(u, captured, planners, &errors) +
                            check_samples(u, checks.captured, planners, &errors);
  std::vector<double> errs;
  double lb_ratio_max = 0;
  for (const Key& k : u.keys) {
    if (k.tr != 0 || k.pes > 1024) continue;
    const wsr::serving::Request r = parse_or_die(request_line(0, k));
    const wsr::runtime::Planner& planner = planners.get(r.mp, r.req.grid);
    const wsr::runtime::Plan plan = planner.plan(r.req);
    wsr::flowsim::FlowOptions fo;
    fo.ramp_latency = r.mp.ramp_latency;
    const double sim = static_cast<double>(wsr::flowsim::run_flow(plan.schedule, fo).cycles);
    errs.push_back(std::abs(static_cast<double>(plan.prediction.cycles) - sim) / sim);
    if (k.reduce_1d && !k.forced) {
      lb_ratio_max = std::max(
          lb_ratio_max, sim / planner.reduce_1d_lower_bound(r.req.grid.width, r.req.vec_len));
    }
  }

  const u64 failed = fixed.failed + fixed.unsent + ladder_failed + checks.failed + sample_failed;
  Report rep;
  rep.num("attempted", static_cast<double>(fixed.attempted + ladder_attempted +
                                           batch_us.size() + sample_checked));
  rep.num("failed", static_cast<double>(failed));
  rep.raw("errors", json_list(errors));
  rep.num("keys", static_cast<double>(u.keys.size()));
  rep.num("keys_seen", static_cast<double>(seen.size()));
  rep.num("rtt_p50_ms", quantile(fixed.latency_ms, 0.5));
  {
    std::string qs;
    for (double q : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97, 0.98, 0.99}) {
      char b[48];
      std::snprintf(b, sizeof b, "%s%.2f", qs.empty() ? "" : " ", quantile(fixed.latency_ms, q));
      qs += b;
    }
    rep.str("rtt_quantiles_ms", qs);
  }
  rep.num("rtt_p99_ms", tail(fixed.latency_ms));
  rep.num("rtt_tail_level", tail_level(fixed.latency_ms.size()));
  rep.num("rtt_samples", static_cast<double>(fixed.latency_ms.size()));
  rep.num("offered_rps", a.rate);
  rep.num("sent_rps", static_cast<double>(fixed.attempted) / a.seconds);
  rep.num("gen_lag_ms_p99", tail(fixed.lag_ms));
  rep.num("response_kb_mean",
          fixed.latency_ms.empty() ? 0 : fixed.bytes / 1024.0 / fixed.latency_ms.size());
  rep.num("ladder_max_rps", lo >= 0 ? ladder_rates[lo] : 0);
  rep.num("peak_rss_mb", rss_mb);
  rep.raw("ladder", json_list(rung_log));
  Report tiers_rep;
  for (const auto& [k, v] : tiers) tiers_rep.num(k, static_cast<double>(v));
  rep.raw("cache_tiers", tiers_rep.json());
  rep.num("sample_checked", static_cast<double>(sample_checked));
  rep.num("model_err_mean", mean(errs));
  rep.num("model_keys", static_cast<double>(errs.size()));
  rep.num("lb_ratio_max", lb_ratio_max);
  if (!walls.empty()) {
    const double wall = quantile(walls, 0.5);
    rep.num("replays", static_cast<double>(walls.size()));
    rep.num("latency_p50_ms", quantile(batch_us, 0.5) / 1e3);
    rep.num("latency_p99_ms", tail(batch_us) / 1e3);
    rep.num("latency_tail_level", tail_level(batch_us.size()));
    rep.num("latency_samples", static_cast<double>(batch_us.size()));
    rep.num("sweep_s", wall);
    rep.num("max_rate_rps", static_cast<double>(st.key.size()) / wall);
    std::vector<std::string> v;
    for (double x : walls) v.push_back(std::to_string(x));
    rep.raw("replay_s_reps", json_list(v));
  }
  rep.print();
  return failed == 0 ? 0 : 1;
}

// --- serve-trace ---------------------------------------------------------------

namespace {

enum Source { kMemory, kDisk, kPlanned };

/// The request path rebuilt from public calls (the same order as
/// serving::Core::serve_batch over PlanCache::get_or_plan for a batch of
/// one), with a span around every call. Shadow calls time the layers a
/// combined call hides, on the same inputs, outside the request span.
struct Replica {
  Tracer tracer;
  std::map<std::string, std::vector<double>> shadow_us;
  std::vector<int> source;
  std::vector<double> response_kb;
  double total_s = 0, shadow_s = 0, load_ms = 0;
  u64 file_gets = 0, file_hits = 0, file_puts = 0, evictions = 0;
  std::vector<double> dp_fill_ms;

  explicit Replica(bool trace) : tracer(trace) {}

  void run(const Universe& u, const Stream& st, const std::string& store, u32 max_entries) {
    double t = now_s();
    wsr::runtime::PersistentPlanCache disk(store);
    load_ms = (now_s() - t) * 1e3;
    wsr::runtime::PlanCache cache(16, max_entries);
    cache.attach_disk_store(&disk);
    wsr::store::PlanStore& file = *cache.file_tier();
    Planners planners;
    std::set<const wsr::runtime::Planner*> filled;
    const double t0 = now_s();
    for (std::size_t i = 0; i < st.key.size(); ++i) {
      const std::string line = request_line(i, u.keys[st.key[i]]);
      std::shared_ptr<const wsr::runtime::Plan> plan;
      wsr::serving::Request r;
      const wsr::runtime::Planner* planner = nullptr;
      Source src = kMemory;
      std::string out;
      {
        Scope req(tracer, "request", i);
        {
          Scope s(tracer, "serving.parse_request", i);
          r = wsr::serving::parse_request(line);
        }
        planner = &planners.get(r.mp, r.req.grid);
        wsr::runtime::PlanKey key;
        {
          Scope s(tracer, "runtime.key_for", i);
          key = wsr::runtime::PlanCache::key_for(*planner, r.req);
        }
        file.note_use(key);
        {
          Scope s(tracer, "runtime.mem_find", i);
          plan = cache.find(key);
        }
        if (plan == nullptr) {
          wsr::store::GetResult got;
          {
            Scope s(tracer, "store.file_get", i);
            got = file.get(key);
          }
          ++file_gets;
          if (got.status == wsr::store::StoreStatus::Hit) {
            ++file_hits;
            src = kDisk;
            bool servable = false;
            {
              Scope s(tracer, "wse.validate", i);
              servable = wsr::wse::validate(got.plan->schedule).empty() &&
                         !wsr::wse::schedule_crosses_failed_link(got.plan->schedule,
                                                                 r.mp.link_overrides);
            }
            if (!servable) std::exit(3);
            Scope s(tracer, "runtime.mem_insert", i);
            plan = cache.insert(key, std::move(got.plan));
          } else {
            src = kPlanned;
            const bool autogen_family = r.req.algorithm.empty() &&
                                        (r.req.collective == Collective::Reduce ||
                                         r.req.collective == Collective::AllReduce);
            if (autogen_family && filled.insert(planner).second) {
              Scope s(tracer, "autogen.dp_fill", i);
              const double d0 = now_s();
              planner->autogen_model();
              dp_fill_ms.push_back((now_s() - d0) * 1e3);
            }
            {
              Scope s(tracer, "runtime.plan", i);
              plan = std::make_shared<const wsr::runtime::Plan>(planner->plan(r.req));
            }
            {
              Scope s(tracer, "runtime.mem_insert", i);
              plan = cache.insert(key, plan);
            }
            Scope s(tracer, "store.file_put", i);
            file.put(key, plan);
            ++file_puts;
          }
        }
        Scope s(tracer, "runtime.serialize", i);
        std::string extras = "\"id\":" + r.id_json + ",\"cache_tier\":\"";
        extras += src == kMemory ? "memory" : src == kDisk ? "disk" : "planned";
        extras += "\",";
        extras += wsr::runtime::plan_cache_counters_json(cache);
        out = wsr::runtime::plan_response_json(r.req, *plan, r.mp, extras);
      }
      source.push_back(src);
      response_kb.push_back(static_cast<double>(out.size() + 1) / 1024.0);
      if (tracer.enabled()) shadow(line, r, *planner, *plan, src);
    }
    total_s = now_s() - t0;
    evictions = cache.evictions();
  }

  void shadow(const std::string& line, const wsr::serving::Request& r,
              const wsr::runtime::Planner& planner, const wsr::runtime::Plan& plan,
              Source src) {
    const double s0 = now_s();
    const auto timed = [&](const char* name, auto fn) {
      const i64 t0 = now_ns();
      fn();
      shadow_us[name].push_back(static_cast<double>(now_ns() - t0) / 1e3);
    };
    timed("common.json_parse", [&] { wsr::json::parse(line); });
    timed("wse.to_json", [&] { wsr::wse::to_json(plan.schedule); });
    if (src == kPlanned) {
      const wsr::registry::PlanContext ctx = planner.context();
      const wsr::registry::AlgorithmDescriptor* best = nullptr;
      double applicable = 0;
      timed("registry.select", [&] {
        if (!r.req.algorithm.empty()) {
          best = wsr::registry::AlgorithmRegistry::instance().find(
              r.req.collective, wsr::registry::dims_for(r.req.grid), r.req.algorithm);
          return;
        }
        wsr::Prediction best_p;
        for (const auto* d : wsr::registry::AlgorithmRegistry::instance().query(
                 r.req.collective, wsr::registry::dims_for(r.req.grid), true)) {
          if (!d->applicable(r.req.grid, r.req.vec_len)) continue;
          ++applicable;
          const wsr::Prediction p = d->cost(r.req.grid, r.req.vec_len, ctx);
          if (best == nullptr || p.cycles < best_p.cycles) {
            best = d;
            best_p = p;
          }
        }
      });
      shadow_us["registry.candidates"].push_back(applicable);
      timed("collectives.build", [&] { best->build(r.req.grid, r.req.vec_len, ctx); });
    }
    shadow_s += now_s() - s0;
  }
};

std::vector<double> in_ms(const std::vector<double>& us) {
  std::vector<double> out;
  for (double v : us) out.push_back(v / 1e3);
  return out;
}

}  // namespace

int serve_trace(const ServeArgs& a) {
  const Universe u = make_universe();
  const Stream st = fixed_stream(u, a.seed, a.rate, a.seconds);

  Replica untraced(false);
  untraced.run(u, st, copy_store(a.store, "replica0"), a.max_entries);
  Replica traced(true);
  traced.run(u, st, copy_store(a.store, "replica1"), a.max_entries);

  // The same stream through serving::Core, one line per batch.
  std::vector<double> batch_us;
  ReplayChecks checks;
  core_replay(u, st, copy_store(a.store, "core"), a.max_entries, &batch_us, &checks);
  for (const char* tag : {"replica0", "replica1", "core"}) {
    fs::remove_all(a.store + "." + tag);
  }

  // Per-layer numbers from the traced replica's spans.
  const Tracer& t = traced.tracer;
  const auto& spans = t.spans();
  const std::vector<double> self = t.self_us();
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> mem_hit_us;
  double stages_us = 0, batch_total_us = 0;
  std::map<std::string, double> self_s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const double d = Tracer::duration_us(s);
    by_name[s.name].push_back(d);
    self_s[s.name] += self[i] / 1e6;
    if (s.name == "runtime.mem_find" && traced.source[s.item] == kMemory) mem_hit_us.push_back(d);
    if (s.name == "request") stages_us += d - self[i];
  }
  for (double v : batch_us) batch_total_us += v;
  u64 mem_hits = 0;
  for (int s : traced.source) mem_hits += s == kMemory;

  Report rep;
  rep.num("attempted", static_cast<double>(st.key.size()));
  rep.num("failed", static_cast<double>(checks.failed));
  rep.raw("errors", json_list(checks.errors));
  rep.num("common.json_parse_us.p50", quantile(traced.shadow_us["common.json_parse"], 0.5));
  rep.num("serving.parse_request_us.p50", quantile(by_name["serving.parse_request"], 0.5));
  rep.num("serving.serve_batch_us.p50", quantile(batch_us, 0.5));
  rep.num("serving.serve_batch_us.p99", tail(batch_us));
  rep.num("serving.response_kb.mean", mean(traced.response_kb));
  rep.num("runtime.key_for_us.p50", quantile(by_name["runtime.key_for"], 0.5));
  rep.num("runtime.mem_hit_us.p50", quantile(mem_hit_us, 0.5));
  rep.num("runtime.mem_hit_ratio",
          static_cast<double>(mem_hits) / static_cast<double>(traced.source.size()));
  rep.num("runtime.evictions", static_cast<double>(traced.evictions));
  rep.num("store.file_get_us.p50", quantile(by_name["store.file_get"], 0.5));
  rep.num("store.file_hit_ratio",
          traced.file_gets ? static_cast<double>(traced.file_hits) / traced.file_gets : 0);
  rep.num("store.file_put_ms.p50", quantile(in_ms(by_name["store.file_put"]), 0.5));
  rep.num("store.file_puts", static_cast<double>(traced.file_puts));
  rep.num("store.load_ms", traced.load_ms);
  rep.num("registry.select_us.p50", quantile(traced.shadow_us["registry.select"], 0.5));
  rep.num("registry.candidates.mean", mean(traced.shadow_us["registry.candidates"]));
  rep.num("autogen.dp_fill_ms.p50", quantile(traced.dp_fill_ms, 0.5));
  rep.num("autogen.dp_fills", static_cast<double>(traced.dp_fill_ms.size()));
  rep.num("runtime.plan_ms.p50", quantile(in_ms(by_name["runtime.plan"]), 0.5));
  rep.num("runtime.plan_ms.p99", tail(in_ms(by_name["runtime.plan"])));
  rep.num("collectives.build_ms.p50", quantile(in_ms(traced.shadow_us["collectives.build"]), 0.5));
  rep.num("wse.validate_us.p50", quantile(by_name["wse.validate"], 0.5));
  rep.num("runtime.serialize_ms.p50", quantile(in_ms(by_name["runtime.serialize"]), 0.5));
  rep.num("wse.to_json_ms.p50", quantile(in_ms(traced.shadow_us["wse.to_json"]), 0.5));
  rep.num("serving.reconcile_gap_frac",
          batch_total_us > 0 ? (stages_us - batch_total_us) / batch_total_us : 0);
  rep.num("trace.overhead_frac", (traced.total_s - traced.shadow_s) / untraced.total_s - 1.0);
  rep.num("replay_untraced_s", untraced.total_s);
  rep.num("replay_traced_s", traced.total_s - traced.shadow_s);
  rep.num("serve_batch_total_s", batch_total_us / 1e6);
  Report selfr;
  for (const auto& [k, v] : self_s) selfr.num(k, v);
  rep.raw("self_s", selfr.json());
  rep.print();
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
