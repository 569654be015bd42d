// Tests of the pluggable PlanStore tier (src/store/): the shared record
// codec, the peer wire protocol against a scripted mock daemon, the
// fault-tolerance policy layer (retries, circuit breaker), hot-shape
// tracking, the serving-side cache verbs, and the append-path degradation
// of the file store. The recurring theme: every failure mode — torn bytes,
// garbage replies, dead peers, a full disk — must degrade to a clean miss
// (and a re-plan), never to a wrong plan, a crash, or an unbounded stall.
#include "store/plan_store.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/minijson.hpp"
#include "runtime/persistent_plan_cache.hpp"
#include "serving/core.hpp"
#include "serving/request.hpp"
#include "store/fault_tolerant_store.hpp"
#include "store/peer_store.hpp"
#include "store/record.hpp"
#include "wse/checks.hpp"
#include "store_fakes.hpp"

namespace wsr::store {
namespace {

namespace fs = std::filesystem;
using runtime::Collective;
using runtime::PlanCache;
using runtime::Planner;
using runtime::PlanRequest;
using runtime::PlanSource;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "wsr_store_XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

const Planner& test_planner() {
  static const Planner planner(16);
  return planner;
}

PlanRequest reduce_req(u32 p, u32 b) {
  return {Collective::Reduce, {p, 1}, b, ""};
}

PlanKey key_of(const PlanRequest& req) {
  return PlanCache::key_for(test_planner(), req);
}

std::shared_ptr<const Plan> plan_of(const PlanRequest& req) {
  return std::make_shared<const Plan>(test_planner().plan(req));
}

/// The plan of `req` with its first routing rule's count zeroed: the record
/// decodes fine but fails wse::validate ("every rule has count > 0").
std::shared_ptr<const Plan> poisoned_plan_of(const PlanRequest& req) {
  auto bad = std::make_shared<Plan>(*plan_of(req));
  for (auto& pe_rules : bad->schedule.rules) {
    if (!pe_rules.empty()) {
      pe_rules[0].count = 0;
      break;
    }
  }
  return bad;
}

// --- codec -------------------------------------------------------------------

TEST(Base64, RoundTripsArbitraryBytes) {
  std::string bytes;
  for (int n = 0; n < 300; ++n) {
    ASSERT_EQ(base64_decode(base64_encode(bytes)), bytes) << "len " << n;
    bytes.push_back(static_cast<char>(n * 37 + 1));
  }
}

TEST(Base64, RejectsGarbage) {
  EXPECT_FALSE(base64_decode("AAA").has_value());       // truncated group
  EXPECT_FALSE(base64_decode("AA!A").has_value());      // non-alphabet byte
  EXPECT_FALSE(base64_decode("A=AA").has_value());      // interior padding
  EXPECT_FALSE(base64_decode("AA==AA==").has_value());  // padding mid-stream
  EXPECT_FALSE(base64_decode("=AAA").has_value());
  EXPECT_TRUE(base64_decode("").has_value());
  EXPECT_TRUE(base64_decode("AA==").has_value());
  EXPECT_TRUE(base64_decode("AAA=").has_value());
}

TEST(RecordCodec, RecordAndKeyRoundTrip) {
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);
  const auto plan = plan_of(req);

  const std::string record = wsr::store::serialize_plan_record(key, *plan);
  PlanKey got_key;
  Plan got_plan;
  ASSERT_TRUE(parse_plan_record(record, &got_key, &got_plan));
  EXPECT_EQ(got_key, key);
  EXPECT_EQ(got_plan.algorithm, plan->algorithm);

  const std::optional<PlanKey> round = parse_plan_key(serialize_plan_key(key));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, key);
}

TEST(RecordCodec, RejectsDamage) {
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);
  const auto plan = plan_of(req);
  const std::string record = wsr::store::serialize_plan_record(key, *plan);
  PlanKey k;
  Plan p;

  // Any single-byte flip breaks the frame magic, the length, the checksum,
  // or the payload (and thus the checksum): sample across the record.
  for (std::size_t pos = 0; pos < record.size(); pos += 7) {
    std::string bad = record;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_FALSE(parse_plan_record(bad, &k, &p)) << "flip at " << pos;
  }
  // Truncation at every length.
  for (std::size_t len = 0; len < record.size(); len += 9) {
    EXPECT_FALSE(parse_plan_record(record.substr(0, len), &k, &p));
  }
  // Trailing bytes are not tolerated (a record is exactly one frame).
  EXPECT_FALSE(parse_plan_record(record + "x", &k, &p));
  // Key parsing is equally strict.
  const std::string key_bytes = serialize_plan_key(key);
  EXPECT_FALSE(parse_plan_key(key_bytes + "x").has_value());
  EXPECT_FALSE(parse_plan_key(key_bytes.substr(0, key_bytes.size() - 1)));
}

TEST(RecordCodec, WireFramingIsPinned) {
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);
  const auto plan = plan_of(req);

  const std::string get_line = PeerStore::get_request_line(key);
  const std::string get_prefix = "{\"verb\":\"cache_get\",\"schema\":2,\"key\":\"";
  ASSERT_EQ(get_line.rfind(get_prefix, 0), 0u) << get_line;
  ASSERT_EQ(get_line.substr(get_line.size() - 3), "\"}\n");
  const auto key_bytes = base64_decode(
      get_line.substr(get_prefix.size(), get_line.size() - get_prefix.size() - 3));
  ASSERT_TRUE(key_bytes.has_value());
  const auto parsed_key = parse_plan_key(*key_bytes);
  ASSERT_TRUE(parsed_key.has_value());
  EXPECT_EQ(*parsed_key, key);

  const std::string put_line = PeerStore::put_request_line(key, *plan);
  const std::string put_prefix =
      "{\"verb\":\"cache_put\",\"schema\":2,\"record\":\"";
  ASSERT_EQ(put_line.rfind(put_prefix, 0), 0u) << put_line;
  const auto rec_bytes = base64_decode(
      put_line.substr(put_prefix.size(), put_line.size() - put_prefix.size() - 3));
  ASSERT_TRUE(rec_bytes.has_value());
  PlanKey k;
  Plan p;
  EXPECT_TRUE(parse_plan_record(*rec_bytes, &k, &p));
  EXPECT_EQ(k, key);
}

// --- hot tracking ------------------------------------------------------------

TEST(HotTracker, RanksByUsesThenFirstSeen) {
  HotTracker hot;
  const PlanKey a = key_of(reduce_req(4, 16));
  const PlanKey b = key_of(reduce_req(8, 16));
  const PlanKey c = key_of(reduce_req(16, 16));
  hot.seed(c);  // first seen, zero uses
  hot.note(a);
  hot.note(b);
  hot.note(b);
  const auto top = hot.top(0);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, b);
  EXPECT_EQ(top[0].uses, 2u);
  EXPECT_EQ(top[1].key, a);
  EXPECT_EQ(top[2].key, c);  // ties (0 uses) rank by first-seen
  EXPECT_EQ(hot.top(1).size(), 1u);
  EXPECT_EQ(hot.tracked(), 3u);
}

TEST(FileTier, HotSidecarPersistsAcrossReopen) {
  TempDir dir;
  const PlanRequest hot_req = reduce_req(8, 16);
  const PlanRequest cold_req = reduce_req(4, 16);
  {
    runtime::PersistentPlanCache file(dir.str());
    file.put(key_of(hot_req), plan_of(hot_req));
    file.put(key_of(cold_req), plan_of(cold_req));
    for (int i = 0; i < 5; ++i) file.note_use(key_of(hot_req));
    file.note_use(key_of(cold_req));
  }  // dtor flushes <dir>/hot.wsrh
  ASSERT_TRUE(fs::exists(dir.path / "hot.wsrh"));
  {
    runtime::PersistentPlanCache file(dir.str());
    const auto top = file.scan(0);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].key, key_of(hot_req));
    EXPECT_EQ(top[0].uses, 5u);
    EXPECT_EQ(top[1].uses, 1u);
    // And the records themselves reload.
    EXPECT_EQ(file.get(key_of(hot_req)).status, StoreStatus::Hit);
  }
}

TEST(FileTier, GarbledSidecarIsAdvisory) {
  TempDir dir;
  const PlanRequest req = reduce_req(8, 16);
  {
    runtime::PersistentPlanCache file(dir.str());
    file.put(key_of(req), plan_of(req));
  }
  std::ofstream(dir.path / "hot.wsrh", std::ios::trunc)
      << "not-a-count !!!\n9 @@not-base64@@\n7 AAAA\n";
  // Must not throw; bad lines are skipped.
  runtime::PersistentPlanCache file(dir.str());
  // The store's own keys are still seeded (from load order).
  const auto top = file.scan(0);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, key_of(req));
  EXPECT_EQ(file.get(key_of(req)).status, StoreStatus::Hit);
}

// --- append-path degradation -------------------------------------------------

TEST(PersistentCache, FatalAppendErrnoDegradesToMemoryOnly) {
  TempDir dir;
  runtime::PersistentPlanCache disk(dir.str());
  const PlanRequest first = reduce_req(8, 16);
  ASSERT_TRUE(disk.append(key_of(first), plan_of(first)));
  ASSERT_FALSE(disk.stats().degraded);

  disk.inject_append_errno_for_tests(ENOSPC, 1);
  const PlanRequest second = reduce_req(4, 16);
  EXPECT_FALSE(disk.append(key_of(second), plan_of(second)));
  EXPECT_TRUE(disk.stats().degraded);
  // Degraded is permanent for the process: later appends fail fast and are
  // counted, with no further I/O attempted.
  const PlanRequest third = reduce_req(16, 16);
  EXPECT_FALSE(disk.append(key_of(third), plan_of(third)));
  const auto s = disk.stats();
  EXPECT_TRUE(s.degraded);
  EXPECT_GE(s.store_degraded, 2u);

  // The file holds exactly the pre-failure record — no torn tail: a fresh
  // load sees one intact plan and zero load errors.
  runtime::PersistentPlanCache reopened(dir.str());
  const auto rs = reopened.stats();
  EXPECT_EQ(rs.loaded, 1u);
  EXPECT_EQ(rs.load_errors, 0u);
  EXPECT_NE(reopened.get(key_of(first)).plan, nullptr);
}

TEST(PersistentCache, TransientErrnoDoesNotDegrade) {
  TempDir dir;
  runtime::PersistentPlanCache disk(dir.str());
  disk.inject_append_errno_for_tests(EINTR, 1);
  const PlanRequest req = reduce_req(8, 16);
  EXPECT_FALSE(disk.append(key_of(req), plan_of(req)));
  EXPECT_FALSE(disk.stats().degraded);  // EINTR is not a fatal storage errno
  const PlanRequest next = reduce_req(4, 16);
  EXPECT_TRUE(disk.append(key_of(next), plan_of(next)));
}

// --- fault tolerance policy --------------------------------------------------

struct FakeClock {
  i64 now = 0;
  i64 slept = 0;
  FaultTolerantStore::Policy policy(u32 retries, u32 threshold,
                                    u32 cooldown_ms) {
    FaultTolerantStore::Policy p;
    p.retries = retries;
    p.breaker_threshold = threshold;
    p.breaker_cooldown_ms = cooldown_ms;
    p.clock_ms = [this] { return now; };
    p.sleep_ms = [this](i64 ms) {
      slept += ms;
      now += ms;
    };
    return p;
  }
};

TEST(FaultTolerantStore, RetriesThenSucceeds) {
  MemoryStore mem;
  const PlanRequest req = reduce_req(8, 16);
  mem.put(key_of(req), plan_of(req));
  FlakyStore flaky(mem);
  FakeClock clk;
  FaultTolerantStore ft(flaky, clk.policy(2, 10, 1000));

  flaky.fail_next_gets(2);
  const GetResult r = ft.get(key_of(req));
  EXPECT_EQ(r.status, StoreStatus::Hit);
  EXPECT_NE(r.plan, nullptr);
  EXPECT_EQ(ft.stats().retries, 2u);
  EXPECT_GT(clk.slept, 0);  // backoff actually waited (on the fake clock)
  EXPECT_EQ(ft.breaker_state(), FaultTolerantStore::Breaker::Closed);
}

TEST(FaultTolerantStore, BreakerFullCycle) {
  MemoryStore mem;
  const PlanRequest req = reduce_req(8, 16);
  mem.put(key_of(req), plan_of(req));
  FlakyStore flaky(mem);
  FakeClock clk;
  // No retries: each failed op is one breaker strike.
  FaultTolerantStore ft(flaky, clk.policy(0, 2, 100));

  // Closed -> Open after `threshold` consecutive failures.
  flaky.fail_next_gets(2, StoreStatus::Timeout);
  EXPECT_EQ(ft.get(key_of(req)).status, StoreStatus::Timeout);
  EXPECT_EQ(ft.breaker_state(), FaultTolerantStore::Breaker::Closed);
  EXPECT_EQ(ft.get(key_of(req)).status, StoreStatus::Timeout);
  EXPECT_EQ(ft.breaker_state(), FaultTolerantStore::Breaker::Open);
  EXPECT_EQ(ft.stats().breaker_trips, 1u);

  // Open: fastfail as a clean miss, without touching the backend.
  const u64 gets_before = flaky.stats().gets;
  EXPECT_EQ(ft.get(key_of(req)).status, StoreStatus::Miss);
  EXPECT_EQ(flaky.stats().gets, gets_before);
  EXPECT_EQ(ft.stats().breaker_fastfails, 1u);

  // Cooldown expires -> half-open; a failed probe goes straight back open.
  clk.now += 100;
  flaky.fail_next_gets(1);
  EXPECT_EQ(ft.get(key_of(req)).status, StoreStatus::Error);
  EXPECT_EQ(ft.breaker_state(), FaultTolerantStore::Breaker::Open);
  EXPECT_EQ(ft.stats().breaker_trips, 2u);

  // Second cooldown -> successful probe closes the breaker for good.
  clk.now += 100;
  EXPECT_EQ(ft.get(key_of(req)).status, StoreStatus::Hit);
  EXPECT_EQ(ft.breaker_state(), FaultTolerantStore::Breaker::Closed);
  EXPECT_EQ(ft.stats().breaker_state, "closed");
}

TEST(FaultTolerantStore, ProbeNeverRetries) {
  MemoryStore mem;
  FlakyStore flaky(mem);
  FakeClock clk;
  FaultTolerantStore ft(flaky, clk.policy(5, 1, 100));

  flaky.fail_next_gets(1);
  const PlanKey key = key_of(reduce_req(8, 16));
  // Retries exhaust the injected failure, then Miss (key absent): but with
  // threshold 1 a fully failed op opens the breaker. Force that:
  flaky.fail_next_gets(6);  // covers 1 attempt + 5 retries
  EXPECT_EQ(ft.get(key).status, StoreStatus::Error);
  EXPECT_EQ(ft.breaker_state(), FaultTolerantStore::Breaker::Open);

  clk.now += 100;
  const u64 retries_before = ft.stats().retries;
  flaky.fail_next_gets(1);
  EXPECT_EQ(ft.get(key).status, StoreStatus::Error);  // the probe, 1 attempt
  EXPECT_EQ(ft.stats().retries, retries_before);      // probes never retry
}

TEST(FaultTolerantStore, MissIsBreakerSuccess) {
  MemoryStore mem;  // empty: every get is an honest Miss
  FlakyStore flaky(mem);
  FakeClock clk;
  FaultTolerantStore ft(flaky, clk.policy(0, 2, 100));
  const PlanKey key = key_of(reduce_req(8, 16));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ft.get(key).status, StoreStatus::Miss);
  }
  EXPECT_EQ(ft.breaker_state(), FaultTolerantStore::Breaker::Closed);
  EXPECT_EQ(ft.stats().breaker_trips, 0u);
}

// --- peer wire protocol ------------------------------------------------------

/// A scripted one-connection-at-a-time peer: reads request lines, answers
/// with whatever the handler returns. nullopt = close the connection;
/// "" = never reply (deadline test). Accepts again after a drop, like a
/// real daemon surviving its client's reconnects.
class MockPeer {
 public:
  using Handler = std::function<std::optional<std::string>(const std::string&)>;

  explicit MockPeer(Handler handler) : handler_(std::move(handler)) {
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("wsr_mockpeer_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr), 0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    thread_ = std::thread([this] { accept_loop(); });
  }

  ~MockPeer() { stop(); }

  void stop() {
    if (stopped_.exchange(true)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (thread_.joinable()) thread_.join();
    ::unlink(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  void accept_loop() {
    while (!stopped_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      serve_conn(fd);
      ::close(fd);
    }
  }

  void serve_conn(int fd) {
    std::string buf;
    char chunk[4096];
    while (!stopped_.load()) {
      const std::size_t nl = buf.find('\n');
      if (nl == std::string::npos) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0) return;  // client gone (or deadline-dropped)
        buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      const std::optional<std::string> reply = handler_(line);
      if (!reply.has_value()) return;
      std::size_t off = 0;
      while (off < reply->size()) {
        const ssize_t n = ::send(fd, reply->data() + off, reply->size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) return;
        off += static_cast<std::size_t>(n);
      }
    }
  }

  Handler handler_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

PeerStore::Options peer_options(const std::string& path, u32 timeout_ms = 2000,
                                std::size_t max_reply = 64u << 20) {
  PeerStore::Options opt;
  opt.target = "unix:" + path;
  opt.timeout_ms = timeout_ms;
  opt.max_reply_bytes = max_reply;
  return opt;
}

TEST(PeerStore, HitMissAndPutAgainstScriptedPeer) {
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);
  const auto plan = plan_of(req);
  const std::string record_b64 =
      base64_encode(wsr::store::serialize_plan_record(key, *plan));

  std::atomic<int> puts_seen{0};
  MockPeer peer([&](const std::string& line) -> std::optional<std::string> {
    if (line.find("\"cache_put\"") != std::string::npos) {
      puts_seen.fetch_add(1);
      return "{\"ok\":true}\n";
    }
    if (line.find(record_b64.substr(0, 32)) != std::string::npos ||
        line.find("\"cache_get\"") != std::string::npos) {
      return "{\"hit\":true,\"schema\":2,\"record\":\"" + record_b64 + "\"}\n";
    }
    return "{\"hit\":false}\n";
  });

  PeerStore store(peer_options(peer.path()));
  const GetResult r = store.get(key);
  ASSERT_EQ(r.status, StoreStatus::Hit);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.plan->algorithm, plan->algorithm);
  EXPECT_TRUE(store.put(key, plan));
  EXPECT_EQ(puts_seen.load(), 1);
  const auto s = store.stats();
  EXPECT_EQ(s.gets, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.errors, 0u);
}

TEST(PeerStore, CleanMissReply) {
  MockPeer peer([](const std::string&) -> std::optional<std::string> {
    return "{\"hit\":false}\n";
  });
  PeerStore store(peer_options(peer.path()));
  EXPECT_EQ(store.get(key_of(reduce_req(8, 16))).status, StoreStatus::Miss);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(PeerStore, EveryDamagedReplyIsAFailureNeverAPlan) {
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);
  const auto plan = plan_of(req);
  const std::string good = wsr::store::serialize_plan_record(key, *plan);
  std::string torn = good;
  torn[torn.size() / 2] = static_cast<char>(torn[torn.size() / 2] ^ 0x20);

  // Wrong key: a record for a different shape, validly framed.
  const PlanRequest other_req = reduce_req(4, 16);
  const std::string mis_keyed =
      wsr::store::serialize_plan_record(key_of(other_req), *plan_of(other_req));

  const std::vector<std::string> bad_replies = {
      "not json at all\n",
      "{\"hit\":\"yes\"}\n",                    // hit is not a Bool
      "{\"error\":\"overloaded\"}\n",           // in-band daemon error
      "{\"hit\":true}\n",                       // hit without a record
      "{\"hit\":true,\"record\":\"@@@\"}\n",    // undecodable base64
      "{\"hit\":true,\"record\":\"AAAA\"}\n",   // decodes, not a record
      "{\"hit\":true,\"record\":\"" + base64_encode(torn) + "\"}\n",
      "{\"hit\":true,\"record\":\"" + base64_encode(mis_keyed) + "\"}\n",
  };
  std::atomic<std::size_t> next{0};
  MockPeer peer([&](const std::string&) -> std::optional<std::string> {
    return bad_replies[next.fetch_add(1) % bad_replies.size()];
  });
  PeerStore store(peer_options(peer.path()));
  for (std::size_t i = 0; i < bad_replies.size(); ++i) {
    const GetResult r = store.get(key);
    EXPECT_EQ(r.status, StoreStatus::Error) << "reply " << i;
    EXPECT_EQ(r.plan, nullptr) << "reply " << i;
  }
  EXPECT_EQ(store.stats().errors, bad_replies.size());
}

TEST(PeerStore, UnresolvableAlgorithmIsAMiss) {
  // A record that decodes bit-exactly but names an algorithm this build
  // does not register: unusable, but the peer was honest — a Miss, not an
  // Error (it must not strike the breaker).
  const PlanRequest req = reduce_req(8, 16);
  PlanKey key = key_of(req);
  key.algorithm = "NoSuchAlgorithm";
  const std::string record_b64 =
      base64_encode(wsr::store::serialize_plan_record(key, *plan_of(req)));
  MockPeer peer([&](const std::string&) -> std::optional<std::string> {
    return "{\"hit\":true,\"schema\":2,\"record\":\"" + record_b64 + "\"}\n";
  });
  PeerStore store(peer_options(peer.path()));
  EXPECT_EQ(store.get(key).status, StoreStatus::Miss);
}

TEST(PeerStore, EofMidReplyIsAnError) {
  MockPeer peer([](const std::string&) -> std::optional<std::string> {
    return std::nullopt;  // close without replying
  });
  PeerStore store(peer_options(peer.path()));
  EXPECT_EQ(store.get(key_of(reduce_req(8, 16))).status, StoreStatus::Error);
}

TEST(PeerStore, OversizedReplyIsAnError) {
  MockPeer peer([](const std::string&) -> std::optional<std::string> {
    return "{\"hit\":false,\"pad\":\"" + std::string(4096, 'x') + "\"}\n";
  });
  PeerStore store(peer_options(peer.path(), 2000, /*max_reply=*/256));
  EXPECT_EQ(store.get(key_of(reduce_req(8, 16))).status, StoreStatus::Error);
}

TEST(PeerStore, DeadlineBlownIsATimeout) {
  MockPeer peer([](const std::string&) -> std::optional<std::string> {
    return "";  // swallow the request, never answer
  });
  PeerStore store(peer_options(peer.path(), /*timeout_ms=*/60));
  EXPECT_EQ(store.get(key_of(reduce_req(8, 16))).status, StoreStatus::Timeout);
  EXPECT_EQ(store.stats().timeouts, 1u);
}

TEST(PeerStore, RefusedConnectIsAnErrorAndRecovers) {
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);
  std::string path;
  {
    MockPeer ghost([](const std::string&) { return std::nullopt; });
    path = ghost.path();
  }  // socket file unlinked: connects now fail
  PeerStore store(peer_options(path));
  EXPECT_EQ(store.get(key).status, StoreStatus::Error);

  // The same driver reconnects once a peer appears at the target.
  const std::string record_b64 =
      base64_encode(wsr::store::serialize_plan_record(key, *plan_of(req)));
  MockPeer revived([&](const std::string&) -> std::optional<std::string> {
    return "{\"hit\":true,\"schema\":2,\"record\":\"" + record_b64 + "\"}\n";
  });
  PeerStore recovered(peer_options(revived.path()));
  // Point the original driver's target at nothing; use a fresh driver for
  // the revived peer (targets are fixed at construction).
  EXPECT_EQ(recovered.get(key).status, StoreStatus::Hit);
}

// --- tier chain through PlanCache --------------------------------------------

TEST(PlanCacheTiers, TierHitPromotesAndWritesBack) {
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);

  MemoryStore near_tier, far_tier;
  far_tier.put(key, plan_of(req));
  PlanCache cache;
  cache.attach_tier(&near_tier);
  cache.attach_tier(&far_tier);

  PlanSource source = PlanSource::Planned;
  const auto plan = cache.get_or_plan(test_planner(), req, &source);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(source, PlanSource::DiskHit);  // MemoryStore tags as DiskHit
  // Write-back: the nearer tier that missed now holds the plan.
  EXPECT_EQ(near_tier.get(key).status, StoreStatus::Hit);
  // And the memory tier answers the next request directly.
  source = PlanSource::Planned;
  cache.get_or_plan(test_planner(), req, &source);
  EXPECT_EQ(source, PlanSource::MemoryHit);
}

// A tier hit that fails runtime::servable is a miss: it is neither promoted
// nor written back to the nearer tier, which receives the fresh plan.
TEST(PlanCacheTiers, InvalidHitIsAMissAndIsNotWrittenBack) {
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);

  MemoryStore near_tier, far_tier;
  far_tier.put(key, poisoned_plan_of(req));
  PlanCache cache;
  cache.attach_tier(&near_tier);
  cache.attach_tier(&far_tier);

  PlanSource source = PlanSource::MemoryHit;
  const auto plan = cache.get_or_plan(test_planner(), req, &source);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(source, PlanSource::Planned);
  EXPECT_TRUE(runtime::servable(*plan, key.machine));
  EXPECT_EQ(cache.invalid_plans(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u);
  const GetResult near = near_tier.get(key);
  ASSERT_EQ(near.status, StoreStatus::Hit);
  EXPECT_EQ(near.plan.get(), plan.get());
}

// wsr_plan --cache-dir's path: get_or_plan over a file store holding a
// poisoned record under the request's key plans fresh.
TEST(PlanCacheTiers, PoisonedFileRecordPlansFresh) {
  TempDir dir;
  const PlanRequest req = reduce_req(8, 16);
  {
    runtime::PersistentPlanCache file(dir.str());
    file.put(key_of(req), poisoned_plan_of(req));
  }
  runtime::PersistentPlanCache file(dir.str());
  PlanCache cache;
  cache.attach_disk_store(&file);

  PlanSource source = PlanSource::MemoryHit;
  const auto plan = cache.get_or_plan(test_planner(), req, &source);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(source, PlanSource::Planned);
  EXPECT_TRUE(runtime::servable(*plan, key_of(req).machine));
  EXPECT_EQ(cache.disk_hits(), 0u);
  EXPECT_EQ(cache.invalid_plans(), 1u);
}

TEST(PlanCacheTiers, TierFailureFallsThroughToPlanning) {
  const PlanRequest req = reduce_req(8, 16);
  MemoryStore mem;
  mem.put(key_of(req), plan_of(req));
  FlakyStore flaky(mem);
  flaky.set_failure_rate(256, StoreStatus::Timeout);  // every op fails
  PlanCache cache;
  cache.attach_tier(&flaky);

  PlanSource source = PlanSource::MemoryHit;
  const auto plan = cache.get_or_plan(test_planner(), req, &source);
  ASSERT_NE(plan, nullptr);  // served fresh, silently
  EXPECT_EQ(source, PlanSource::Planned);
  EXPECT_EQ(cache.misses(), 1u);
}

// --- serving-side cache verbs ------------------------------------------------

std::string serve_one(serving::Core& core, const std::string& line) {
  std::vector<serving::Request> batch;
  batch.push_back(serving::parse_request(line));
  return core.serve_batch(batch);
}

std::string strip_newline(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

TEST(ServingCacheVerbs, PutGetRoundTripThroughCore) {
  TempDir dir;
  serving::Core::Options opts;
  opts.cache_dir = dir.str();
  opts.serve_cache = true;
  serving::Core core(opts);

  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);
  const auto plan = plan_of(req);

  // Miss before anything is cached.
  const std::string get_line = strip_newline(PeerStore::get_request_line(key));
  EXPECT_EQ(serve_one(core, get_line), "{\"hit\":false}\n");

  // Put, then the same get answers with a decodable record for the key.
  const std::string put_line =
      strip_newline(PeerStore::put_request_line(key, *plan));
  EXPECT_EQ(serve_one(core, put_line), "{\"ok\":true}\n");
  const std::string reply = serve_one(core, get_line);
  const std::string prefix = "{\"hit\":true,\"schema\":2,\"record\":\"";
  ASSERT_EQ(reply.rfind(prefix, 0), 0u) << reply;
  const auto bytes = base64_decode(
      reply.substr(prefix.size(), reply.size() - prefix.size() - 3));
  ASSERT_TRUE(bytes.has_value());
  PlanKey got_key;
  Plan got_plan;
  ASSERT_TRUE(parse_plan_record(*bytes, &got_key, &got_plan));
  EXPECT_EQ(got_key, key);

  // The put also landed in the file tier: a fresh Core over the same dir
  // serves it without a put.
  serving::Core::Options reopen = opts;
  serving::Core core2(reopen);
  EXPECT_EQ(serve_one(core2, get_line).rfind(prefix, 0), 0u);
}

TEST(ServingCacheVerbs, RejectsAndGates) {
  TempDir dir;
  serving::Core::Options opts;
  opts.cache_dir = dir.str();
  opts.serve_cache = true;
  serving::Core core(opts);

  // Malformed payloads are in-band errors, never crashes.
  EXPECT_EQ(serve_one(core,
                      "{\"verb\":\"cache_get\",\"schema\":2,\"key\":\"@@\"}"),
            "{\"error\":\"bad_cache_key\"}\n");
  EXPECT_EQ(
      serve_one(core,
                "{\"verb\":\"cache_put\",\"schema\":2,\"record\":\"AAAA\"}"),
      "{\"error\":\"bad_cache_record\"}\n");
  EXPECT_EQ(serve_one(core, "{\"verb\":\"cache_get\"}"),
            "{\"error\":\"\\\"key\\\" must be a base64 string\"}\n");

  // A foreign schema is a clean miss / refusal, not an error.
  EXPECT_EQ(serve_one(core,
                      "{\"verb\":\"cache_get\",\"schema\":999,\"key\":\"AA==\"}"),
            "{\"hit\":false}\n");

  // Without --serve-cache the verbs are rejected outright.
  serving::Core::Options off;
  serving::Core gated(off);
  const PlanKey key = key_of(reduce_req(8, 16));
  EXPECT_EQ(serve_one(gated, strip_newline(PeerStore::get_request_line(key))),
            "{\"error\":\"cache_disabled\"}\n");
}

TEST(ServingCacheVerbs, PutRefusesAnInvalidSchedule) {
  TempDir dir;
  serving::Core::Options opts;
  opts.cache_dir = dir.str();
  opts.serve_cache = true;
  serving::Core core(opts);

  // Structurally valid records carrying unservable schedules.
  const PlanRequest req = reduce_req(8, 16);
  const PlanKey key = key_of(req);
  Plan zero_count = *poisoned_plan_of(req);
  ASSERT_FALSE(runtime::servable(zero_count, key.machine));
  // Shift every color past the machine's 24 ids: the same transfers on as
  // many colors, so only the ids are wrong.
  Plan recolored = *plan_of(req);
  for (auto& pe_rules : recolored.schedule.rules) {
    for (wse::RouteRule& r : pe_rules) r.color += wse::kNumColors;
  }
  for (wse::PEProgram& prog : recolored.schedule.programs) {
    for (wse::Op& op : prog.ops) {
      op.in_color += wse::kNumColors;
      op.out_color += wse::kNumColors;
    }
  }

  int refused = 0;
  for (const Plan* bad : {&zero_count, &recolored}) {
    EXPECT_EQ(serve_one(core, strip_newline(PeerStore::put_request_line(
                                  key, *bad))),
              "{\"ok\":false}\n");
    // The refusal is counted and the record never reaches any tier.
    EXPECT_NE(serve_one(core, "{\"verb\":\"stats\"}")
                  .find("\"invalid_plans\":" + std::to_string(++refused)),
              std::string::npos);
    EXPECT_EQ(serve_one(core,
                        strip_newline(PeerStore::get_request_line(key))),
              "{\"hit\":false}\n");
  }
}

TEST(ServingCacheVerbs, DiskRestoreIsRevalidatedBeforeServing) {
  TempDir dir;
  const PlanRequest req = reduce_req(8, 16);
  {
    // Seed the persistent tier with a poisoned record under the exact key
    // a plan request resolves to: decodes fine, fails flow-level checks.
    runtime::PersistentPlanCache file(dir.str());
    file.put(key_of(req), poisoned_plan_of(req));
  }
  serving::Core::Options opts;
  opts.cache_dir = dir.str();
  serving::Core core(opts);

  // The disk hit is refused in the tier walk: the first request plans
  // fresh and the fresh plan answers the next one from memory.
  const std::string plan_line =
      "{\"collective\":\"reduce\",\"grid\":\"8\",\"bytes\":64}";
  EXPECT_NE(serve_one(core, plan_line).find("\"cache_tier\":\"planned\""),
            std::string::npos);
  EXPECT_NE(serve_one(core, plan_line).find("\"cache_tier\":\"memory\""),
            std::string::npos);
  EXPECT_NE(serve_one(core, "{\"verb\":\"stats\"}")
                .find("\"invalid_plans\":1"),
            std::string::npos);
}

TEST(ServingCacheVerbs, PrefetchRefusesAnInvalidRecord) {
  TempDir dir;
  const PlanRequest req = reduce_req(8, 16);
  {
    runtime::PersistentPlanCache file(dir.str());
    file.put(key_of(req), poisoned_plan_of(req));
  }
  serving::Core::Options opts;
  opts.cache_dir = dir.str();
  opts.prefetch = 1;
  serving::Core core(opts);
  EXPECT_EQ(core.prefetched(), 0u);

  // Not promoted at boot, so not a memory hit: the tier walk refuses the
  // record again and the request plans fresh.
  const std::string plan_line =
      "{\"collective\":\"reduce\",\"grid\":\"8\",\"bytes\":64}";
  EXPECT_NE(serve_one(core, plan_line).find("\"cache_tier\":\"planned\""),
            std::string::npos);
  EXPECT_NE(serve_one(core, "{\"verb\":\"stats\"}")
                .find("\"invalid_plans\":2"),
            std::string::npos);
}

TEST(ServingCacheVerbs, PrefetchWarmsHottestShapes) {
  TempDir dir;
  const PlanRequest hot_req = reduce_req(8, 16);
  const PlanRequest cold_req = reduce_req(4, 16);
  {
    runtime::PersistentPlanCache file(dir.str());
    file.put(key_of(hot_req), plan_of(hot_req));
    file.put(key_of(cold_req), plan_of(cold_req));
    for (int i = 0; i < 3; ++i) file.note_use(key_of(hot_req));
  }
  serving::Core::Options opts;
  opts.cache_dir = dir.str();
  opts.prefetch = 1;
  serving::Core core(opts);
  EXPECT_EQ(core.prefetched(), 1u);

  // The hottest shape is a memory hit on the very first request.
  std::vector<serving::Request> batch;
  batch.push_back(serving::parse_request(
      "{\"collective\":\"reduce\",\"grid\":\"8\",\"bytes\":64}"));
  const std::string out = core.serve_batch(batch);
  EXPECT_NE(out.find("\"cache_tier\":\"memory\""), std::string::npos) << out;
}

// --- disk tier wire fields ---------------------------------------------------

json::Value parse_line(const std::string& line) {
  std::string error;
  std::optional<json::Value> v = json::parse(line, &error);
  EXPECT_TRUE(v.has_value()) << error << ": " << line;
  return v.value_or(json::Value{});
}

std::vector<std::string> keys_of(const json::Value* obj) {
  std::vector<std::string> keys;
  if (obj != nullptr) {
    for (const auto& [key, value] : obj->object) keys.push_back(key);
  }
  return keys;
}

u64 uint_of(const json::Value* obj, const char* key) {
  return obj != nullptr ? obj->get_uint(key).value_or(~u64{0}) : ~u64{0};
}

TEST(DiskTierWire, StatsAndPlanCacheFieldsArePinned) {
  TempDir dir;
  const std::string warm_line =
      "{\"collective\":\"reduce\",\"grid\":\"8\",\"bytes\":64}";
  const std::string cold_line =
      "{\"collective\":\"reduce\",\"grid\":\"4\",\"bytes\":64}";
  serving::Core::Options opts;
  opts.cache_dir = dir.str();
  {
    serving::Core seeding(opts);
    serve_one(seeding, warm_line);
  }
  const u64 seeded_bytes = fs::file_size(dir.path / "plans.wsrpc");

  serving::Core core(opts);
  const json::Value cold = parse_line(serve_one(core, cold_line));
  const json::Value warm = parse_line(serve_one(core, warm_line));
  const json::Value stats = parse_line(serve_one(core, "{\"verb\":\"stats\"}"));
  EXPECT_EQ(cold.get_string("cache_tier"), "planned");
  EXPECT_EQ(warm.get_string("cache_tier"), "disk");

  const std::vector<std::string> counter_keys = {
      "hits",        "misses",       "evictions",   "disk_hits",
      "disk_misses", "disk_appends", "disk_entries"};
  // {disk_hits, disk_misses, disk_appends, disk_entries} after each line.
  const std::vector<std::pair<const json::Value*, std::vector<u64>>> expected =
      {{cold.get("plan_cache"), {0, 1, 1, 2}},
       {warm.get("plan_cache"), {1, 1, 1, 2}}};
  for (const auto& [counters, want] : expected) {
    EXPECT_EQ(keys_of(counters), counter_keys);
    EXPECT_EQ(uint_of(counters, "disk_hits"), want[0]);
    EXPECT_EQ(uint_of(counters, "disk_misses"), want[1]);
    EXPECT_EQ(uint_of(counters, "disk_appends"), want[2]);
    EXPECT_EQ(uint_of(counters, "disk_entries"), want[3]);
  }

  const json::Value* body = stats.get("stats");
  ASSERT_NE(body, nullptr);
  const json::Value* disk = body->get("disk");
  EXPECT_EQ(keys_of(disk),
            (std::vector<std::string>{"dir", "entries", "loaded", "load_errors",
                                      "hits", "misses", "appended",
                                      "compactions", "load_seconds",
                                      "file_bytes"}));
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->get_string("dir"), dir.str());
  EXPECT_EQ(uint_of(disk, "entries"), 2u);
  EXPECT_EQ(uint_of(disk, "loaded"), 1u);
  EXPECT_EQ(uint_of(disk, "load_errors"), 0u);
  EXPECT_EQ(uint_of(disk, "appended"), 1u);
  EXPECT_EQ(uint_of(disk, "compactions"), 0u);
  EXPECT_EQ(uint_of(disk, "file_bytes"), seeded_bytes);

  const json::Value* file = nullptr;
  const json::Value* store_section = body->get("store");
  ASSERT_NE(store_section, nullptr);
  const json::Value* tiers = store_section->get("tiers");
  ASSERT_NE(tiers, nullptr);
  for (const json::Value& tier : tiers->array) {
    if (tier.get_string("kind") == "file") file = &tier;
  }
  EXPECT_EQ(keys_of(file),
            (std::vector<std::string>{"kind", "gets", "hits", "misses",
                                      "errors", "timeouts", "puts",
                                      "put_errors", "retries", "breaker_trips",
                                      "breaker_fastfails", "hot_tracked"}));
  EXPECT_EQ(uint_of(disk, "hits"), 1u);
  EXPECT_EQ(uint_of(disk, "misses"), 1u);
  EXPECT_EQ(uint_of(disk, "hits"), uint_of(file, "hits"));
  EXPECT_EQ(uint_of(disk, "misses"), uint_of(file, "misses"));
  EXPECT_EQ(uint_of(file, "gets"), 2u);
  EXPECT_EQ(uint_of(file, "puts"), 1u);
  EXPECT_EQ(uint_of(file, "hot_tracked"), 2u);
}


// --- record text and decoder refusals ----------------------------------------

/// Text holding a quote, a backslash, a newline and a control byte, shaped
/// to spoof a response line if written raw.
const std::string kHostileText =
    std::string("evil\"na\\me\n{\"id\":999,\"error\":\"spoofed\"}") +
    std::string(1, '\x01');

// Record text reaches responses: the schedule name of a cache_put record,
// and the plan label of a forced key's record (record_algorithm_resolves
// checks only the key's name). Each answer must stay one line of JSON that
// reads the text back unchanged.
TEST(ServingCacheVerbs, RecordTextCannotBreakResponseFraming) {
  serving::Core::Options opts;
  opts.serve_cache = true;
  serving::Core core(opts);

  const PlanRequest model_req = reduce_req(8, 16);
  Plan named = *plan_of(model_req);
  named.schedule.name = kHostileText;
  const PlanRequest forced_req{Collective::Reduce, {8, 1}, 16, "Chain"};
  Plan labelled = *plan_of(forced_req);
  labelled.algorithm = kHostileText;
  for (const auto& [req, plan] : {std::pair{&model_req, &named},
                                  std::pair{&forced_req, &labelled}}) {
    ASSERT_EQ(serve_one(core, strip_newline(PeerStore::put_request_line(
                                  key_of(*req), *plan))),
              "{\"ok\":true}\n");
  }

  const std::string model_line =
      "{\"collective\":\"reduce\",\"grid\":\"8\",\"bytes\":64}";
  const std::string forced_line =
      "{\"collective\":\"reduce\",\"grid\":\"8\",\"bytes\":64,"
      "\"algorithm\":\"Chain\"}";
  for (const std::string& line : {model_line, forced_line}) {
    const std::string reply = serve_one(core, line);
    ASSERT_EQ(reply.find('\n'), reply.size() - 1) << reply.substr(0, 400);
    const json::Value v = parse_line(strip_newline(reply));
    EXPECT_EQ(v.get_string("cache_tier"), "memory");
    ASSERT_NE(v.get("schedule"), nullptr);
    if (line == model_line) {
      EXPECT_EQ(v.get("schedule")->get_string("name"), kHostileText);
    } else {
      EXPECT_EQ(v.get_string("algorithm"), kHostileText);
    }
  }
}

/// A record of `req`'s key whose schedule claims a `width` x `height` grid
/// but carries one PE's worth of payload.
std::string oversized_grid_record(const PlanRequest& req, u32 width,
                                  u32 height) {
  Plan plan = *plan_of(req);
  plan.schedule = wse::Schedule();
  plan.schedule.grid = {width, height};
  return serialize_plan_record(key_of(req), plan);
}

wse::Op& first_op(Plan& p) {
  for (wse::PEProgram& prog : p.schedule.programs) {
    if (!prog.ops.empty()) return prog.ops[0];
  }
  throw std::logic_error("plan without ops");
}

wse::RouteRule& first_rule(Plan& p) {
  for (std::vector<wse::RouteRule>& rules : p.schedule.rules) {
    if (!rules.empty()) return rules[0];
  }
  throw std::logic_error("plan without rules");
}

/// Records of `req`'s key, each with one enum byte outside its enum (or a
/// forward mask with a bit above Ramp) and valid framing and checksum.
std::vector<std::string> out_of_range_enum_records(const PlanRequest& req) {
  std::vector<std::function<void(PlanKey&, Plan&)>> mutations = {
      [](PlanKey& k, Plan&) { k.collective = static_cast<Collective>(9); },
      [](PlanKey& k, Plan&) {
        k.machine.link_overrides = {{0, 0, static_cast<Dir>(5), 2}};
      },
      [](PlanKey&, Plan& p) { first_op(p).kind = static_cast<wse::OpKind>(3); },
      [](PlanKey&, Plan& p) { first_op(p).mode = static_cast<wse::RecvMode>(3); },
      [](PlanKey&, Plan& p) { first_rule(p).accept = static_cast<Dir>(200); },
      [](PlanKey&, Plan& p) { first_rule(p).forward |= 0x20; },
  };
  std::vector<std::string> records;
  for (const auto& mutate : mutations) {
    PlanKey key = key_of(req);
    Plan plan = *plan_of(req);
    mutate(key, plan);
    records.push_back(serialize_plan_record(key, plan));
  }
  return records;
}

/// `req`'s plan with a result PE far off its grid: decodes, fails validate.
std::shared_ptr<const Plan> off_grid_result_plan_of(const PlanRequest& req) {
  auto bad = std::make_shared<Plan>(*plan_of(req));
  bad->schedule.result_pes = {1000};
  return bad;
}

TEST(RecordCodec, RefusesAGridLargerThanItsPayload) {
  const PlanRequest req = reduce_req(4, 16);
  PlanKey k;
  Plan p;
  // 60000 x 60000 PEs would size per-PE arrays of 3.6e9 entries; 4000 x
  // 4000 would zero-fill about 720 MB before failing.
  EXPECT_FALSE(parse_plan_record(oversized_grid_record(req, 60000, 60000), &k, &p));
  EXPECT_FALSE(parse_plan_record(oversized_grid_record(req, 4000, 4000), &k, &p));
  EXPECT_FALSE(parse_plan_record(oversized_grid_record(req, ~0u, ~0u), &k, &p));
  // Anti-vacuity: the same record with its own grid decodes.
  EXPECT_TRUE(parse_plan_record(
      serialize_plan_record(key_of(req), *plan_of(req)), &k, &p));
}

TEST(RecordCodec, RefusesOutOfRangeEnumBytes) {
  const PlanRequest req = reduce_req(4, 16);
  PlanKey k;
  Plan p;
  const std::vector<std::string> records = out_of_range_enum_records(req);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_FALSE(parse_plan_record(records[i], &k, &p)) << "mutation " << i;
  }
  const std::string key_bytes = serialize_plan_key(
      PlanKey{static_cast<Collective>(9), {4, 1}, 16, {}, ""});
  EXPECT_FALSE(parse_plan_key(key_bytes).has_value());
}

TEST(RecordCodec, ValidateFlagsAResultPeOffTheGrid) {
  const PlanRequest req = reduce_req(4, 16);
  PlanKey k;
  Plan p;
  ASSERT_TRUE(parse_plan_record(
      serialize_plan_record(key_of(req), *off_grid_result_plan_of(req)), &k, &p));
  const std::vector<std::string> problems = wse::validate(p.schedule);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "result PE 1000 is off the grid");
  EXPECT_FALSE(runtime::servable(p, k.machine));
}

TEST(ServingCacheVerbs, PutRefusesRecordsTheDecoderOrValidatorRefuse) {
  serving::Core::Options opts;
  opts.serve_cache = true;
  serving::Core core(opts);
  const PlanRequest req = reduce_req(4, 16);
  const auto put_line = [](const std::string& record) {
    return "{\"verb\":\"cache_put\",\"schema\":2,\"record\":\"" +
           base64_encode(record) + "\"}";
  };
  const std::string plan_line =
      "{\"collective\":\"reduce\",\"grid\":\"4\",\"bytes\":64}";

  std::vector<std::string> undecodable = out_of_range_enum_records(req);
  undecodable.push_back(oversized_grid_record(req, 60000, 60000));
  for (const std::string& record : undecodable) {
    EXPECT_EQ(serve_one(core, put_line(record)),
              "{\"error\":\"bad_cache_record\"}\n");
    EXPECT_NE(serve_one(core, plan_line).find("\"schedule\""), std::string::npos);
  }
  EXPECT_EQ(serve_one(core, put_line(serialize_plan_record(
                                key_of(req), *off_grid_result_plan_of(req)))),
            "{\"ok\":false}\n");
  EXPECT_NE(serve_one(core, plan_line).find("\"schedule\""), std::string::npos);
}

TEST(PersistentCache, RefusedRecordsCountAsLoadErrorsAndTheCoreBoots) {
  TempDir dir;
  const PlanRequest req = reduce_req(4, 16);
  std::string image = header_bytes();
  image += oversized_grid_record(req, 60000, 60000);
  const std::vector<std::string> enums = out_of_range_enum_records(req);
  for (const std::string& record : enums) image += record;
  {
    std::ofstream out(dir.path / "plans.wsrpc", std::ios::binary);
    out << image;
  }
  {
    runtime::PersistentPlanCache file(dir.str());
    const StoreLedger ledger = file.stats();
    EXPECT_EQ(ledger.load_errors, 1 + enums.size());
    EXPECT_EQ(ledger.loaded, 0u);
  }
  serving::Core::Options opts;
  opts.cache_dir = dir.str();
  serving::Core core(opts);
  EXPECT_NE(serve_one(core,
                      "{\"collective\":\"reduce\",\"grid\":\"4\",\"bytes\":64}")
                .find("\"cache_tier\":\"planned\""),
            std::string::npos);
}

// wsr_plan --cache-dir --simulate's path: a stored record whose result PE is
// off the grid is refused by the tier walk, so verification never indexes
// PE memory by it.
TEST(PlanCacheTiers, OffGridResultPeRecordPlansFresh) {
  TempDir dir;
  const PlanRequest req = reduce_req(4, 16);
  {
    runtime::PersistentPlanCache file(dir.str());
    file.put(key_of(req), off_grid_result_plan_of(req));
  }
  runtime::PersistentPlanCache file(dir.str());
  PlanCache cache;
  cache.attach_disk_store(&file);
  PlanSource source = PlanSource::MemoryHit;
  const auto plan = cache.get_or_plan(test_planner(), req, &source);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(source, PlanSource::Planned);
  EXPECT_TRUE(runtime::servable(*plan, key_of(req).machine));
  EXPECT_EQ(cache.invalid_plans(), 1u);
}

}  // namespace
}  // namespace wsr::store
