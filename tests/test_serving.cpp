// Tests of the serving layer's building blocks: the lock-free latency
// histogram's bucketing math, the wire-protocol request parser, the epoll
// event loop's wake/post/tick machinery, and Core's per-machine planner
// table. The end-to-end daemon behavior (timeouts, shedding, drain) is
// covered by tools/wsrd_chaos.py.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "common/minijson.hpp"
#include "runtime/plan_json.hpp"
#include "serving/core.hpp"
#include "serving/event_loop.hpp"
#include "serving/histogram.hpp"
#include "serving/request.hpp"

namespace wsr::serving {
namespace {

// --- LatencyHistogram -------------------------------------------------------

TEST(LatencyHistogram, ExactBelowLinearRange) {
  for (u64 us = 0; us < LatencyHistogram::kLinear; ++us) {
    EXPECT_EQ(LatencyHistogram::bucket_of(us), us);
    EXPECT_EQ(LatencyHistogram::bucket_floor(static_cast<u32>(us)), us);
  }
}

TEST(LatencyHistogram, BucketOfIsMonotoneAndFloorInverts) {
  u32 prev = 0;
  for (u64 us = 0; us < (1u << 22); us += 13) {
    const u32 b = LatencyHistogram::bucket_of(us);
    EXPECT_GE(b, prev) << "us=" << us;
    prev = b > prev ? b : prev;
    EXPECT_LE(LatencyHistogram::bucket_floor(b), us);
    EXPECT_GT(LatencyHistogram::bucket_ceil(b), us);
  }
  // Every bucket's floor maps back to that bucket, across the whole range.
  for (u32 b = 0; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::bucket_floor(b)),
              b);
  }
  EXPECT_EQ(LatencyHistogram::bucket_of(~u64{0}),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, QuantizationErrorIsBounded) {
  // 8 sub-buckets per octave: a bucket spans at most 1/8 of its floor, so
  // the midpoint answer is within ~6.25% of any value in the bucket.
  for (u64 us = LatencyHistogram::kLinear; us < (1u << 24); us = us * 9 / 8 + 1) {
    const u32 b = LatencyHistogram::bucket_of(us);
    const u64 lo = LatencyHistogram::bucket_floor(b);
    const u64 hi = LatencyHistogram::bucket_ceil(b);
    EXPECT_LE(hi - lo, lo / (LatencyHistogram::kSub - 1))
        << "bucket " << b << " too wide at us=" << us;
  }
}

TEST(LatencyHistogram, PercentilesAndMax) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  // 100 values: 1..100 us (exact buckets up to 15, coarse above).
  for (u64 v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max_us(), 100u);
  const u64 p50 = h.percentile(0.50);
  EXPECT_GE(p50, 40u);
  EXPECT_LE(p50, 60u);
  const u64 p99 = h.percentile(0.99);
  EXPECT_GE(p99, 90u);
  EXPECT_LE(p99, 110u);
  EXPECT_GE(h.percentile(1.0), p99);
  EXPECT_LE(h.percentile(0.0), h.percentile(0.5));
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPer = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPer; ++i)
        h.record(static_cast<u64>(t * 1000 + i % 997));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<u64>(kThreads) * kPer);
}

// --- parse_request ----------------------------------------------------------

TEST(ParseRequest, AcceptsAWellFormedPlanLine) {
  const Request r = parse_request(
      R"({"id":"abc","collective":"reduce","grid":"8x4","bytes":512})");
  EXPECT_TRUE(r.is_plan());
  EXPECT_EQ(r.error, "");
  EXPECT_EQ(r.id_json, "\"abc\"");
  EXPECT_EQ(r.req.grid.width, 8u);
  EXPECT_EQ(r.req.grid.height, 4u);
  EXPECT_EQ(r.req.vec_len, 128u);  // bytes / 4
  EXPECT_GT(r.t_enqueue_us, 0);
}

TEST(ParseRequest, EchoesNumericIds) {
  const Request r = parse_request(
      R"({"id":7,"collective":"reduce","grid":"32","bytes":256})");
  EXPECT_EQ(r.id_json, "7");
  const Request bad = parse_request(
      R"({"id":[1],"collective":"reduce","grid":"32","bytes":256})");
  EXPECT_NE(bad.error, "");
}

TEST(ParseRequest, StatsVerb) {
  const Request r = parse_request(R"({"verb":"stats","id":"s"})");
  EXPECT_TRUE(r.stats);
  EXPECT_FALSE(r.is_plan());
  EXPECT_EQ(r.id_json, "\"s\"");
  const Request bad = parse_request(R"({"verb":"frobnicate"})");
  EXPECT_NE(bad.error.find("unknown verb"), std::string::npos);
}

// Request text quoted in an error message is escaped once, when the
// answer is written: the client decodes exactly the name it sent.
TEST(ParseRequest, ErrorTextIsEscapedOnceWhenWritten) {
  const Request bad = parse_request(R"({"verb":"a\"b\\c"})");
  EXPECT_EQ(bad.error.rfind("unknown verb \"a\"b\\c\" (", 0), 0u) << bad.error;
  Core core(Core::Options{});
  std::vector<Request> batch;
  batch.push_back(bad);
  const std::string reply = core.serve_batch(batch);
  ASSERT_EQ(reply.find('\n'), reply.size() - 1);
  const auto v = json::parse(reply);
  ASSERT_TRUE(v.has_value()) << reply;
  EXPECT_EQ(v->get_string("error"), bad.error);
}

TEST(ParseRequest, RejectsMalformedLinesInBand) {
  EXPECT_NE(parse_request("not json at all").error, "");
  EXPECT_NE(parse_request("[1,2,3]").error, "");  // not an object
  EXPECT_NE(parse_request(R"({"collective":"sort","grid":"4","bytes":4})")
                .error, "");
  EXPECT_NE(parse_request(R"({"collective":"reduce","bytes":4})").error, "");
  EXPECT_NE(parse_request(R"({"collective":"reduce","grid":"0","bytes":4})")
                .error, "");
  // bytes and vec_len are mutually exclusive, and bytes must be 4-aligned.
  EXPECT_NE(
      parse_request(
          R"({"collective":"reduce","grid":"32","bytes":8,"vec_len":2})")
          .error, "");
  EXPECT_NE(parse_request(R"({"collective":"reduce","grid":"32"})").error, "");
  EXPECT_NE(parse_request(R"({"collective":"reduce","grid":"32","bytes":6})")
                .error, "");
  EXPECT_NE(
      parse_request(
          R"({"collective":"reduce","grid":"32","bytes":4,"algorithm":"X"})")
          .error, "");
  // Grid extents above runtime::kMaxGridExtent (1024), in both grid forms:
  // planning them would abort in the Auto-Gen model or exhaust memory.
  EXPECT_NE(parse_request(R"({"collective":"reduce","grid":"70000","bytes":4})")
                .error, "");
  EXPECT_NE(parse_request(R"({"collective":"reduce",)"
                          R"("grid":{"width":70000,"height":1},"bytes":4})")
                .error, "");
  EXPECT_NE(parse_request(
                R"({"collective":"broadcast","grid":"60000x60000","bytes":4})")
                .error, "");
  EXPECT_NE(parse_request(R"({"collective":"reduce","grid":"2x1025","bytes":4})")
                .error, "");
  EXPECT_EQ(parse_request(R"({"collective":"reduce","grid":"1024","bytes":4})")
                .error, "");
  EXPECT_EQ(parse_request(R"({"collective":"reduce",)"
                          R"("grid":{"width":1024,"height":1024},"bytes":4})")
                .error, "");
  // "tr" is an integer in 0..1024.
  const auto with_tr = [](const std::string& tr) {
    return parse_request(R"({"collective":"reduce","grid":"32","bytes":4,"tr":)" +
                         tr + "}");
  };
  for (const char* bad : {"2.7", "-1", "1025", "\"2\"", "true", "null"}) {
    EXPECT_NE(with_tr(bad).error, "") << "tr=" << bad;
  }
  for (u32 good : {0u, 5u, 1024u}) {
    const Request r = with_tr(std::to_string(good));
    EXPECT_EQ(r.error, "") << "tr=" << good;
    EXPECT_EQ(r.mp.ramp_latency, good);
  }
}

TEST(FrontEndParsers, BytesGridAndRampLatency) {
  // One bytes rule for wsrd's "bytes" and wsr_plan's <bytes>: a positive
  // multiple of 4 with bytes / 4 <= 2^32 - 1.
  EXPECT_EQ(runtime::vec_len_for_bytes(4), 1u);
  EXPECT_EQ(runtime::vec_len_for_bytes(17179869180ull), 0xffffffffu);
  for (u64 bad : {0ull, 6ull, 17179869184ull, 18446744073709551612ull}) {
    EXPECT_FALSE(runtime::vec_len_for_bytes(bad).has_value()) << bad;
  }
  // wsr_plan reads decimal digits only.
  EXPECT_EQ(runtime::parse_bytes("0004"), 1u);
  for (const char* bad : {"", "4abc", "-4", "+4", " 4", "4.0", "17179869184",
                          "18446744073709551616"}) {
    EXPECT_FALSE(runtime::parse_bytes(bad).has_value()) << bad;
  }
  EXPECT_EQ(runtime::parse_grid("512"), (GridShape{512, 1}));
  EXPECT_EQ(runtime::parse_grid("64x32"), (GridShape{64, 32}));
  EXPECT_EQ(runtime::parse_grid("4294967295x1"),
            (GridShape{0xffffffffu, 1}));
  for (const char* bad : {"", "0", "4x0", "x4", "4x", "4x4x4", "-4", "4294967296",
                          "1x4294967296"}) {
    EXPECT_FALSE(runtime::parse_grid(bad).has_value()) << bad;
  }
  EXPECT_EQ(runtime::parse_ramp_latency("1024"), 1024u);
  for (const char* bad : {"", "1025", "-1", "2.7", "abc"}) {
    EXPECT_FALSE(runtime::parse_ramp_latency(bad).has_value()) << bad;
  }
}

TEST(ParseRequest, ErrorResponseShape) {
  EXPECT_EQ(error_response("overloaded"), "{\"error\":\"overloaded\"}\n");
  EXPECT_EQ(error_response("too_large", "\"id9\""),
            "{\"id\":\"id9\",\"error\":\"too_large\"}\n");
}

// --- EventLoop --------------------------------------------------------------

TEST(EventLoop, DispatchesReadinessPostAndTick) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  int reads = 0;
  const u64 id = loop.add(fds[0], EPOLLIN, [&](u32) {
    char buf[8];
    ASSERT_GT(::read(fds[0], buf, sizeof buf), 0);
    if (++reads == 2) loop.stop();
  });
  EXPECT_GT(id, 0u);

  bool posted = false;
  loop.post([&] { posted = true; });

  int ticks = 0;
  loop.set_tick(1, [&] { ++ticks; });

  // Readiness arrives from another thread mid-run; post() must wake the
  // loop even with no fd activity.
  std::thread writer([&] {
    ::usleep(20'000);
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    ::usleep(20'000);
    ASSERT_EQ(::write(fds[1], "y", 1), 1);
  });
  loop.run();
  writer.join();

  EXPECT_EQ(reads, 2);
  EXPECT_TRUE(posted);
  EXPECT_GT(ticks, 0);

  loop.remove(id);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, RemovedSourceStopsDelivering) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<int> fired{0};
  const u64 id = loop.add(fds[0], EPOLLIN, [&](u32) { ++fired; });
  loop.remove(id);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  // With the only source removed, the loop must idle until stopped.
  loop.post([&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(fired.load(), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- Core planner table ------------------------------------------------------

std::string serve_line(Core& core, const std::string& line) {
  std::vector<Request> batch;
  batch.push_back(parse_request(line));
  return core.serve_batch(batch);
}

/// A response minus its plan_cache counters, which also count the Core's
/// earlier requests.
std::string without_cache_counters(std::string response) {
  const std::string key = "\"plan_cache\":{";
  const std::size_t at = response.find(key);
  if (at != std::string::npos) {
    response.erase(at, response.find("},", at) + 2 - at);
  }
  return response;
}

// Link overrides are part of the machine: a degraded request must be planned
// and priced for its own machine whatever a Core served before it, so each
// answer equals a fresh Core's, in either order.
TEST(CorePlanners, DegradedRequestsGetTheirOwnPlanner) {
  const std::string pristine =
      R"({"id":1,"collective":"reduce","grid":"128","bytes":1024})";
  const std::string degraded =
      R"({"id":2,"collective":"reduce","grid":"128","bytes":1024,)"
      R"("link_overrides":["5,0,W,3"]})";
  const Core::Options opts;
  for (const auto& [first, second] :
       {std::pair{pristine, degraded}, std::pair{degraded, pristine}}) {
    Core fresh(opts);
    const std::string alone = serve_line(fresh, second);
    Core shared(opts);
    serve_line(shared, first);
    EXPECT_EQ(without_cache_counters(serve_line(shared, second)),
              without_cache_counters(alone));
  }
  // Anti-vacuity: the override is on the Reduce's path, so the two
  // machines' predictions differ.
  const auto predicted = [](const std::string& response) {
    const std::size_t at = response.find("\"predicted_cycles\":");
    return response.substr(at, response.find(',', at) - at);
  };
  Core a(opts), b(opts);
  EXPECT_NE(predicted(serve_line(a, pristine)),
            predicted(serve_line(b, degraded)));
}

}  // namespace
}  // namespace wsr::serving
