// Ablation A6 (extension): the PlanCache hit path vs cold planning.
//
// The serving story (ROADMAP: heavy traffic, millions of users) repeats the
// same (collective, grid, B) shapes constantly; a cold plan evaluates every
// registered candidate's cost model and compiles + validates the winning
// schedule, while a cache hit is one sharded hash lookup returning a shared
// immutable plan. This bench measures both paths over a realistic request
// mix and checks the acceptance bar: hit path >= 10x faster than cold.
//
// The latency loops are deliberately single-threaded (they measure
// per-request latency, not throughput); --jobs is accepted for interface
// uniformity but unused here.
#include <chrono>
#include <cstdio>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "runtime/plan_cache.hpp"

using namespace wsr;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start, u64 ops) {
  const auto dt = Clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
         static_cast<double>(ops);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "abl_plan_cache");
  const runtime::Planner planner(128);
  planner.autogen_model();  // steady state: exclude the one-time DP fill

  // A realistic serving mix: 1D and 2D reduce/allreduce/broadcast shapes.
  std::vector<runtime::PlanRequest> requests;
  for (u32 p : {16u, 32u, 64u, 128u}) {
    for (u32 b : {16u, 256u, 1024u, 4096u}) {
      requests.push_back({runtime::Collective::Reduce, {p, 1}, b, ""});
      requests.push_back({runtime::Collective::AllReduce, {p, 1}, b, ""});
      requests.push_back({runtime::Collective::AllReduce, {p / 2, p / 2}, b, ""});
      requests.push_back({runtime::Collective::Broadcast, {p, 1}, b, ""});
    }
  }

  // Cold path: full model-driven planning per request.
  constexpr u32 kColdRounds = 5;
  const auto cold_start = Clock::now();
  u64 cold_ops = 0;
  for (u32 r = 0; r < kColdRounds; ++r) {
    for (const auto& req : requests) {
      const runtime::Plan plan = planner.plan(req);
      cold_ops += static_cast<u64>(plan.prediction.cycles != 0);
    }
  }
  const double cold_ns = ns_since(cold_start, cold_ops);

  // Warm path: the same requests served out of the cache.
  runtime::PlanCache cache;
  for (const auto& req : requests) cache.get_or_plan(planner, req);

  constexpr u32 kHitRounds = 200;
  const auto hit_start = Clock::now();
  u64 hit_ops = 0;
  i64 sink = 0;
  for (u32 r = 0; r < kHitRounds; ++r) {
    for (const auto& req : requests) {
      sink += cache.get_or_plan(planner, req)->prediction.cycles;
      ++hit_ops;
    }
  }
  const double hit_ns = ns_since(hit_start, hit_ops);

  const double speedup = cold_ns / hit_ns;
  std::printf("=== Ablation: PlanCache hit path vs cold planning ===\n");
  std::printf("distinct shapes        : %zu\n", requests.size());
  std::printf("cold plan              : %12.0f ns/request  (%llu plans)\n",
              cold_ns, static_cast<unsigned long long>(cold_ops));
  std::printf("cache hit              : %12.0f ns/request  (%llu lookups, "
              "%llu hits)\n",
              hit_ns, static_cast<unsigned long long>(hit_ops),
              static_cast<unsigned long long>(cache.hits()));
  std::printf("hit-path speedup       : %12.1fx  (acceptance bar: >= 10x)\n",
              speedup);
  std::printf("checksum               : %lld\n", static_cast<long long>(sink));

  // Batch serving: a step's worth of repeated shapes through the cache on
  // worker threads, as serving::Core plans a batch.
  std::vector<runtime::PlanRequest> batch;
  for (u32 r = 0; r < 8; ++r) {
    batch.insert(batch.end(), requests.begin(), requests.end());
  }
  std::vector<std::shared_ptr<const runtime::Plan>> plans(batch.size());
  const auto batch_start = Clock::now();
  parallel_for_index(batch.size(), 0, [&](std::size_t i) {
    plans[i] = cache.get_or_plan(planner, batch[i]);
  });
  const double batch_ns = ns_since(batch_start, batch.size());
  std::printf("batch (cached)         : %12.0f ns/request over %zu requests\n",
              batch_ns, plans.size());

  // A bounded cache must evict, not grow: replay the mix through a cache
  // whose capacity is half the distinct shapes and check accounting.
  runtime::PlanCache bounded(/*num_shards=*/4,
                             /*max_entries=*/requests.size() / 2);
  for (u32 r = 0; r < 3; ++r) {
    for (const auto& req : requests) bounded.get_or_plan(planner, req);
  }
  std::printf("bounded cache          : size %zu <= cap %zu, %llu evictions\n",
              bounded.size(), requests.size() / 2,
              static_cast<unsigned long long>(bounded.evictions()));

  bench.metric("PlanCache hit path over cold planning (acceptance bar 10x)",
               speedup);
  if (speedup < 10.0) {
    std::printf("FAILED: hit path must be >= 10x faster than cold planning\n");
    return 1;
  }
  std::printf("OK\n");
  const int rc = bench.finish();
  return rc;
}
