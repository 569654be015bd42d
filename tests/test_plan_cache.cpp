// Tests of the PlanCache: keying, hit/miss accounting, batches planned on
// worker threads, cross-thread consistency under contention, and planning
// while the process-wide Auto-Gen tables grow.
#include "runtime/plan_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <thread>

#include "common/parallel.hpp"
#include "runtime/plan_json.hpp"
#include "sim_test_utils.hpp"

namespace wsr::runtime {
namespace {

PlanRequest reduce_req(u32 p, u32 b) {
  return {Collective::Reduce, {p, 1}, b, ""};
}

/// Plans `reqs` on `jobs` workers the way a batch caller does: through
/// `cache` when given, else straight from the shared planner.
std::vector<std::shared_ptr<const Plan>> plan_batch(
    const Planner& planner, const std::vector<PlanRequest>& reqs,
    PlanCache* cache, u32 jobs) {
  std::vector<std::shared_ptr<const Plan>> out(reqs.size());
  parallel_for_index(reqs.size(), jobs, [&](std::size_t i) {
    out[i] = cache != nullptr
                 ? cache->get_or_plan(planner, reqs[i])
                 : std::make_shared<const Plan>(planner.plan(reqs[i]));
  });
  return out;
}

TEST(PlanCache, HitReturnsTheIdenticalPlan) {
  const Planner planner(32);
  PlanCache cache;
  const PlanRequest req = reduce_req(16, 64);
  const auto first = cache.get_or_plan(planner, req);
  const auto second = cache.get_or_plan(planner, req);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // shared, not re-planned
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, KeyCoversShapeCollectiveAlgorithmAndMachine) {
  const Planner a(32);
  const Planner b(32, MachineParams{.ramp_latency = 7});
  const PlanRequest req = reduce_req(16, 64);
  EXPECT_EQ(PlanCache::key_for(a, req), PlanCache::key_for(a, req));
  EXPECT_NE(PlanCache::key_for(a, req), PlanCache::key_for(b, req));
  EXPECT_NE(PlanCache::key_for(a, reduce_req(16, 64)),
            PlanCache::key_for(a, reduce_req(16, 128)));
  EXPECT_NE(PlanCache::key_for(a, reduce_req(16, 64)),
            PlanCache::key_for(a, reduce_req(8, 64)));
  PlanRequest forced = reduce_req(16, 64);
  forced.algorithm = "Chain";
  EXPECT_NE(PlanCache::key_for(a, req), PlanCache::key_for(a, forced));
  PlanRequest allreduce = reduce_req(16, 64);
  allreduce.collective = Collective::AllReduce;
  EXPECT_NE(PlanCache::key_for(a, req), PlanCache::key_for(a, allreduce));
}

TEST(PlanCache, CachedPlansMatchDirectPlanning) {
  const Planner planner(32);
  PlanCache cache;
  for (const PlanRequest& req :
       {reduce_req(8, 16), reduce_req(32, 1024),
        PlanRequest{Collective::AllReduce, {16, 1}, 64, ""},
        PlanRequest{Collective::AllReduce, {8, 8}, 64, ""},
        PlanRequest{Collective::Broadcast, {8, 1}, 32, ""}}) {
    const Plan direct = planner.plan(req);
    const auto cached = cache.get_or_plan(planner, req);
    EXPECT_EQ(cached->algorithm, direct.algorithm);
    EXPECT_EQ(cached->prediction.cycles, direct.prediction.cycles);
    EXPECT_EQ(cached->schedule.name, direct.schedule.name);
  }
}

TEST(PlanCache, EightThreadsHammeringOneCacheStayConsistent) {
  const Planner planner(32);
  PlanCache cache(4);  // few shards => real lock contention
  const std::vector<PlanRequest> shapes = {
      reduce_req(8, 16),
      reduce_req(16, 64),
      reduce_req(32, 1024),
      PlanRequest{Collective::AllReduce, {16, 1}, 64, ""},
      PlanRequest{Collective::AllReduce, {16, 1}, 4096, ""},
      PlanRequest{Collective::Reduce, {8, 8}, 256, ""},
      PlanRequest{Collective::AllReduce, {8, 8}, 64, ""},
      PlanRequest{Collective::Broadcast, {16, 1}, 128, ""},
  };
  constexpr u32 kThreads = 8;
  constexpr u32 kIters = 64;

  std::vector<std::vector<std::shared_ptr<const Plan>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (u32 i = 0; i < kIters; ++i) {
        // Each thread walks the shapes in a different rotation so lookups
        // and inserts interleave across shards.
        const PlanRequest& req = shapes[(i + t) % shapes.size()];
        seen[t].push_back(cache.get_or_plan(planner, req));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(cache.size(), shapes.size());
  EXPECT_EQ(cache.hits() + cache.misses(), u64{kThreads} * kIters);
  EXPECT_GE(cache.misses(), shapes.size());

  // Every thread must have observed the same canonical plan per shape.
  for (u32 t = 0; t < kThreads; ++t) {
    for (u32 i = 0; i < kIters; ++i) {
      const PlanRequest& req = shapes[(i + t) % shapes.size()];
      const auto canonical = cache.find(PlanCache::key_for(planner, req));
      ASSERT_NE(canonical, nullptr);
      EXPECT_EQ(seen[t][i]->algorithm, canonical->algorithm);
      EXPECT_EQ(seen[t][i]->prediction.cycles, canonical->prediction.cycles);
    }
  }
}

TEST(PlanCacheEviction, BoundedCacheNeverExceedsCapacity) {
  const Planner planner(32);
  // 4 shards, capacity 8 => per-shard capacity 2.
  PlanCache cache(4, 8);
  EXPECT_EQ(cache.max_entries(), 8u);

  // Fill far past the bound: 24 distinct shapes, 3 passes.
  std::vector<PlanRequest> shapes;
  for (u32 p : {4u, 8u, 16u, 24u, 32u, 12u}) {
    for (u32 b : {16u, 64u, 256u, 1024u}) shapes.push_back(reduce_req(p, b));
  }
  for (u32 round = 0; round < 3; ++round) {
    for (const auto& req : shapes) cache.get_or_plan(planner, req);
  }

  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.evictions(), 0u);
  // Accounting: every lookup was either a hit or a miss, and every eviction
  // was preceded by the insert of a miss.
  EXPECT_EQ(cache.hits() + cache.misses(), u64{3} * shapes.size());
  EXPECT_LE(cache.evictions(), cache.misses());
  // Evicted shapes re-plan on the next round: with 24 shapes cycling
  // through capacity 8, later rounds keep missing (LRU churn), so misses
  // exceed the distinct-shape count.
  EXPECT_GT(cache.misses(), shapes.size());

  // The cache still serves correct plans after heavy eviction churn.
  const Plan direct = planner.plan(shapes[0]);
  const auto cached = cache.get_or_plan(planner, shapes[0]);
  EXPECT_EQ(cached->algorithm, direct.algorithm);
  EXPECT_EQ(cached->prediction.cycles, direct.prediction.cycles);
}

TEST(PlanCacheEviction, LruKeepsTheHotEntry) {
  const Planner planner(32);
  // One shard so the recency order is global and deterministic.
  PlanCache cache(1, 2);
  const PlanRequest hot = reduce_req(8, 16);
  const PlanRequest warm = reduce_req(16, 64);
  const PlanRequest cold = reduce_req(32, 256);

  const auto hot_plan = cache.get_or_plan(planner, hot);
  cache.get_or_plan(planner, warm);
  cache.get_or_plan(planner, hot);   // refresh: hot is now most recent
  cache.get_or_plan(planner, cold);  // evicts warm, not hot
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  // hot must still be served from cache (same object), warm re-plans.
  EXPECT_EQ(cache.get_or_plan(planner, hot).get(), hot_plan.get());
  const u64 misses_before = cache.misses();
  cache.get_or_plan(planner, warm);
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(PlanCacheEviction, BoundedCacheSurvivesThreadChurn) {
  const Planner planner(32);
  PlanCache cache(2, 4);
  std::vector<PlanRequest> shapes;
  for (u32 p : {4u, 8u, 16u, 24u, 32u}) {
    for (u32 b : {16u, 64u, 256u}) shapes.push_back(reduce_req(p, b));
  }
  std::vector<std::thread> threads;
  for (u32 t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (u32 i = 0; i < 32; ++i) {
        const auto plan =
            cache.get_or_plan(planner, shapes[(i + t) % shapes.size()]);
        ASSERT_NE(plan, nullptr);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.hits() + cache.misses(), u64{4} * 32);
}

TEST(PlanCacheBatch, MatchesSequentialPlanningAndSharesCacheEntries) {
  const Planner planner(32);
  std::vector<PlanRequest> reqs;
  for (u32 i = 0; i < 24; ++i) {
    // 6 distinct shapes, each repeated 4 times.
    reqs.push_back(reduce_req(8 + 4 * (i % 6), 32u << (i % 3)));
  }

  PlanCache cache;
  const auto with_cache = plan_batch(planner, reqs, &cache, 8);
  const auto without_cache = plan_batch(planner, reqs, nullptr, 4);
  ASSERT_EQ(with_cache.size(), reqs.size());
  ASSERT_EQ(without_cache.size(), reqs.size());

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Plan direct = planner.plan(reqs[i]);
    ASSERT_NE(with_cache[i], nullptr);
    ASSERT_NE(without_cache[i], nullptr);
    EXPECT_EQ(with_cache[i]->algorithm, direct.algorithm);
    EXPECT_EQ(with_cache[i]->prediction.cycles, direct.prediction.cycles);
    EXPECT_EQ(without_cache[i]->algorithm, direct.algorithm);
    EXPECT_EQ(without_cache[i]->prediction.cycles, direct.prediction.cycles);
  }

  // Identical requests resolve to the same cached object.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    for (std::size_t j = i + 1; j < reqs.size(); ++j) {
      if (reqs[i] == reqs[j]) {
        EXPECT_EQ(with_cache[i].get(), with_cache[j].get());
      }
    }
  }
}

TEST(PlanCacheBatch, PlannedSchedulesExecuteCorrectly) {
  const Planner planner(16);
  const std::vector<PlanRequest> reqs = {
      reduce_req(8, 32),
      PlanRequest{Collective::AllReduce, {16, 1}, 64, ""},
      PlanRequest{Collective::AllReduce, {4, 4}, 16, ""},
      PlanRequest{Collective::Broadcast, {8, 1}, 16, ""},
  };
  PlanCache cache;
  const auto plans = plan_batch(planner, reqs, &cache, 4);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    testing::verify_ok(plans[i]->schedule,
                       reqs[i].collective == Collective::Broadcast);
  }
}

// Views and planners share the process-wide tables, which grow while other
// threads read them: 8 threads build views of shuffled sizes 2-512 at mixed
// T_R and plan on them, and every answer equals a serial run's.
TEST(SharedTables, ConcurrentViewsAndPlansMatchASerialRun) {
  std::vector<std::pair<u32, u32>> work;  // (PEs, T_R)
  for (u32 n : {2u, 3u, 7u, 16u, 33u, 64u, 100u, 128u, 200u, 256u, 300u, 512u}) {
    for (u32 tr : {0u, 2u, 5u}) work.emplace_back(n, tr);
  }
  const auto answer = [](u32 n, u32 tr) {
    MachineParams mp;
    mp.ramp_latency = tr;
    const autogen::AutoGenModel view(n, mp);
    const auto choice = view.best_choice(n, 256);
    const Planner planner(n, mp);
    const PlanRequest req = reduce_req(n, 64);
    std::ostringstream out;
    out << choice.depth << ' ' << choice.fanout << ' ' << choice.energy << ' '
        << choice.cycles << ' ' << planner.reduce_1d_lower_bound(n, 64) << ' '
        << plan_response_json(req, planner.plan(req), mp);
    return out.str();
  };

  constexpr u32 kThreads = 8;
  std::vector<std::vector<std::string>> seen(
      kThreads, std::vector<std::string>(work.size()));
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(work.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), std::mt19937(t));
      for (std::size_t i : order) {
        seen[t][i] = answer(work[i].first, work[i].second);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t i = 0; i < work.size(); ++i) {
    const std::string serial = answer(work[i].first, work[i].second);
    for (u32 t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][i], serial)
          << "P=" << work[i].first << " T_R=" << work[i].second;
    }
  }
}

}  // namespace
}  // namespace wsr::runtime
