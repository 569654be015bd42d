// Correctness + timing for 1D AllReduce: Reduce-then-Broadcast variants and
// both Ring mappings.
#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "model/costs1d.hpp"
#include "runtime/planner.hpp"
#include "sim_test_utils.hpp"

namespace wsr {
namespace {

const MachineParams kMp{};

struct Case {
  ReduceAlgo algo;
  u32 p;
  u32 b;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(name(info.param.algo)) + "_P" +
         std::to_string(info.param.p) + "_B" + std::to_string(info.param.b);
}

class AllReduce1D : public ::testing::TestWithParam<Case> {};

TEST_P(AllReduce1D, EveryPEGetsTheExactSum) {
  const auto [algo, p, b] = GetParam();
  static autogen::AutoGenModel model(64, kMp);
  const wse::Schedule s = collectives::make_allreduce_1d(algo, p, b, &model);
  testing::verify_ok(s);
}

TEST_P(AllReduce1D, SimulatorTracksModel) {
  const auto [algo, p, b] = GetParam();
  static autogen::AutoGenModel model(64, kMp);
  const wse::Schedule s = collectives::make_allreduce_1d(algo, p, b, &model);
  const auto r = runtime::verify_on_fabric(s);
  ASSERT_TRUE(r.ok) << r.error;
  const runtime::Planner planner(64, kMp);
  testing::expect_close(r.cycles,
                        planner
                            .predict({runtime::Collective::AllReduce,
                                      {p, 1},
                                      b,
                                      std::string(name(algo)) + "+Bcast"})
                            .cycles,
                        0.20, 40, "allreduce cycles");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllReduce1D,
    ::testing::ValuesIn([] {
      std::vector<Case> cases;
      for (ReduceAlgo a : {ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree,
                           ReduceAlgo::TwoPhase, ReduceAlgo::AutoGen}) {
        for (u32 p : {2u, 5u, 16u, 64u}) {
          for (u32 b : {1u, 32u, 256u}) {
            cases.push_back({a, p, b});
          }
        }
      }
      return cases;
    }()),
    case_name);

// --- Ring --------------------------------------------------------------------

struct RingCase {
  collectives::RingMapping mapping;
  u32 p;
  u32 b;
};

std::string ring_case_name(const ::testing::TestParamInfo<RingCase>& info) {
  return std::string(info.param.mapping == collectives::RingMapping::Simple
                         ? "Simple"
                         : "DistPres") +
         "_P" + std::to_string(info.param.p) + "_B" +
         std::to_string(info.param.b);
}

class Ring1D : public ::testing::TestWithParam<RingCase> {};

TEST_P(Ring1D, EveryPEGetsTheExactSum) {
  const auto [mapping, p, b] = GetParam();
  const wse::Schedule s = collectives::make_ring_allreduce_1d(p, b, mapping);
  testing::verify_ok(s);
}

TEST_P(Ring1D, SimulatorTracksLemma61) {
  const auto [mapping, p, b] = GetParam();
  const wse::Schedule s = collectives::make_ring_allreduce_1d(p, b, mapping);
  const auto r = runtime::verify_on_fabric(s);
  ASSERT_TRUE(r.ok) << r.error;
  // Ring is latency-bound at these sizes; the model is coarse here (it is
  // predicted-only in the paper). Allow a loose envelope.
  testing::expect_close(r.cycles, predict_ring_allreduce(p, b, kMp).cycles,
                        0.45, 48, "ring cycles");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Ring1D,
    ::testing::ValuesIn([] {
      std::vector<RingCase> cases;
      for (auto m : {collectives::RingMapping::Simple,
                     collectives::RingMapping::DistancePreserving}) {
        for (u32 p : {2u, 3u, 4u, 8u, 16u}) {
          for (u32 mult : {1u, 4u, 32u}) {
            cases.push_back({m, p, p * mult});
          }
        }
      }
      return cases;
    }()),
    ring_case_name);

TEST(Ring1D_Properties, BothMappingsWithinAFewPercent) {
  // Lemma 6.1 predicts identical cost for both mappings.
  for (u32 p : {8u, 16u}) {
    const u32 b = p * 16;
    const auto simple = testing::verify_ok(collectives::make_ring_allreduce_1d(
        p, b, collectives::RingMapping::Simple));
    const auto dp = testing::verify_ok(collectives::make_ring_allreduce_1d(
        p, b, collectives::RingMapping::DistancePreserving));
    testing::expect_close(dp.cycles, simple.cycles, 0.15, 24, "ring mappings");
  }
}

TEST(AllReduce1D_Properties, RingLosesToChainBcastForSmallVectors) {
  // Section 6.3: multicast makes reduce-then-broadcast dominate ring except
  // in the contention-bound band.
  const u32 p = 16, b = 16;
  const auto ring = testing::verify_ok(collectives::make_ring_allreduce_1d(
      p, b, collectives::RingMapping::Simple));
  const auto chainb = testing::verify_ok(
      collectives::make_allreduce_1d(ReduceAlgo::Chain, p, b));
  EXPECT_GT(ring.cycles, chainb.cycles);
}

TEST(AllReduce1D_Properties, BroadcastAddsTheModelDelta) {
  // AllReduce(Chain) - Reduce(Chain) ~ T_bcast.
  const u32 p = 32, b = 256;
  const auto red =
      testing::verify_ok(collectives::make_reduce_1d(ReduceAlgo::Chain, p, b));
  const auto all = testing::verify_ok(
      collectives::make_allreduce_1d(ReduceAlgo::Chain, p, b));
  testing::expect_close(all.cycles - red.cycles,
                        predict_broadcast_1d(p, b, kMp).cycles, 0.10, 16,
                        "bcast delta");
}

}  // namespace
}  // namespace wsr
