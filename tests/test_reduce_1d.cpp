// Parameterized correctness + timing tests for every 1D Reduce pattern.
#include <gtest/gtest.h>

#include "autogen/dp.hpp"
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

class Reduce1D : public ::testing::TestWithParam<Case> {
 protected:
  static const autogen::AutoGenModel& model() {
    static autogen::AutoGenModel m(128, kMp);
    return m;
  }
};

TEST_P(Reduce1D, ComputesExactSum) {
  const auto [algo, p, b] = GetParam();
  const wse::Schedule s = collectives::make_reduce_1d(algo, p, b, &model());
  testing::verify_ok(s);
}

TEST_P(Reduce1D, SimulatorTracksModel) {
  const auto [algo, p, b] = GetParam();
  const wse::Schedule s = collectives::make_reduce_1d(algo, p, b, &model());
  const auto r = runtime::verify_on_fabric(s);
  ASSERT_TRUE(r.ok) << r.error;
  const runtime::Planner planner(128, kMp);
  const i64 predicted =
      planner.predict({runtime::Collective::Reduce, {p, 1}, b, name(algo)})
          .cycles;
  // The paper reports 12-35% mean model error against hardware; our simulator
  // idealizes the same way the model does, so we hold it to 20% + a small
  // constant for ramp/boundary conventions.
  testing::expect_close(r.cycles, predicted, 0.20, 32, "reduce cycles");
}

TEST_P(Reduce1D, MeasuredEnergyMatchesModelTerms) {
  const auto [algo, p, b] = GetParam();
  if (algo == ReduceAlgo::AutoGen) return;  // terms come from the DP tree
  const wse::Schedule s = collectives::make_reduce_1d(algo, p, b, &model());
  const auto r = runtime::verify_on_fabric(s);
  ASSERT_TRUE(r.ok);
  const Prediction pred = predict_reduce_1d(algo, p, b, kMp);
  // Tree energy for non-power-of-two P is a ceil-ed estimate; others exact.
  if (algo == ReduceAlgo::Tree) {
    testing::expect_close(r.wavelet_hops, pred.terms.energy, 0.25, 8, "energy");
  } else {
    EXPECT_EQ(r.wavelet_hops, pred.terms.energy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Reduce1D,
    ::testing::ValuesIn([] {
      std::vector<Case> cases;
      for (ReduceAlgo a : {ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree,
                           ReduceAlgo::TwoPhase, ReduceAlgo::AutoGen}) {
        for (u32 p : {2u, 3u, 4u, 7u, 16u, 33u, 64u}) {
          for (u32 b : {1u, 2u, 13u, 64u, 256u}) {
            cases.push_back({a, p, b});
          }
        }
      }
      return cases;
    }()),
    case_name);

// --- regime-specific tighter checks ----------------------------------------

TEST(Reduce1DTiming, ChainApproachesContentionBound) {
  // B >> T_R * P: chain runtime ~ B (Lemma 5.2 discussion).
  const wse::Schedule s = collectives::make_reduce_1d(ReduceAlgo::Chain, 8, 4096);
  const auto r = testing::verify_ok(s);
  testing::expect_close(r.cycles, predict_chain_reduce(8, 4096, kMp).cycles,
                        0.03, 8, "chain large-B");
}

TEST(Reduce1DTiming, StarScalarIsPerfectPipeline) {
  // Section 5.1: B = 1 star forms a pipeline, runtime ~ P - 1, not 3P/2.
  const wse::Schedule s = collectives::make_reduce_1d(ReduceAlgo::Star, 64, 1);
  const auto r = testing::verify_ok(s);
  testing::expect_close(r.cycles, 63 + 5, 0.05, 6, "star scalar");
}

TEST(Reduce1DTiming, TreeBeatsChainForScalars) {
  const auto chain =
      testing::verify_ok(collectives::make_reduce_1d(ReduceAlgo::Chain, 64, 1));
  const auto tree =
      testing::verify_ok(collectives::make_reduce_1d(ReduceAlgo::Tree, 64, 1));
  EXPECT_LT(tree.cycles, chain.cycles / 2);
}

TEST(Reduce1DTiming, ChainBeatsTreeForHugeVectors) {
  const auto chain = testing::verify_ok(
      collectives::make_reduce_1d(ReduceAlgo::Chain, 16, 4096));
  const auto tree = testing::verify_ok(
      collectives::make_reduce_1d(ReduceAlgo::Tree, 16, 4096));
  EXPECT_LT(chain.cycles, tree.cycles);
}

TEST(Reduce1DTiming, TwoPhaseBetweenChainAndStarAtIntermediateSizes) {
  const u32 p = 64, b = 64;  // B ~ P: two-phase's sweet spot
  const auto two = testing::verify_ok(
      collectives::make_reduce_1d(ReduceAlgo::TwoPhase, p, b));
  const auto chain =
      testing::verify_ok(collectives::make_reduce_1d(ReduceAlgo::Chain, p, b));
  const auto star =
      testing::verify_ok(collectives::make_reduce_1d(ReduceAlgo::Star, p, b));
  EXPECT_LT(two.cycles, chain.cycles);
  EXPECT_LT(two.cycles, star.cycles);
}

TEST(Reduce1DTiming, AutoGenNeverLosesBadly) {
  // Auto-Gen must track the best fixed pattern within a modest margin on
  // the simulator too (paper: it matches or exceeds them).
  static autogen::AutoGenModel model(96, kMp);
  for (u32 p : {8u, 32u, 96u}) {
    for (u32 b : {1u, 32u, 512u}) {
      const auto ag = testing::verify_ok(
          collectives::make_reduce_1d(ReduceAlgo::AutoGen, p, b, &model));
      i64 best_fixed = INT64_MAX;
      for (ReduceAlgo a : kFixedReduceAlgos) {
        const auto r =
            testing::verify_ok(collectives::make_reduce_1d(a, p, b, &model));
        best_fixed = std::min(best_fixed, r.cycles);
      }
      EXPECT_LE(static_cast<double>(ag.cycles),
                1.15 * static_cast<double>(best_fixed) + 16)
          << "P=" << p << " B=" << b;
    }
  }
}

TEST(Reduce1DTiming, TwoPhaseGroupSizeDefaultNearOptimal) {
  // Sweep S and check the sqrt(P) default is within 15% of the best S.
  const u32 p = 64, b = 128;
  i64 best = INT64_MAX;
  for (u32 s_param : {2u, 4u, 8u, 16u, 32u}) {
    const auto r = testing::verify_ok(collectives::make_reduce_1d(
        ReduceAlgo::TwoPhase, p, b, nullptr, s_param));
    best = std::min(best, r.cycles);
  }
  const auto def = testing::verify_ok(
      collectives::make_reduce_1d(ReduceAlgo::TwoPhase, p, b));
  EXPECT_LE(static_cast<double>(def.cycles), 1.15 * static_cast<double>(best));
}

TEST(Reduce1DDeath, AutoGenNeedsTheCallersModel) {
  // Auto-Gen's tree depends on the machine, so the builder takes the
  // caller's DP model and never guesses one.
  EXPECT_DEATH(collectives::make_reduce_1d(ReduceAlgo::AutoGen, 16, 64),
               "needs the DP model");
}

}  // namespace
}  // namespace wsr
