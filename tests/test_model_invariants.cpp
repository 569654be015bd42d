// Systematic invariants of the performance model, swept over the full
// (pattern x P x B) grid: monotonicity, term consistency with Eq. (1),
// asymptotic behaviour, and the regime-crossover structure the paper's
// methodology relies on.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "autogen/dp.hpp"
#include "common/math.hpp"
#include "harness.hpp"
#include "model/costs1d.hpp"
#include "model/costs2d.hpp"

namespace wsr {
namespace {

const MachineParams kMp{};

const runtime::Planner& planner() {
  static const runtime::Planner p(512, kMp);
  return p;
}

/// The planner's candidate table without its Auto-Gen rows: the fixed
/// patterns the paper's regime maps compare. One planner per binary, so its
/// Auto-Gen rows fill one 512-PE DP table.
std::vector<runtime::Candidate> fixed_reduce(GridShape g, u32 b) {
  return bench::fixed_candidates(planner(), runtime::Collective::Reduce, g, b);
}

std::string best_fixed_reduce(u32 p, u32 b) {
  return runtime::best_candidate(fixed_reduce({p, 1}, b))->desc->name;
}

struct Sweep {
  ReduceAlgo algo;
  u32 p;
};

std::string sweep_name(const ::testing::TestParamInfo<Sweep>& info) {
  return std::string(name(info.param.algo)) + "_P" + std::to_string(info.param.p);
}

class ModelInvariants : public ::testing::TestWithParam<Sweep> {};

TEST_P(ModelInvariants, MonotoneInVectorLength) {
  const auto [algo, p] = GetParam();
  i64 prev = 0;
  for (u32 b = 1; b <= 1 << 15; b *= 2) {
    const i64 c = predict_reduce_1d(algo, p, b, kMp).cycles;
    EXPECT_GE(c, prev) << name(algo) << " P=" << p << " B=" << b;
    prev = c;
  }
}

TEST_P(ModelInvariants, MonotoneInPECount) {
  const auto [algo, p] = GetParam();
  (void)p;
  for (u32 b : {1u, 64u, 4096u}) {
    i64 prev = 0;
    for (u32 q = 2; q <= 512; q *= 2) {
      const i64 c = predict_reduce_1d(algo, q, b, kMp).cycles;
      EXPECT_GE(c, prev) << name(algo) << " P=" << q << " B=" << b;
      prev = c;
    }
  }
}

TEST_P(ModelInvariants, TermsSynthesizeViaEq1OrSharper) {
  // Every prediction's cycle count must be <= its own Eq. (1) synthesis
  // (equal for most patterns; strictly less only where the paper derives a
  // sharper bound, i.e. Star's pipeline case).
  const auto [algo, p] = GetParam();
  for (u32 b : {1u, 16u, 256u, 8192u}) {
    const Prediction pred = predict_reduce_1d(algo, p, b, kMp);
    EXPECT_LE(pred.cycles, estimate_cycles(pred.terms, kMp))
        << name(algo) << " P=" << p << " B=" << b;
    EXPECT_GT(pred.terms.energy, 0);
    EXPECT_GT(pred.terms.depth, 0);
    EXPECT_GE(pred.terms.contention, i64{b});  // the root receives >= B
    EXPECT_EQ(pred.terms.links, i64{p} - 1);
  }
}

TEST_P(ModelInvariants, EnergyIsAtLeastOneHopPerPE) {
  // Every non-root PE's vector must cross at least one link.
  const auto [algo, p] = GetParam();
  for (u32 b : {1u, 256u}) {
    EXPECT_GE(predict_reduce_1d(algo, p, b, kMp).terms.energy,
              i64{b} * (p - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelInvariants,
    ::testing::ValuesIn([] {
      std::vector<Sweep> sweeps;
      for (ReduceAlgo a : kFixedReduceAlgos) {
        for (u32 p : {2u, 3u, 16u, 100u, 512u}) sweeps.push_back({a, p});
      }
      return sweeps;
    }()),
    sweep_name);

TEST(ModelAsymptotics, ChainApproachesB) {
  // Lemma 5.2 discussion: for B >> T_R * P the chain approaches B cycles.
  const double r = static_cast<double>(
                       predict_chain_reduce(16, 1 << 20, kMp).cycles) /
                   static_cast<double>(1 << 20);
  EXPECT_LT(r, 1.001);
}

TEST(ModelAsymptotics, StarApproachesDistanceForScalars) {
  EXPECT_EQ(predict_star_reduce(512, 1, kMp).cycles, 511 + 5);
}

TEST(ModelAsymptotics, BroadcastIndependentOfPForLargeB) {
  const i64 small = predict_broadcast_1d(4, 1 << 16, kMp).cycles;
  const i64 large = predict_broadcast_1d(512, 1 << 16, kMp).cycles;
  EXPECT_LT(static_cast<double>(large - small), 0.01 * small);
}

TEST(ModelCrossovers, EachFixedPatternWinsSomewhere) {
  // The motivation for Auto-Gen: no fixed pattern dominates. Each of the
  // four fixed patterns must be the unique best for some (P, B).
  std::set<std::string> winners;
  for (u32 p = 4; p <= 512; p *= 2) {
    for (u32 b = 1; b <= 1 << 15; b *= 2) {
      winners.insert(best_fixed_reduce(p, b));
    }
  }
  for (ReduceAlgo a : kFixedReduceAlgos) {
    EXPECT_EQ(winners.count(name(a)), 1u) << name(a) << " never wins";
  }
}

TEST(ModelCrossovers, ReduceWinnerOrderIsStarTreeTwoPhaseChain) {
  // Fixing P = 512, the winner as B grows must pass through the regimes in
  // the paper's order (some regimes may be skipped, never reordered).
  const char* order[] = {"Star", "Tree", "TwoPhase", "Chain"};
  int stage = 0;
  for (u32 b = 1; b <= 1 << 17; b *= 2) {
    const std::string w = best_fixed_reduce(512, b);
    while (stage < 4 && w != order[stage]) ++stage;
    ASSERT_LT(stage, 4) << "winner " << w << " out of order at B=" << b;
  }
  EXPECT_EQ(std::string(order[stage]), "Chain");  // ends bandwidth-bound
}

/// The registry's same-pattern "X-Y <algo>" Reduce priced by the planner.
Prediction xy_reduce(ReduceAlgo a, GridShape g, u32 b) {
  return planner().predict(
      {runtime::Collective::Reduce, g, b, std::string("X-Y ") + name(a)});
}

TEST(ModelInvariants2D, XYSymmetricOnSquareGrids) {
  for (ReduceAlgo a : kFixedReduceAlgos) {
    const GridShape g{64, 64};
    const Prediction xy = xy_reduce(a, g, 128);
    EXPECT_EQ(xy.cycles, 2 * predict_reduce_1d(a, 64, 128, kMp).cycles);
  }
}

TEST(ModelInvariants2D, TransposedGridsCostTheSame) {
  for (ReduceAlgo a : kFixedReduceAlgos) {
    EXPECT_EQ(xy_reduce(a, {128, 8}, 64).cycles,
              xy_reduce(a, {8, 128}, 64).cycles);
  }
}

TEST(ModelInvariants2D, LowerBoundBelowEvery2DAlgorithm) {
  for (GridShape g : {GridShape{8, 8}, GridShape{64, 64}, GridShape{512, 512}}) {
    for (u32 b : {1u, 256u, 8192u}) {
      const i64 lb = lower_bound_2d_reduce_cycles(g, b, kMp);
      for (const runtime::Candidate& row : fixed_reduce(g, b)) {
        EXPECT_LE(lb, row.prediction.cycles)
            << row.desc->name << " " << g.width << "x" << g.height
            << " B=" << b;
      }
    }
  }
}

TEST(ModelInvariants2D, BroadcastScalesWithPerimeterNotArea) {
  // Lemma 7.1: doubling both grid dimensions adds ~2N hops, not 3N^2.
  const i64 small = predict_broadcast_2d({64, 64}, 16, kMp).cycles;
  const i64 large = predict_broadcast_2d({128, 128}, 16, kMp).cycles;
  EXPECT_EQ(large - small, 128);
}

TEST(AutoGenInvariants, PredictionMonotoneInBudgetedResources) {
  static autogen::AutoGenModel model(64, kMp);
  for (u32 p : {8u, 33u, 64u}) {
    i64 prev = 0;
    for (u32 b = 1; b <= 8192; b *= 2) {
      const i64 c = model.predict(p, b).cycles;
      EXPECT_GE(c, prev) << "p=" << p << " B=" << b;
      prev = c;
    }
  }
}

TEST(AutoGenInvariants, ScalesLikeTheBestRegime) {
  // At the extremes the Auto-Gen cost must approach the best fixed pattern.
  static autogen::AutoGenModel model(512, kMp);
  const double at_scalar = static_cast<double>(model.predict(512, 1).cycles);
  EXPECT_LE(at_scalar,
            static_cast<double>(predict_star_reduce_eq1(512, 1, kMp).cycles));
  const double at_huge = static_cast<double>(model.predict(512, 8192).cycles);
  EXPECT_LE(at_huge, 1.001 * static_cast<double>(
                                 predict_chain_reduce(512, 8192, kMp).cycles));
}

}  // namespace
}  // namespace wsr
