// Tests of the 2D model predictions (paper Section 7).
#include "model/costs2d.hpp"

#include <gtest/gtest.h>

#include <string>

#include "harness.hpp"

namespace wsr {
namespace {

const MachineParams kMp{};

const runtime::Planner& planner() {
  static const runtime::Planner p(512, kMp);
  return p;
}

/// The fixed algorithm the model predicts fastest: best_candidate over the
/// planner's candidate table without its Auto-Gen rows, as in the paper's
/// Figure 10. One planner per binary, so its Auto-Gen rows fill one 512-PE
/// DP table.
std::string best_fixed(runtime::Collective c, GridShape g, u32 b) {
  const auto rows = bench::fixed_candidates(planner(), c, g, b);
  return runtime::best_candidate(rows)->desc->name;
}

TEST(Model2D, BroadcastMatchesLemma71) {
  // T = B + M + N - 2 + 2*T_R + 1.
  for (u32 m : {4u, 16u, 512u}) {
    for (u32 b : {1u, 256u, 8192u}) {
      const GridShape g{m, m};
      EXPECT_EQ(predict_broadcast_2d(g, b, kMp).cycles, i64{b} + 2 * m - 2 + 5)
          << "M=" << m << " B=" << b;
    }
  }
  // Rectangular grid.
  EXPECT_EQ(predict_broadcast_2d({8, 4}, 100, kMp).cycles, 100 + 8 + 4 - 2 + 5);
}

TEST(Model2D, Broadcast2DBeatsRowBroadcastOnSamePEs) {
  // Section 7.1: sqrt(P) x sqrt(P) broadcast beats a P-length row broadcast.
  const i64 row = predict_broadcast_1d(4096, 256, kMp).cycles;
  const i64 grid = predict_broadcast_2d({64, 64}, 256, kMp).cycles;
  EXPECT_LT(grid, row);
}

TEST(Model2D, XYReduceIsSumOfAxes) {
  const GridShape g{32, 16};
  for (ReduceAlgo a : kFixedReduceAlgos) {
    const i64 x = predict_reduce_1d(a, 32, 64, kMp).cycles;
    const i64 y = predict_reduce_1d(a, 16, 64, kMp).cycles;
    const std::string xy = std::string("X-Y ") + name(a);
    EXPECT_EQ(planner().predict({runtime::Collective::Reduce, g, 64, xy}).cycles,
              x + y);
  }
}

TEST(Model2D, SnakeEqualsChainOnAllPEs) {
  const GridShape g{16, 16};
  EXPECT_EQ(predict_snake_reduce(g, 128, kMp).cycles,
            predict_chain_reduce(256, 128, kMp).cycles);
}

TEST(Model2D, LowerBoundLemma72) {
  const GridShape g{512, 512};
  // max(B, B/8 + M + N - 1) + 2*T_R + 1.
  EXPECT_EQ(lower_bound_2d_reduce_cycles(g, 8, kMp), 8 / 8 + 1023 + 5);
  // For large B the contention term B dominates the max.
  EXPECT_EQ(lower_bound_2d_reduce_cycles(g, 16384, kMp), 16384 + 5);
  // Mid-range B: the bandwidth + distance term dominates.
  EXPECT_EQ(lower_bound_2d_reduce_cycles(g, 1024, kMp),
            1024 / 8 + 1023 + 5);
}

TEST(Model2D, SnakeOptimalForHugeVectors) {
  // Section 7.5: for B >> P the snake approaches the contention bound B.
  const GridShape g{8, 8};
  const u32 b = 1u << 20;
  const double ratio =
      static_cast<double>(predict_snake_reduce(g, b, kMp).cycles) /
      lower_bound_2d_reduce_cycles(g, b, kMp);
  EXPECT_LT(ratio, 1.01);
}

TEST(Model2D, RegimesMatchFig10) {
  const GridShape g{512, 512};
  const runtime::Collective c = runtime::Collective::AllReduce;
  // scalars: X-Y star wins.
  EXPECT_EQ(best_fixed(c, g, 1), "X-Y Star");
  // intermediate: X-Y Two-Phase.
  EXPECT_EQ(best_fixed(c, g, 1024), "X-Y TwoPhase");
  // small grid + huge vector: the snake's bandwidth-bound region.
  EXPECT_EQ(best_fixed(c, {8, 8}, 1u << 15), "Snake+Bcast");
}

TEST(Model2D, Reduce2DCandidatesCoverFiveAlgorithms) {
  // Registry-enumerated candidates arrive sorted by registration name.
  const auto c = bench::fixed_candidates(
      planner(), runtime::Collective::Reduce, {16, 16}, 64);
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c[0].desc->name, "Snake");
  EXPECT_EQ(c[1].desc->name, "X-Y Chain");
  EXPECT_EQ(c[2].desc->name, "X-Y Star");
  EXPECT_EQ(c[3].desc->name, "X-Y Tree");
  EXPECT_EQ(c[4].desc->name, "X-Y TwoPhase");
}

TEST(Model2D, XYRingIsSumOfAxisRings) {
  const GridShape g{16, 16};
  EXPECT_EQ(predict_xy_ring_allreduce(g, 256, kMp).cycles,
            2 * predict_ring_allreduce(16, 256, kMp).cycles);
}

TEST(Model2D, ReduceThenBroadcastComposition) {
  // Section 7.4's second variant: the Snake+Bcast descriptor's cost is the
  // Snake Reduce followed by the 2D broadcast.
  const GridShape g{32, 32};
  const i64 snake = predict_snake_reduce(g, 4096, kMp).cycles;
  const i64 bcast = predict_broadcast_2d(g, 4096, kMp).cycles;
  EXPECT_EQ(planner()
                .predict({runtime::Collective::AllReduce, g, 4096,
                          "Snake+Bcast"})
                .cycles,
            snake + bcast);
}

}  // namespace
}  // namespace wsr
