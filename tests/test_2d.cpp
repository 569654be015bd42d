// Correctness + timing for the 2D collectives (paper Section 7).
#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "model/costs2d.hpp"
#include "runtime/planner.hpp"
#include "sim_test_utils.hpp"

namespace wsr {
namespace {

const MachineParams kMp{};

TEST(Broadcast2D, DeliversEverywhereAndMatchesLemma71) {
  for (GridShape g : {GridShape{4, 4}, GridShape{8, 3}, GridShape{3, 8},
                      GridShape{16, 16}}) {
    for (u32 b : {1u, 64u, 512u}) {
      const wse::Schedule s = collectives::make_broadcast_2d(g, b);
      const auto r = testing::verify_ok(s, /*is_broadcast=*/true);
      testing::expect_close(r.cycles, predict_broadcast_2d(g, b, kMp).cycles,
                            0.0, 4, "bcast2d cycles");
      EXPECT_EQ(r.wavelet_hops, i64{b} * (g.num_pes() - 1));
    }
  }
}

struct XYCase {
  ReduceAlgo algo;
  u32 w, h, b;
};

std::string xy_name(const ::testing::TestParamInfo<XYCase>& info) {
  return std::string(name(info.param.algo)) + "_" + std::to_string(info.param.w) +
         "x" + std::to_string(info.param.h) + "_B" + std::to_string(info.param.b);
}

class XYReduce : public ::testing::TestWithParam<XYCase> {
 protected:
  static const autogen::AutoGenModel& model() {
    static autogen::AutoGenModel m(16, kMp);
    return m;
  }
};

TEST_P(XYReduce, RootGetsTheExactSum) {
  const auto [algo, w, h, b] = GetParam();
  const wse::Schedule s =
      collectives::make_reduce_2d_xy(algo, {w, h}, b, &model());
  testing::verify_ok(s);
}

TEST_P(XYReduce, SimulatorTracksModel) {
  const auto [algo, w, h, b] = GetParam();
  const wse::Schedule s =
      collectives::make_reduce_2d_xy(algo, {w, h}, b, &model());
  const auto r = runtime::verify_on_fabric(s);
  ASSERT_TRUE(r.ok) << r.error;
  const runtime::Planner planner(16, kMp);
  testing::expect_close(r.cycles,
                        planner
                            .predict({runtime::Collective::Reduce,
                                      {w, h},
                                      b,
                                      std::string("X-Y ") + name(algo)})
                            .cycles,
                        0.25, 48, "xy reduce cycles");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, XYReduce,
    ::testing::ValuesIn([] {
      std::vector<XYCase> cases;
      for (ReduceAlgo a : {ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree,
                           ReduceAlgo::TwoPhase, ReduceAlgo::AutoGen}) {
        for (auto [w, h] : std::vector<std::pair<u32, u32>>{
                 {2, 2}, {4, 4}, {8, 3}, {5, 7}, {16, 16}}) {
          for (u32 b : {1u, 16u, 128u}) {
            cases.push_back({a, w, h, b});
          }
        }
      }
      return cases;
    }()),
    xy_name);

TEST(SnakeReduce, RootGetsTheExactSum) {
  for (GridShape g : {GridShape{2, 2}, GridShape{4, 3}, GridShape{8, 8}}) {
    for (u32 b : {1u, 32u, 256u}) {
      testing::verify_ok(collectives::make_reduce_2d_snake(g, b));
    }
  }
}

TEST(SnakeReduce, TracksChainModel) {
  const GridShape g{8, 8};
  const u32 b = 512;
  const auto r = testing::verify_ok(collectives::make_reduce_2d_snake(g, b));
  testing::expect_close(r.cycles, predict_snake_reduce(g, b, kMp).cycles, 0.05,
                        16, "snake cycles");
}

TEST(AllReduce2D, XYVariantsDeliverEverywhere) {
  static autogen::AutoGenModel model(8, kMp);
  for (ReduceAlgo a : {ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree,
                       ReduceAlgo::TwoPhase, ReduceAlgo::AutoGen}) {
    for (GridShape g : {GridShape{4, 4}, GridShape{8, 5}}) {
      for (u32 b : {1u, 64u}) {
        const wse::Schedule s =
            collectives::make_allreduce_2d_xy(a, g, b, &model);
        testing::verify_ok(s);
      }
    }
  }
}

TEST(AllReduce2D, XYTimingTracksModel) {
  const GridShape g{8, 8};
  const u32 b = 128;
  const runtime::Planner planner(8, kMp);
  for (ReduceAlgo a : {ReduceAlgo::Chain, ReduceAlgo::TwoPhase}) {
    const auto r =
        testing::verify_ok(collectives::make_allreduce_2d_xy(a, g, b));
    testing::expect_close(
        r.cycles,
        planner
            .predict({runtime::Collective::AllReduce, g, b,
                      std::string("X-Y ") + name(a)})
            .cycles,
        0.25, 64, "xy allreduce cycles");
  }
}

TEST(AllReduce2D, SnakeBcastDeliversEverywhere) {
  for (GridShape g : {GridShape{2, 2}, GridShape{4, 6}, GridShape{8, 8}}) {
    for (u32 b : {1u, 128u}) {
      testing::verify_ok(collectives::make_allreduce_2d_snake_bcast(g, b));
    }
  }
}

TEST(AllReduce2D, XYRingDeliversEverywhere) {
  for (GridShape g : {GridShape{4, 4}, GridShape{8, 8}}) {
    const u32 b = g.width * g.height;  // divisible by both axes
    testing::verify_ok(collectives::make_allreduce_2d_xy_ring(g, b));
  }
}

TEST(Reduce2D, SnakeBeatsXYForSmallGridHugeVectors) {
  // Fig. 13c: bandwidth-bound regime.
  const GridShape g{4, 4};
  const u32 b = 4096;
  const auto snake = testing::verify_ok(collectives::make_reduce_2d_snake(g, b));
  const auto xy = testing::verify_ok(
      collectives::make_reduce_2d_xy(ReduceAlgo::Chain, g, b));
  EXPECT_LT(snake.cycles, xy.cycles);
}

TEST(Reduce2D, XYBeatsSnakeForLargeGrids) {
  const GridShape g{16, 16};
  const u32 b = 64;
  const auto snake = testing::verify_ok(collectives::make_reduce_2d_snake(g, b));
  const auto xy = testing::verify_ok(
      collectives::make_reduce_2d_xy(ReduceAlgo::TwoPhase, g, b));
  EXPECT_LT(xy.cycles, snake.cycles);
}

// --- shape-assumption audit -------------------------------------------------
// The X-Y compositions and their cost models require both axes >= 2 (a 1xH
// column has no row phase): that constraint must be a hard, loud rejection,
// not a silently wrong schedule. The builders that genuinely support any
// >= 2-PE footprint (Broadcast flood, Snake, the AllGather X-Y flood) must
// keep working on exactly those degenerate shapes.

TEST(Shape2DDeath, XYBuildersRejectDegenerateColumnsAndRows) {
  for (GridShape g : {GridShape{1, 4}, GridShape{4, 1}}) {
    EXPECT_DEATH(collectives::make_reduce_2d_xy(ReduceAlgo::Chain, g, 8),
                 "needs a 2D grid");
    EXPECT_DEATH(collectives::make_reduce_2d_xy_mixed(ReduceAlgo::Chain,
                                                      ReduceAlgo::Tree, g, 8),
                 "needs a 2D grid");
    EXPECT_DEATH(collectives::make_allreduce_2d_xy(ReduceAlgo::Chain, g, 8),
                 "needs a 2D grid");
    EXPECT_DEATH(collectives::make_allreduce_2d_xy_ring(g, 4),
                 "needs a 2D grid");
    // A Wx1 row is priced in the 1D family, which has no X-Y descriptor; a
    // 1xH column is 2D, where X-Y does not apply.
    EXPECT_DEATH(runtime::Planner(8, kMp).predict(
                     {runtime::Collective::Reduce, g, 8, "X-Y Chain"}),
                 "not applicable|unknown algorithm");
  }
}

TEST(Shape2DDeath, XYAutoGenNeedsTheCallersModel) {
  EXPECT_DEATH(collectives::make_reduce_2d_xy(ReduceAlgo::AutoGen, {4, 4}, 8),
               "needs the DP model");
}

TEST(Shape2D, NonXYBuildersAcceptDegenerateShapes) {
  for (GridShape g : {GridShape{1, 4}, GridShape{4, 1}, GridShape{1, 7}}) {
    testing::verify_ok(collectives::make_broadcast_2d(g, 8),
                       /*is_broadcast=*/true);
    testing::verify_ok(collectives::make_reduce_2d_snake(g, 8));
    testing::verify_ok(collectives::make_allgather_2d(g, 5),
                       runtime::Semantic::AllGather);
  }
}

TEST(Shape2D, RectangularGridsAreNotSquareSpecialCases) {
  // Transposed rectangles build and verify independently: a hidden
  // width==height (or power-of-two) assumption in the X-Y compositions
  // would corrupt one orientation of the pair.
  const u32 b = 30;  // divisible by 2, 3, 5 — both ring axes on every shape
  for (GridShape g : {GridShape{3, 2}, GridShape{2, 3}, GridShape{5, 3},
                      GridShape{3, 5}}) {
    testing::verify_ok(collectives::make_reduce_2d_xy(ReduceAlgo::Tree, g, b));
    testing::verify_ok(collectives::make_allreduce_2d_xy_ring(g, b));
    testing::verify_ok(collectives::make_allgather_2d(g, 4),
                       runtime::Semantic::AllGather);
  }
  // The X-Y AllGather model's bandwidth term is transpose-invariant by
  // construction — (W-1)B + (H-1)WB = (P-1)B, the total ingress volume —
  // so the cycle totals of a rectangle and its transpose must agree, while
  // the contention term must not (the column phase moves whole W*B row
  // blocks). Both assertions fail if either axis is silently squared away.
  const auto p32 = predict_allgather_xy({3, 2}, 4, kMp);
  const auto p23 = predict_allgather_xy({2, 3}, 4, kMp);
  EXPECT_EQ(p32.cycles, p23.cycles);
  EXPECT_NE(p32.terms.contention, p23.terms.contention);
  EXPECT_EQ(p32.terms.distance, p23.terms.distance);
  EXPECT_EQ(p32.terms.links, p23.terms.links);
}

}  // namespace
}  // namespace wsr
