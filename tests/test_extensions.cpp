// Tests of the library extensions beyond the paper's core: mixed-axis X-Y
// planning and schedule export / timeline tooling.
#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "harness.hpp"
#include "runtime/planner.hpp"
#include "sim_test_utils.hpp"
#include "wse/export.hpp"

namespace wsr {
namespace {

TEST(MixedXY, ExecutesCorrectly) {
  static autogen::AutoGenModel model(32, MachineParams{});
  for (ReduceAlgo ax : {ReduceAlgo::Chain, ReduceAlgo::Star}) {
    for (ReduceAlgo ay : {ReduceAlgo::Tree, ReduceAlgo::TwoPhase,
                          ReduceAlgo::AutoGen}) {
      const wse::Schedule s = collectives::make_reduce_2d_xy_mixed(
          ax, ay, {8, 16}, 32, &model);
      testing::verify_ok(s);
    }
  }
}

TEST(MixedXY, PlannerNeverWorseThanSameAxisChoice) {
  const runtime::Planner planner(512);
  for (GridShape g : {GridShape{512, 8}, GridShape{8, 512}, GridShape{64, 64},
                      GridShape{256, 16}}) {
    for (u32 b : {1u, 64u, 1024u}) {
      const runtime::Plan mixed = bench::plan_mixed_xy(planner, g, b);
      const runtime::Plan same =
          planner.plan({runtime::Collective::Reduce, g, b, ""});
      EXPECT_LE(mixed.prediction.cycles, same.prediction.cycles)
          << g.width << "x" << g.height << " B=" << b;
    }
  }
}

TEST(MixedXY, MixingWinsOnStronglyRectangularGrids) {
  // A 512-wide, 8-tall grid at B ~ 512: the row axis wants Two-Phase, the
  // column axis (8 PEs) wants a shallow pattern. Mixing must strictly beat
  // at least one same-axis assignment, and the planner's mixed choice should
  // use different patterns per axis.
  const runtime::Planner planner(512);
  const runtime::Plan mixed = bench::plan_mixed_xy(planner, {512, 8}, 512);
  EXPECT_NE(mixed.algorithm.find('/'), std::string::npos) << mixed.algorithm;
  testing::verify_ok(mixed.schedule);
}

TEST(Export, JsonRoundtrip) {
  const wse::Schedule s = collectives::make_reduce_1d(ReduceAlgo::Chain, 4, 8);
  const std::string json = wse::to_json(s);
  // Structural spot checks (no JSON library offline; downstream tooling
  // consumes this with one).
  EXPECT_NE(json.find("\"name\":\"reduce-1d-Chain\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"recv_reduce_send\""), std::string::npos);
  EXPECT_NE(json.find("\"accept\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"grid\":{\"width\":4,\"height\":1}"), std::string::npos);
  // Balanced braces.
  i64 depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Export, TimelineShowsCompletionOrder) {
  const wse::Schedule s = collectives::make_reduce_1d(ReduceAlgo::Tree, 8, 16);
  const auto inputs = wse::make_inputs(s, runtime::canonical_input);
  const wse::FabricResult res = wse::run_fabric(s, inputs);
  const std::string tl = wse::format_timeline(s, res);
  EXPECT_NE(tl.find("timeline 'reduce-1d-Tree'"), std::string::npos);
  EXPECT_NE(tl.find("PE(0,0):"), std::string::npos);
  EXPECT_NE(tl.find("recv#"), std::string::npos);
  // The root's last receive defines the total runtime.
  EXPECT_NE(tl.find("@" + std::to_string(res.cycles - 1)), std::string::npos);
}

TEST(Export, JsonForEveryPatternIsWellFormed) {
  static autogen::AutoGenModel model(16, MachineParams{});
  const wse::Schedule schedules[] = {
      collectives::make_broadcast_1d(8, 4),
      collectives::make_reduce_1d(ReduceAlgo::Star, 8, 4),
      collectives::make_reduce_1d(ReduceAlgo::AutoGen, 16, 64, &model),
      collectives::make_ring_allreduce_1d(8, 16, collectives::RingMapping::Simple),
      collectives::make_allreduce_2d_xy(ReduceAlgo::TwoPhase, {4, 4}, 8),
  };
  for (const auto& s : schedules) {
    const std::string json = wse::to_json(s);
    i64 depth = 0;
    for (char ch : json) {
      if (ch == '{') ++depth;
      if (ch == '}') --depth;
    }
    EXPECT_EQ(depth, 0) << s.name;
    EXPECT_NE(json.find("\"pes\":["), std::string::npos) << s.name;
  }
}

}  // namespace
}  // namespace wsr
