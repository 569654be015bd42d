// FlowSim cross-validation: the flow-level simulator must agree with the
// cycle-level FabricSim on completion time across every pattern, so that its
// wafer-scale (512x512) numbers can be trusted. The FlowSimDeath cases pin
// every schedule error FlowSim aborts on; exact cycle counts are pinned by
// test_flowsim_golden.
#include "flowsim/flowsim.hpp"

#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "collectives/midroot.hpp"
#include "model/costs2d.hpp"
#include "sim_test_utils.hpp"

namespace wsr {
namespace {

const MachineParams kMp{};

/// Tolerance between the two simulators: a handful of cycles of boundary
/// convention plus 2%. Anything beyond that is a modelling bug.
void expect_sims_agree(const wse::Schedule& s) {
  // Numerical correctness is covered elsewhere; this compares timing only.
  const auto inputs = wse::make_inputs(s, runtime::canonical_input);
  const auto fabric = wse::run_fabric(s, inputs);
  const auto flow = flowsim::run_flow(s);
  testing::expect_close(flow.cycles, fabric.cycles, 0.02, 8,
                        "flow vs fabric: " + s.name);
}

TEST(FlowSim, AgreesOnBroadcast) {
  for (u32 p : {2u, 16u, 128u}) {
    for (u32 b : {1u, 64u, 1024u}) {
      expect_sims_agree(collectives::make_broadcast_1d(p, b));
    }
  }
}

struct Case {
  ReduceAlgo algo;
  u32 p, b;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(name(info.param.algo)) + "_P" +
         std::to_string(info.param.p) + "_B" + std::to_string(info.param.b);
}

class FlowVsFabricReduce : public ::testing::TestWithParam<Case> {};

TEST_P(FlowVsFabricReduce, Reduce) {
  const auto [algo, p, b] = GetParam();
  static autogen::AutoGenModel model(96, kMp);
  expect_sims_agree(collectives::make_reduce_1d(algo, p, b, &model));
}

TEST_P(FlowVsFabricReduce, AllReduce) {
  const auto [algo, p, b] = GetParam();
  static autogen::AutoGenModel model(96, kMp);
  expect_sims_agree(collectives::make_allreduce_1d(algo, p, b, &model));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlowVsFabricReduce,
    ::testing::ValuesIn([] {
      std::vector<Case> cases;
      for (ReduceAlgo a : {ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree,
                           ReduceAlgo::TwoPhase, ReduceAlgo::AutoGen}) {
        for (u32 p : {2u, 5u, 16u, 48u, 96u}) {
          for (u32 b : {1u, 16u, 256u}) {
            cases.push_back({a, p, b});
          }
        }
      }
      return cases;
    }()),
    case_name);

TEST(FlowSim, AgreesOnRing) {
  for (auto m : {collectives::RingMapping::Simple,
                 collectives::RingMapping::DistancePreserving}) {
    for (u32 p : {4u, 8u, 16u}) {
      for (u32 mult : {1u, 8u}) {
        expect_sims_agree(collectives::make_ring_allreduce_1d(p, p * mult, m));
      }
    }
  }
}

TEST(FlowSim, AgreesOn2D) {
  static autogen::AutoGenModel model(16, kMp);
  for (GridShape g : {GridShape{4, 4}, GridShape{8, 5}, GridShape{16, 16}}) {
    for (u32 b : {1u, 64u}) {
      expect_sims_agree(collectives::make_broadcast_2d(g, b));
      expect_sims_agree(collectives::make_reduce_2d_snake(g, b));
      expect_sims_agree(collectives::make_allreduce_2d_snake_bcast(g, b));
      for (ReduceAlgo a :
           {ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree,
            ReduceAlgo::TwoPhase, ReduceAlgo::AutoGen}) {
        expect_sims_agree(collectives::make_reduce_2d_xy(a, g, b, &model));
        expect_sims_agree(collectives::make_allreduce_2d_xy(a, g, b, &model));
      }
    }
  }
}

TEST(FlowSim, AgreesOnXYRing2D) {
  for (GridShape g : {GridShape{4, 4}, GridShape{8, 8}}) {
    const u32 b = g.width * g.height;
    expect_sims_agree(collectives::make_allreduce_2d_xy_ring(g, b));
  }
}

TEST(FlowSim, AgreesOnMidRoot) {
  for (u32 p : {4u, 16u, 33u, 64u}) {
    for (u32 b : {1u, 64u, 512u}) {
      expect_sims_agree(collectives::make_allreduce_1d_midroot(p, b));
    }
  }
}

TEST(FlowSim, AllReduceCompositionMatchesFullGrid) {
  // fig13b composes X-Y AllReduce from one row + one column; validate the
  // identity like the reduce variant above.
  static autogen::AutoGenModel model(16, kMp);
  for (ReduceAlgo a : {ReduceAlgo::Chain, ReduceAlgo::TwoPhase}) {
    const GridShape g{16, 9};
    const u32 b = 64;
    const i64 full =
        flowsim::run_flow(collectives::make_allreduce_2d_xy(a, g, b, &model))
            .cycles;
    const i64 row =
        flowsim::run_flow(collectives::make_allreduce_1d(a, g.width, b, &model))
            .cycles;
    const i64 col = flowsim::run_flow(
                        collectives::make_allreduce_1d(a, g.height, b, &model))
                        .cycles;
    testing::expect_close(full, row + col, 0.02, 16,
                          std::string("allreduce composition ") + name(a));
  }
}

TEST(FlowSim, XYCompositionMatchesFullGrid) {
  // The bench harness composes X-Y timings from one row and one column at
  // 512x512; verify the identity T_xy = T_row + T_col (+/- epsilon) here.
  static autogen::AutoGenModel model(16, kMp);
  for (ReduceAlgo a : {ReduceAlgo::Chain, ReduceAlgo::TwoPhase, ReduceAlgo::Star,
                       ReduceAlgo::AutoGen}) {
    for (GridShape g : {GridShape{8, 8}, GridShape{16, 9}}) {
      const u32 b = 64;
      const i64 full =
          flowsim::run_flow(collectives::make_reduce_2d_xy(a, g, b, &model))
              .cycles;
      const i64 row =
          flowsim::run_flow(collectives::make_reduce_1d(a, g.width, b, &model))
              .cycles;
      const i64 col =
          flowsim::run_flow(collectives::make_reduce_1d(a, g.height, b, &model))
              .cycles;
      testing::expect_close(full, row + col, 0.02, 12,
                            std::string("composition ") + name(a));
    }
  }
}

// --- abort paths ---------------------------------------------------------------
// Every schedule error FlowSim can detect aborts with a diagnostic. Each case
// is a hand-built 2-PE row: PE 0 streams color 0 east, PE 1 receives it.

constexpr wse::Color kC = 0;

wse::RouteRule rule(Dir accept, DirMask forward, u32 count) {
  return {kC, accept, forward, count};
}

/// A well-formed 2-PE transfer of `len` wavelets (the baseline each death
/// case breaks in exactly one place).
wse::Schedule two_pe_transfer(u32 len) {
  wse::Schedule s({2, 1}, len, "two-pe");
  s.program(0).add(wse::Op::send(kC, len));
  s.add_rule(0, rule(Dir::Ramp, dir_mask(Dir::East), len));
  s.program(1).add(wse::Op::recv(kC, len, wse::RecvMode::Store));
  s.add_rule(1, rule(Dir::West, dir_mask(Dir::Ramp), len));
  return s;
}

TEST(FlowSimDeath, BaselineTransferCompletes) {
  EXPECT_GT(flowsim::run_flow(two_pe_transfer(4)).cycles, 4);
}

TEST(FlowSimDeath, StrayTrafficToAPeWithoutRulesForTheColor) {
  wse::Schedule s({2, 1}, 4, "stray-no-rules");
  s.program(0).add(wse::Op::send(kC, 4));
  s.add_rule(0, rule(Dir::Ramp, dir_mask(Dir::East), 4));
  EXPECT_DEATH(flowsim::run_flow(s), "has no rules for it.*stray traffic");
}

TEST(FlowSimDeath, StrayTrafficFromADirectionNoRuleAccepts) {
  wse::Schedule s = two_pe_transfer(4);
  s.rules[1] = {rule(Dir::East, dir_mask(Dir::Ramp), 4)};
  EXPECT_DEATH(flowsim::run_flow(s),
               "from W, but no rule accepts from there.*stray traffic");
}

TEST(FlowSimDeath, SegmentCrossingARuleBoundary) {
  wse::Schedule s = two_pe_transfer(4);
  s.rules[0] = {rule(Dir::Ramp, dir_mask(Dir::East), 2),
                rule(Dir::Ramp, dir_mask(Dir::East), 2)};
  EXPECT_DEATH(flowsim::run_flow(s), "segment crosses a routing-rule boundary");
}

TEST(FlowSimDeath, TrafficAfterTheLastRuleRetired) {
  wse::Schedule s = two_pe_transfer(4);
  s.program(0).add(wse::Op::send(kC, 4).after(0));
  EXPECT_DEATH(flowsim::run_flow(s),
               "traffic after the last routing rule retired");
}

TEST(FlowSimDeath, TrafficAcrossAFailedLink) {
  flowsim::FlowOptions opt;
  opt.link_overrides = {LinkOverride{0, 0, Dir::East, 0}};
  EXPECT_DEATH(flowsim::run_flow(two_pe_transfer(4), opt),
               "traffic routed across a failed link");
}

TEST(FlowSimDeath, DependencyOnAMissingOp) {
  wse::Schedule s = two_pe_transfer(4);
  s.program(1).ops[0].after(3);
  EXPECT_DEATH(flowsim::run_flow(s), "dependency on a missing op");
}

TEST(FlowSimDeath, NeverCompletedOpIsADeadlock) {
  wse::Schedule s = two_pe_transfer(4);
  s.program(1).ops[0].len = 6;
  EXPECT_DEATH(flowsim::run_flow(s),
               "op 0 at PE 1 never completed \\(consumed 4/6\\).*"
               "flow-level deadlock");
}

TEST(FlowSim, ScalesToWaferScale) {
  // A smoke test that the flow-level simulator really handles wafer-scale
  // inputs: snake reduce over 512x512 = 262,144 PEs.
  const GridShape g{512, 512};
  const auto flow = flowsim::run_flow(collectives::make_reduce_2d_snake(g, 64));
  // T_chain = B + (2T_R+2)(P-1) ~ 1.57M cycles.
  const i64 model = predict_snake_reduce(g, 64, kMp).cycles;
  testing::expect_close(flow.cycles, model, 0.02, 64, "wafer-scale snake");
}

}  // namespace
}  // namespace wsr
