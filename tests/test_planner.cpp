// Tests of the runtime planner: model-driven selection and plan execution.
#include "runtime/planner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "model/costs1d.hpp"
#include "sim_test_utils.hpp"

namespace wsr::runtime {
namespace {

class PlannerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { planner_ = new Planner(128); }
  static void TearDownTestSuite() {
    delete planner_;
    planner_ = nullptr;
  }
  static Planner* planner_;
};
Planner* PlannerFixture::planner_ = nullptr;

PlanRequest row(Collective c, u32 p, u32 b, std::string algorithm = "") {
  return {c, {p, 1}, b, std::move(algorithm)};
}

TEST_F(PlannerFixture, AutoSelectionNeverWorseThanAnyFixedAlgo) {
  for (u32 p : {4u, 16u, 64u, 128u}) {
    for (u32 b : {1u, 16u, 256u, 4096u}) {
      const Plan plan = planner_->plan(row(Collective::Reduce, p, b));
      for (ReduceAlgo a : kFixedReduceAlgos) {
        EXPECT_LE(plan.prediction.cycles,
                  planner_->predict(row(Collective::Reduce, p, b, name(a)))
                      .cycles)
            << "P=" << p << " B=" << b << " vs " << name(a);
      }
    }
  }
}

TEST_F(PlannerFixture, AutoPlansExecuteCorrectly) {
  for (u32 p : {4u, 16u, 64u}) {
    for (u32 b : {1u, 64u, 1024u}) {
      testing::verify_ok(planner_->plan(row(Collective::Reduce, p, b)).schedule);
      testing::verify_ok(
          planner_->plan(row(Collective::AllReduce, p, b)).schedule);
    }
  }
}

TEST_F(PlannerFixture, ExplicitAlgorithmIsHonored) {
  const Plan plan = planner_->plan(row(Collective::Reduce, 32, 64, "Star"));
  EXPECT_EQ(plan.algorithm, "Star");
  EXPECT_EQ(plan.schedule.name, "reduce-1d-Star");
}

TEST_F(PlannerFixture, SelectionFollowsTheRegimes) {
  // Scalars -> Star; huge vectors -> Chain (Fig. 1 / Section 5.7). For huge
  // B the Auto-Gen tree degenerates to the chain, so either label is valid.
  EXPECT_EQ(planner_->plan(row(Collective::Reduce, 128, 1)).algorithm, "Star");
  const std::string huge =
      planner_->plan(row(Collective::Reduce, 4, 1u << 15)).algorithm;
  EXPECT_TRUE(huge == "Chain" || huge == "AutoGen") << huge;
}

TEST_F(PlannerFixture, RingSelectedOnlyInItsBand) {
  // Fig. 8: ring wins for few PEs and very long vectors.
  const Plan big = planner_->plan(row(Collective::AllReduce, 4, 1u << 15));
  EXPECT_EQ(big.algorithm, "Ring");
  const Plan small = planner_->plan(row(Collective::AllReduce, 64, 64));
  EXPECT_NE(small.algorithm, "Ring");
}

TEST_F(PlannerFixture, LowerBoundIsBelowEveryModelCost) {
  // The bound holds within the cost model; the Star's sharper pipeline
  // refinement (used for runtime prediction) can dip a few cycles below it
  // at tiny B, exactly as in the paper's Fig. 1 construction.
  for (u32 p : {8u, 64u}) {
    for (u32 b : {1u, 256u}) {
      const double lb = planner_->reduce_1d_lower_bound(p, b);
      for (ReduceAlgo a :
           {ReduceAlgo::Chain, ReduceAlgo::Tree, ReduceAlgo::TwoPhase,
            ReduceAlgo::AutoGen}) {
        EXPECT_LE(lb, static_cast<double>(
                          planner_->predict(row(Collective::Reduce, p, b,
                                                name(a)))
                              .cycles))
            << name(a) << " p=" << p << " B=" << b;
      }
      EXPECT_LE(lb, static_cast<double>(
                        predict_star_reduce_eq1(p, b, planner_->machine())
                            .cycles));
    }
  }
}

TEST_F(PlannerFixture, Plans2D) {
  const GridShape g{16, 16};
  const Plan r = planner_->plan({Collective::Reduce, g, 64, ""});
  testing::verify_ok(r.schedule);
  const Plan a = planner_->plan({Collective::AllReduce, g, 64, ""});
  testing::verify_ok(a.schedule);
  const Plan b = planner_->plan({Collective::Broadcast, g, 64, ""});
  testing::verify_ok(b.schedule, /*is_broadcast=*/true);
}

TEST_F(PlannerFixture, SnakeSelectedForSmallGridHugeVector) {
  const Plan plan = planner_->plan({Collective::Reduce, {4, 4}, 1u << 14, ""});
  EXPECT_EQ(plan.algorithm, "Snake");
}

TEST_F(PlannerFixture, PredictionsConsistentWithPlans) {
  const PlanRequest req = row(Collective::AllReduce, 64, 256, "TwoPhase+Bcast");
  EXPECT_EQ(planner_->plan(req).prediction.cycles,
            planner_->predict(req).cycles);
}

// plan() selects from exactly the table candidates() returns: the planned
// prediction is the best row's, for every family, on pristine and degraded
// machines alike.
TEST(PlannerTable, PlanPicksTheBestCandidate) {
  const Planner pristine(64);
  const Planner degraded(
      64, MachineParams{.link_overrides = {*parse_link_override("1,0,E,4"),
                                           *parse_link_override("0,1,S,3")}});
  const Collective families[] = {Collective::Broadcast, Collective::Reduce,
                                 Collective::AllReduce, Collective::AllGather,
                                 Collective::ReduceScatter};
  u32 checked = 0;
  for (const Planner* planner : {&pristine, &degraded}) {
    for (Collective c : families) {
      for (GridShape g : {GridShape{2, 1}, GridShape{7, 1}, GridShape{16, 1},
                          GridShape{64, 1}, GridShape{4, 4}, GridShape{8, 3},
                          GridShape{1, 5}}) {
        for (u32 b : {1u, 16u, 48u, 256u, 4096u}) {
          const std::vector<Candidate> rows = planner->candidates(c, g, b);
          const Candidate* best = best_candidate(rows);
          if (best == nullptr) continue;  // e.g. ReduceScatter on 2D grids
          const Plan plan = planner->plan({c, g, b, ""});
          EXPECT_EQ(plan.prediction.cycles, best->prediction.cycles)
              << name(c) << " " << g.width << "x" << g.height << " B=" << b;
          EXPECT_EQ(plan.prediction.terms, best->prediction.terms);
          EXPECT_EQ(plan.algorithm,
                    best->desc->label(g, b, planner->context()));
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 200u);
  // Anti-vacuity: the throttled links change some priced row.
  EXPECT_NE(degraded.candidates(Collective::Reduce, {16, 1}, 256)[1]
                .prediction.cycles,
            pristine.candidates(Collective::Reduce, {16, 1}, 256)[1]
                .prediction.cycles);
}

// Planners are plain values over the process-wide tables: the pristine
// machine, another T_R and a throttled link all read the same Auto-Gen and
// lower-bound tables, while pricing stays per machine.
TEST(PlannerTables, EveryMachineReadsTheSameTables) {
  const Planner pristine(128);
  MachineParams slow;
  slow.ramp_latency = 7;
  const Planner slow_ramp(128, slow);
  const Planner throttled(
      128, MachineParams{.link_overrides = {*parse_link_override("5,0,W,3")}});
  for (const Planner* planner : {&slow_ramp, &throttled}) {
    EXPECT_EQ(&planner->autogen_model().table(),
              &pristine.autogen_model().table());
    EXPECT_EQ(planner->lower_bound().get(), pristine.lower_bound().get());
  }
  // Anti-vacuity: the throttled link is on the Reduce's path.
  const PlanRequest req{Collective::Reduce, {128, 1}, 256, ""};
  EXPECT_NE(throttled.plan(req).prediction.cycles,
            pristine.plan(req).prediction.cycles);
}

}  // namespace
}  // namespace wsr::runtime
