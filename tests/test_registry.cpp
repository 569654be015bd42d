// Tests of the AlgorithmRegistry: introspection invariants, the selection
// rule over the planner's candidate table (best_candidate), schedule
// construction through descriptors, and — the load-bearing one — parity of
// the registry-driven planner against the pre-refactor hand-rolled selection
// tables.
#include "registry/algorithm_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "collectives/midroot.hpp"
#include "harness.hpp"
#include "model/costs1d.hpp"
#include "model/costs2d.hpp"
#include "runtime/planner.hpp"
#include "sim_test_utils.hpp"

namespace wsr {
namespace {

using registry::AlgorithmDescriptor;
using registry::AlgorithmRegistry;
using registry::Collective;
using registry::Dims;

std::vector<std::string> names(const std::vector<const AlgorithmDescriptor*>& ds) {
  std::vector<std::string> out;
  for (const auto* d : ds) out.push_back(d->name);
  return out;
}

TEST(Registry, FamiliesAreCompleteAndNameSorted) {
  const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
  EXPECT_EQ(names(reg.query(Collective::Reduce, Dims::OneD)),
            (std::vector<std::string>{"AutoGen", "Chain", "Star", "Tree",
                                      "TwoPhase"}));
  EXPECT_EQ(names(reg.query(Collective::AllReduce, Dims::OneD)),
            (std::vector<std::string>{"AutoGen+Bcast", "Butterfly",
                                      "Chain+Bcast", "MidRoot", "Ring",
                                      "Star+Bcast", "Tree+Bcast",
                                      "TwoPhase+Bcast"}));
  EXPECT_EQ(names(reg.query(Collective::Broadcast, Dims::OneD)),
            (std::vector<std::string>{"Flood"}));
  EXPECT_EQ(names(reg.query(Collective::AllGather, Dims::OneD)),
            (std::vector<std::string>{"Flood"}));
  EXPECT_EQ(names(reg.query(Collective::AllGather, Dims::TwoD)),
            (std::vector<std::string>{"X-Y Flood"}));
  EXPECT_EQ(names(reg.query(Collective::ReduceScatter, Dims::OneD)),
            (std::vector<std::string>{"Halving", "Pipeline"}));
  EXPECT_TRUE(reg.query(Collective::ReduceScatter, Dims::TwoD).empty());
  EXPECT_EQ(names(reg.query(Collective::Reduce, Dims::TwoD)),
            (std::vector<std::string>{"Snake", "X-Y AutoGen", "X-Y Chain",
                                      "X-Y Mixed", "X-Y Star", "X-Y Tree",
                                      "X-Y TwoPhase"}));
  EXPECT_EQ(names(reg.query(Collective::AllReduce, Dims::TwoD)),
            (std::vector<std::string>{"Snake+Bcast", "X-Y AutoGen", "X-Y Chain",
                                      "X-Y Ring", "X-Y Star", "X-Y Tree",
                                      "X-Y TwoPhase"}));
  EXPECT_EQ(names(reg.query(Collective::Broadcast, Dims::TwoD)),
            (std::vector<std::string>{"Flood-2D"}));
}

TEST(Registry, ExtensionsAreNotAutoSelectable) {
  const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
  const auto selectable =
      names(reg.query(Collective::AllReduce, Dims::OneD, true));
  EXPECT_EQ(std::count(selectable.begin(), selectable.end(), "MidRoot"), 0);
  EXPECT_EQ(std::count(selectable.begin(), selectable.end(), "Butterfly"), 0);
  EXPECT_EQ(std::count(selectable.begin(), selectable.end(), "Ring"), 1);
  EXPECT_EQ(names(reg.query(Collective::Reduce, Dims::TwoD, true)),
            (std::vector<std::string>{"Snake", "X-Y AutoGen", "X-Y Chain",
                                      "X-Y Star", "X-Y Tree", "X-Y TwoPhase"}));
}

TEST(Registry, DescriptorsAreWellFormed) {
  for (const AlgorithmDescriptor* d : AlgorithmRegistry::instance().all()) {
    EXPECT_FALSE(d->name.empty());
    EXPECT_TRUE(d->applicable && d->cost && d->build) << d->name;
    EXPECT_GE(d->color_budget, 1u) << d->name;
    EXPECT_LE(d->color_budget, 24u) << d->name;  // the hardware's budget
    EXPECT_EQ(AlgorithmRegistry::instance().find(d->collective, d->dims, d->name),
              d);
  }
  EXPECT_EQ(AlgorithmRegistry::instance().find(Collective::Reduce, Dims::OneD,
                                               "NoSuchAlgorithm"),
            nullptr);
}

TEST(Registry, EveryApplicableDescriptorBuildsACorrectSchedule) {
  // The all-in-one structural check: every registered algorithm, built
  // through its descriptor on a small shape, must produce a schedule whose
  // simulated results are exact. Color budgets must hold too.
  const runtime::Planner planner(16);
  const registry::PlanContext ctx = planner.context();
  for (const AlgorithmDescriptor* d : AlgorithmRegistry::instance().all()) {
    const GridShape grid = d->dims == Dims::OneD ? GridShape{8, 1}
                                                 : GridShape{4, 4};
    const u32 vec_len = 16;  // divisible by 8 and 4 => Ring variants apply
    ASSERT_TRUE(d->applicable(grid, vec_len)) << d->name;
    const wse::Schedule s = d->build(grid, vec_len, ctx);
    EXPECT_LE(s.colors_used(), d->color_budget) << d->name;
    testing::verify_ok(s, runtime::semantic_for(d->collective));
  }
}

TEST(Registry, IrregularShapeApplicability) {
  // The widened hardware axis: non-power-of-two rows and degenerate columns
  // must be first-class for the families that support them, and the
  // power-of-two constructions must cleanly refuse them.
  const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
  const auto* flood = reg.find(Collective::AllGather, Dims::OneD, "Flood");
  const auto* xy_flood = reg.find(Collective::AllGather, Dims::TwoD, "X-Y Flood");
  const auto* pipeline = reg.find(Collective::ReduceScatter, Dims::OneD,
                                  "Pipeline");
  const auto* halving = reg.find(Collective::ReduceScatter, Dims::OneD,
                                 "Halving");
  const auto* butterfly = reg.find(Collective::AllReduce, Dims::OneD,
                                   "Butterfly");
  ASSERT_TRUE(flood && xy_flood && pipeline && halving && butterfly);

  for (u32 p : {2u, 3u, 7u, 12u, 127u}) {
    EXPECT_TRUE(flood->applicable({p, 1}, 5)) << p;
    EXPECT_TRUE(pipeline->applicable({p, 1}, 2 * p)) << p;
    EXPECT_FALSE(pipeline->applicable({p, 1}, 2 * p + 1)) << p;
  }
  // Degenerate 1xH columns and rectangular grids: only X-Y Flood serves them
  // (the X-Y reductions need both axes >= 2).
  EXPECT_TRUE(xy_flood->applicable({1, 4}, 5));
  EXPECT_TRUE(xy_flood->applicable({5, 3}, 5));
  EXPECT_FALSE(reg.at(Collective::AllReduce, Dims::TwoD, "X-Y Chain")
                   .applicable({1, 4}, 5));

  // The butterfly constructions: power-of-two rows up to 64, divisible B.
  for (u32 p : {2u, 4u, 32u, 64u}) {
    EXPECT_TRUE(halving->applicable({p, 1}, 2 * p)) << p;
    EXPECT_TRUE(butterfly->applicable({p, 1}, 2 * p)) << p;
  }
  for (u32 p : {3u, 6u, 12u, 128u}) {
    EXPECT_FALSE(halving->applicable({p, 1}, 2 * p)) << p;
    EXPECT_FALSE(butterfly->applicable({p, 1}, 2 * p)) << p;
  }
  EXPECT_FALSE(butterfly->applicable({8, 1}, 12));  // 12 % 8 != 0
}

TEST(Registry, SelectionOnIrregularShapesIsDeterministic) {
  // Planning twice on prime / rectangular shapes must pick the same
  // algorithm with the same prediction (the name tie-break is total).
  const runtime::Planner planner(16);
  const runtime::PlanRequest reqs[] = {
      {Collective::AllGather, {7, 1}, 21, ""},
      {Collective::AllGather, {1, 5}, 8, ""},
      {Collective::AllGather, {5, 3}, 8, ""},
      {Collective::ReduceScatter, {6, 1}, 12, ""},
      {Collective::ReduceScatter, {8, 1}, 16, ""},
      {Collective::Reduce, {13, 1}, 64, ""},
  };
  for (const runtime::PlanRequest& req : reqs) {
    const runtime::Plan a = planner.plan(req);
    const runtime::Plan b = planner.plan(req);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.prediction.cycles, b.prediction.cycles);
    testing::verify_ok(a.schedule, runtime::semantic_for(req.collective));
  }
  // On a power-of-two row both ReduceScatter descriptors apply; the winner
  // must be the cheaper prediction, not registration order.
  const runtime::Plan rs = planner.plan({Collective::ReduceScatter, {8, 1},
                                         16, ""});
  const registry::PlanContext ctx = planner.context();
  const i64 halving = AlgorithmRegistry::instance()
                          .at(Collective::ReduceScatter, Dims::OneD, "Halving")
                          .cost({8, 1}, 16, ctx)
                          .cycles;
  const i64 pipeline = AlgorithmRegistry::instance()
                           .at(Collective::ReduceScatter, Dims::OneD,
                               "Pipeline")
                           .cost({8, 1}, 16, ctx)
                           .cycles;
  EXPECT_EQ(rs.prediction.cycles, std::min(halving, pipeline));
}

TEST(Registry, RingApplicabilityRequiresDivisibility) {
  const auto* ring = AlgorithmRegistry::instance().find(Collective::AllReduce,
                                                        Dims::OneD, "Ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_TRUE(ring->applicable({8, 1}, 64));
  EXPECT_FALSE(ring->applicable({8, 1}, 63));
}

// --- the selection rule over a candidate table ------------------------------

runtime::Candidate priced_row(i64 cycles) {
  return {nullptr, true, Prediction(CostTerms{}, cycles)};
}

runtime::Candidate inapplicable_row() { return {nullptr, false, {}}; }

TEST(BestCandidate, PicksFewestCycles) {
  const std::vector<runtime::Candidate> rows = {priced_row(20), priced_row(10),
                                                priced_row(30)};
  EXPECT_EQ(runtime::best_candidate(rows), &rows[1]);
}

TEST(BestCandidate, EarlierRowWinsATie) {
  // Planner::candidates lists rows in name order, so the first of tied rows
  // is the lexicographically smallest name.
  const std::vector<runtime::Candidate> rows = {priced_row(7), priced_row(5),
                                                priced_row(9), priced_row(5)};
  EXPECT_EQ(runtime::best_candidate(rows), &rows[1]);
}

TEST(BestCandidate, InapplicableRowNeverWins) {
  // An unpriced row reads 0 cycles, fewer than any priced one.
  const std::vector<runtime::Candidate> rows = {inapplicable_row(),
                                                priced_row(40),
                                                inapplicable_row()};
  ASSERT_EQ(rows[0].prediction.cycles, 0);
  EXPECT_EQ(runtime::best_candidate(rows), &rows[1]);
}

TEST(BestCandidate, NoApplicableRowReturnsNull) {
  const std::vector<runtime::Candidate> rows = {inapplicable_row(),
                                                inapplicable_row()};
  EXPECT_EQ(runtime::best_candidate(rows), nullptr);
  EXPECT_EQ(runtime::best_candidate({}), nullptr);
}

// --- parity with the pre-refactor selection tables --------------------------
//
// The reference implementations below are verbatim transcriptions of the
// selection loops that lived in runtime/planner.cpp before the registry
// refactor (hand-rolled enumeration over kFixedReduceAlgos + Auto-Gen +
// special-cased Ring/Snake). The registry-driven planner must pick plans
// with identical predicted cycles; when the reference minimizer is unique it
// must also pick the identical algorithm.

struct OldChoice {
  std::string algorithm;
  i64 cycles = 0;
  bool unique = true;  ///< no other candidate ties the winning cycle count
};

void note_tie(OldChoice& c, i64 candidate_cycles) {
  if (candidate_cycles == c.cycles) c.unique = false;
}

OldChoice old_plan_reduce_1d(const runtime::Planner& p, u32 P, u32 B) {
  const MachineParams& mp = p.machine();
  OldChoice c{"AutoGen", p.autogen_model().predict(P, B).cycles};
  for (ReduceAlgo a : kFixedReduceAlgos) {
    const i64 cyc = predict_reduce_1d(a, P, B, mp).cycles;
    note_tie(c, cyc);
    if (cyc < c.cycles) c = {wsr::name(a), cyc};
  }
  return c;
}

OldChoice old_plan_allreduce_1d(const runtime::Planner& p, u32 P, u32 B) {
  const MachineParams& mp = p.machine();
  const auto rb = [&](ReduceAlgo a) {
    const Prediction r = a == ReduceAlgo::AutoGen
                             ? p.autogen_model().predict(P, B)
                             : predict_reduce_1d(a, P, B, mp);
    return sequential(r, predict_broadcast_1d(P, B, mp)).cycles;
  };
  OldChoice c{"AutoGen+Bcast", rb(ReduceAlgo::AutoGen)};
  for (ReduceAlgo a : kFixedReduceAlgos) {
    const i64 cyc = rb(a);
    note_tie(c, cyc);
    if (cyc < c.cycles) c = {std::string(wsr::name(a)) + "+Bcast", cyc};
  }
  if (B % P == 0) {
    const i64 ring = predict_ring_allreduce(P, B, mp).cycles;
    note_tie(c, ring);
    if (ring < c.cycles) c = {"Ring", ring};
  }
  return c;
}

OldChoice old_plan_reduce_2d(const runtime::Planner& p, GridShape g, u32 B) {
  const MachineParams& mp = p.machine();
  const auto r1 = [&](ReduceAlgo a, u32 n) {
    return a == ReduceAlgo::AutoGen ? p.autogen_model().predict(n, B)
                                    : predict_reduce_1d(a, n, B, mp);
  };
  OldChoice c{"Snake", predict_snake_reduce(g, B, mp).cycles};
  for (ReduceAlgo a : kReduceAlgos) {
    const i64 cyc = sequential(r1(a, g.width), r1(a, g.height)).cycles;
    note_tie(c, cyc);
    if (cyc < c.cycles) c = {std::string("X-Y ") + wsr::name(a), cyc};
  }
  return c;
}

OldChoice old_plan_allreduce_2d(const runtime::Planner& p, GridShape g, u32 B) {
  const MachineParams& mp = p.machine();
  const auto arb1 = [&](ReduceAlgo a, u32 n) {
    const Prediction r = a == ReduceAlgo::AutoGen
                             ? p.autogen_model().predict(n, B)
                             : predict_reduce_1d(a, n, B, mp);
    return sequential(r, predict_broadcast_1d(n, B, mp));
  };
  OldChoice c{"X-Y AutoGen",
              sequential(arb1(ReduceAlgo::AutoGen, g.width),
                         arb1(ReduceAlgo::AutoGen, g.height))
                  .cycles};
  for (ReduceAlgo a : kFixedReduceAlgos) {
    const i64 cyc =
        sequential(arb1(a, g.width), arb1(a, g.height)).cycles;
    note_tie(c, cyc);
    if (cyc < c.cycles) c = {std::string("X-Y ") + wsr::name(a), cyc};
  }
  const i64 snake = sequential(predict_snake_reduce(g, B, mp),
                               predict_broadcast_2d(g, B, mp))
                        .cycles;
  note_tie(c, snake);
  if (snake < c.cycles) c = {"Snake+Bcast", snake};
  return c;
}

void expect_parity(const runtime::Plan& plan, const OldChoice& old,
                   const std::string& what) {
  EXPECT_EQ(plan.prediction.cycles, old.cycles) << what;
  if (old.unique) EXPECT_EQ(plan.algorithm, old.algorithm) << what;
}

class RegistryParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { planner_ = new runtime::Planner(128); }
  static void TearDownTestSuite() {
    delete planner_;
    planner_ = nullptr;
  }
  static runtime::Planner* planner_;
};
runtime::Planner* RegistryParity::planner_ = nullptr;

TEST_F(RegistryParity, Plan1DMatchesPreRefactorSelection) {
  for (u32 p : {2u, 3u, 4u, 8u, 16u, 31u, 64u, 128u}) {
    for (u32 b : {1u, 4u, 16u, 100u, 256u, 1024u, 4096u, 32768u}) {
      const std::string what =
          "P=" + std::to_string(p) + " B=" + std::to_string(b);
      expect_parity(planner_->plan({Collective::Reduce, {p, 1}, b, ""}),
                    old_plan_reduce_1d(*planner_, p, b), "reduce " + what);
      expect_parity(planner_->plan({Collective::AllReduce, {p, 1}, b, ""}),
                    old_plan_allreduce_1d(*planner_, p, b),
                    "allreduce " + what);
    }
  }
}

TEST_F(RegistryParity, Plan2DMatchesPreRefactorSelection) {
  for (GridShape g : {GridShape{4, 4}, GridShape{8, 8}, GridShape{8, 32},
                      GridShape{32, 8}, GridShape{64, 64}, GridShape{128, 16}}) {
    for (u32 b : {1u, 64u, 1024u, 16384u}) {
      const std::string what = std::to_string(g.width) + "x" +
                               std::to_string(g.height) + " B=" +
                               std::to_string(b);
      expect_parity(planner_->plan({Collective::Reduce, g, b, ""}),
                    old_plan_reduce_2d(*planner_, g, b), "reduce2d " + what);
      expect_parity(planner_->plan({Collective::AllReduce, g, b, ""}),
                    old_plan_allreduce_2d(*planner_, g, b),
                    "allreduce2d " + what);
    }
  }
}

TEST_F(RegistryParity, CandidateTablesMatchDirectPredictions) {
  // Every applicable row of the planner's table carries its descriptor's
  // direct cost (pristine machine: no link-override pricing), rows come in
  // name order, and an inapplicable row is listed, unpriced.
  const registry::PlanContext ctx = planner_->context();
  u32 ring_rows_inapplicable = 0;
  for (u32 p : {4u, 16u, 64u}) {
    for (u32 b : {1u, 6u, 256u, 8192u}) {
      for (Collective c : {Collective::Reduce, Collective::AllReduce}) {
        const auto family =
            AlgorithmRegistry::instance().query(c, Dims::OneD, true);
        const std::vector<runtime::Candidate> rows =
            planner_->candidates(c, {p, 1}, b);
        ASSERT_EQ(rows.size(), family.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
          const runtime::Candidate& row = rows[i];
          ASSERT_EQ(row.desc, family[i]);
          EXPECT_EQ(row.applicable, row.desc->applicable({p, 1}, b));
          if (!row.applicable) continue;
          EXPECT_EQ(row.prediction.cycles,
                    row.desc->cost({p, 1}, b, ctx).cycles)
              << row.desc->name;
          EXPECT_EQ(row.prediction.terms, row.desc->cost({p, 1}, b, ctx).terms)
              << row.desc->name;
        }
        if (c != Collective::AllReduce) continue;
        const auto ring = std::find_if(
            rows.begin(), rows.end(),
            [](const runtime::Candidate& row) { return row.desc->name == "Ring"; });
        ASSERT_NE(ring, rows.end()) << "P=" << p << " B=" << b;
        EXPECT_EQ(ring->applicable, b % p == 0) << "P=" << p << " B=" << b;
        if (!ring->applicable) {
          EXPECT_EQ(ring->prediction.cycles, 0);
          ++ring_rows_inapplicable;
        }
      }
    }
  }
  EXPECT_GT(ring_rows_inapplicable, 0u);
}

TEST_F(RegistryParity, MixedAxisPlanStillReportsPerAxisPair) {
  const runtime::Plan mixed = bench::plan_mixed_xy(*planner_, {128, 8}, 512);
  // Label format "X-Y <x>/<y>" is part of the descriptor's display contract.
  EXPECT_EQ(mixed.algorithm.rfind("X-Y ", 0), 0u) << mixed.algorithm;
  EXPECT_NE(mixed.algorithm.find('/'), std::string::npos) << mixed.algorithm;
}

}  // namespace
}  // namespace wsr
