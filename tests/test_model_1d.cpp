// Tests of the 1D closed-form model predictions against the paper's lemmas.
#include "model/costs1d.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/math.hpp"
#include "harness.hpp"

namespace wsr {
namespace {

const MachineParams kMp{};  // T_R = 2, so 2*T_R + 1 = 5 cycles per depth unit.

const runtime::Planner& planner() {
  static const runtime::Planner p(512, kMp);
  return p;
}

/// The fixed algorithm the model predicts fastest: best_candidate over the
/// planner's candidate table without its Auto-Gen rows, as in the paper's
/// Figures 8 and 10. One planner per binary, so its Auto-Gen rows fill one
/// 512-PE DP table.
std::string best_fixed(runtime::Collective c, u32 p, u32 b) {
  const auto rows = bench::fixed_candidates(planner(), c, {p, 1}, b);
  return runtime::best_candidate(rows)->desc->name;
}

/// Cycles of the Reduce-then-Broadcast AllReduce over `algo` on a P-PE row:
/// the registry's "<algo>+Bcast" descriptor priced by the planner.
i64 reduce_then_bcast_cycles(ReduceAlgo algo, u32 p, u32 b) {
  return planner()
      .predict({runtime::Collective::AllReduce, {p, 1}, b,
                std::string(name(algo)) + "+Bcast"})
      .cycles;
}

TEST(Model1D, MessageMatchesPaperFormula) {
  // T = B + P + 2*T_R (Section 4.1).
  for (u32 p : {2u, 5u, 64u, 512u}) {
    for (u32 b : {1u, 7u, 256u, 8192u}) {
      EXPECT_EQ(predict_message_1d(p, b, kMp).cycles, i64{b} + p + 4)
          << "P=" << p << " B=" << b;
    }
  }
}

TEST(Model1D, BroadcastEqualsMessage) {
  // Lemma 4.1: multicast makes Broadcast as cheap as a point-to-point send.
  for (u32 p : {2u, 17u, 512u}) {
    for (u32 b : {1u, 256u}) {
      EXPECT_EQ(predict_broadcast_1d(p, b, kMp).cycles,
                predict_message_1d(p, b, kMp).cycles);
    }
  }
}

TEST(Model1D, StarMatchesPaperFormula) {
  // T = B(P-1) + 2*T_R + 1, including the sharper B = 1 pipeline case.
  EXPECT_EQ(predict_star_reduce(512, 1, kMp).cycles, 511 + 5);
  EXPECT_EQ(predict_star_reduce(512, 256, kMp).cycles, 256 * 511 + 5);
  EXPECT_EQ(predict_star_reduce(4, 8192, kMp).cycles, 8192 * 3 + 5);
}

TEST(Model1D, ChainMatchesLemma52) {
  // T = B + (2*T_R + 2)(P - 1).
  for (u32 p : {2u, 32u, 512u}) {
    for (u32 b : {1u, 256u, 8192u}) {
      EXPECT_EQ(predict_chain_reduce(p, b, kMp).cycles, i64{b} + 6 * (p - 1))
          << "P=" << p << " B=" << b;
    }
  }
}

TEST(Model1D, TreeMatchesLemma53) {
  // T = max(B log P, B * P log P / (2(P-1)) + P - 1) + (2T_R+1) log P.
  const u32 p = 512, b = 256;
  const i64 lg = 9;
  const i64 bw = i64{b} * p * lg / (2 * (p - 1)) + (p - 1);
  const i64 expected = std::max<i64>(i64{b} * lg, bw) + 5 * lg;
  EXPECT_EQ(predict_tree_reduce(p, b, kMp).cycles, expected);
}

TEST(Model1D, TreeDepthIsLogP) {
  EXPECT_EQ(predict_tree_reduce(512, 16, kMp).terms.depth, 9);
  EXPECT_EQ(predict_tree_reduce(500, 16, kMp).terms.depth, 9);  // ceil(log2)
  EXPECT_EQ(predict_tree_reduce(4, 16, kMp).terms.depth, 2);
}

TEST(Model1D, TwoPhaseMatchesLemma54Shape) {
  // For P = S^2 the lemma gives
  // max(2B, 2B - 2B/sqrt(P) + P) + (2 sqrt(P) - 2)(2T_R+1).
  const u32 p = 256, b = 1024;  // S = 16
  const Prediction got = predict_two_phase_reduce(p, b, kMp);
  EXPECT_EQ(got.terms.depth, 2 * 16 - 2);
  EXPECT_EQ(got.terms.contention, 2 * i64{b});
  // Energy: both phases ~ P*B - sqrt(P)*B.
  EXPECT_EQ(got.terms.energy, i64{15} * b * 16 + 16 * i64{b} * 15);
  const i64 lemma =
      std::max<i64>(2 * b, 2 * b - 2 * b / 16 + p) + (2 * 16 - 2) * 5;
  EXPECT_NEAR(static_cast<double>(got.cycles), static_cast<double>(lemma),
              0.02 * lemma + 8);
}

TEST(Model1D, TwoPhaseDepthBeatsChainForLargeP) {
  const Prediction chain = predict_chain_reduce(512, 256, kMp);
  const Prediction two = predict_two_phase_reduce(512, 256, kMp);
  EXPECT_LT(two.terms.depth, chain.terms.depth / 4);
  EXPECT_LT(two.cycles, chain.cycles);
}

TEST(Model1D, RingMatchesLemma61) {
  // T = 2(P-1) ceil(B/P) + 4P - 6 + 2(P-1)(2T_R+1).
  for (u32 p : {4u, 64u, 512u}) {
    for (u32 b : {512u, 4096u, 8192u}) {
      const i64 expected =
          2 * (i64{p} - 1) * ceil_div(b, p) + 4 * i64{p} - 6 + 2 * (i64{p} - 1) * 5;
      EXPECT_EQ(predict_ring_allreduce(p, b, kMp).cycles, expected)
          << "P=" << p << " B=" << b;
    }
  }
}

TEST(Model1D, ReduceThenBroadcastAddsCycles) {
  for (ReduceAlgo a : kFixedReduceAlgos) {
    const Prediction r = predict_reduce_1d(a, 64, 256, kMp);
    const Prediction b = predict_broadcast_1d(64, 256, kMp);
    EXPECT_EQ(reduce_then_bcast_cycles(a, 64, 256), r.cycles + b.cycles);
  }
}

// --- regime checks: who wins where (paper Section 5.7 / Fig. 8) ------------

TEST(Model1D, StarWinsForScalars) {
  EXPECT_EQ(best_fixed(runtime::Collective::Reduce, 512, 1), "Star");
}

TEST(Model1D, ChainWinsForHugeVectors) {
  EXPECT_EQ(best_fixed(runtime::Collective::Reduce, 512, 1u << 17), "Chain");
}

TEST(Model1D, TwoPhaseWinsForIntermediateVectors) {
  // Paper: "Two-phase is effective ... when P ~ B".
  EXPECT_EQ(best_fixed(runtime::Collective::Reduce, 512, 512), "TwoPhase");
}

TEST(Model1D, TreeWinsForSmallVectors) {
  EXPECT_EQ(best_fixed(runtime::Collective::Reduce, 512, 16), "Tree");
}

TEST(Model1D, RingBeatsChainBcastOnlyForLargeVectors) {
  // Fig. 8: ring occupies the large-B / small-P band.
  const i64 ring = predict_ring_allreduce(8, 1u << 15, kMp).cycles;
  const i64 chainb = reduce_then_bcast_cycles(ReduceAlgo::Chain, 8, 1u << 15);
  EXPECT_LT(ring, chainb);
  // ... but never for small vectors.
  EXPECT_GT(predict_ring_allreduce(8, 16, kMp).cycles,
            reduce_then_bcast_cycles(ReduceAlgo::Chain, 8, 16));
}

TEST(Model1D, ButterflyAndRingAreNeverBestForLargeP) {
  // Section 6.3 / Fig. 11c: butterfly never wins on 512 PEs, and even with a
  // 15% prediction error (the largest observed), ring is never the best
  // choice there either.
  // The sweep covers the paper's range (up to 1/3 of PE memory = 4096
  // wavelets); beyond that Ring eventually wins its contention-bound band.
  for (u32 b : {1u, 16u, 256u, 1024u, 4096u}) {
    i64 best_rb = INT64_MAX;  // best reduce-then-broadcast candidate
    for (const runtime::Candidate& row : bench::fixed_candidates(
             planner(), runtime::Collective::AllReduce, {512, 1}, b)) {
      if (row.desc->name != "Ring") {
        best_rb = std::min(best_rb, row.prediction.cycles);
      }
    }
    EXPECT_GT(predict_butterfly_allreduce(512, b, kMp).cycles, best_rb)
        << "B=" << b;
    EXPECT_GT(static_cast<double>(predict_ring_allreduce(512, b, kMp).cycles),
              1.15 * static_cast<double>(best_rb))
        << "B=" << b;
  }
}

TEST(Model1D, SequentialComposition) {
  const Prediction a(CostTerms{100, 10, 2, 30, 7}, kMp);
  const Prediction b(CostTerms{50, 20, 3, 40, 7}, kMp);
  const Prediction s = sequential(a, b);
  EXPECT_EQ(s.terms.energy, 150);
  EXPECT_EQ(s.terms.distance, 20);
  EXPECT_EQ(s.terms.depth, 5);
  EXPECT_EQ(s.terms.contention, 70);
  EXPECT_EQ(s.cycles, a.cycles + b.cycles);
}

}  // namespace
}  // namespace wsr
