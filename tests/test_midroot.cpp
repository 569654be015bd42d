// Tests of the optimal-root (mid-row) Reduce-then-Broadcast extension
// (paper Section 6.1's remark about reducing to the middle PE).
#include "collectives/midroot.hpp"

#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "runtime/planner.hpp"
#include "sim_test_utils.hpp"
#include "wse/checks.hpp"

namespace wsr::collectives {
namespace {

const MachineParams kMp{};

class MidRoot : public ::testing::TestWithParam<std::pair<u32, u32>> {};

TEST_P(MidRoot, AllReduceDeliversExactSumEverywhere) {
  const auto [p, b] = GetParam();
  testing::verify_ok(make_allreduce_1d_midroot(p, b));
}

TEST_P(MidRoot, SimulatorTracksModel) {
  const auto [p, b] = GetParam();
  const auto r = runtime::verify_on_fabric(make_allreduce_1d_midroot(p, b));
  ASSERT_TRUE(r.ok) << r.error;
  testing::expect_close(r.cycles, predict_midroot_allreduce(p, b, kMp).cycles,
                        0.20, 40, "midroot allreduce");
}

INSTANTIATE_TEST_SUITE_P(Sweep, MidRoot,
                         ::testing::Values(std::pair{2u, 16u}, std::pair{3u, 8u},
                                           std::pair{4u, 1u}, std::pair{9u, 64u},
                                           std::pair{16u, 1u},
                                           std::pair{33u, 128u},
                                           std::pair{64u, 256u}),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param.first) + "_B" +
                                  std::to_string(info.param.second);
                         });

TEST(MidRoot, HalvesDepthVersusEndRootedChain) {
  // Latency-bound regime: the mid-rooted chain should approach half the
  // end-rooted chain's runtime.
  const u32 p = 64, b = 1;
  const auto mid = testing::verify_ok(make_allreduce_1d_midroot(p, b));
  const auto end =
      testing::verify_ok(make_allreduce_1d(ReduceAlgo::Chain, p, b));
  EXPECT_LT(static_cast<double>(mid.cycles),
            0.62 * static_cast<double>(end.cycles));
}

TEST(MidRoot, ContentionDoublesAtTheRoot) {
  const u32 p = 17, b = 32;
  const auto r = runtime::verify_on_fabric(make_allreduce_1d_midroot(p, b));
  ASSERT_TRUE(r.ok);
  // Root drains both arms (2B) and re-emits the broadcast (B): 3B ramp
  // wavelets total at the root.
  EXPECT_EQ(r.max_ramp_wavelets, 3 * i64{b});
}

TEST(MidRoot, BroadcastFromArbitraryRoot) {
  for (u32 root : {0u, 1u, 7u, 15u}) {
    wse::Schedule s({16, 1}, 32, "bcast-from-" + std::to_string(root));
    build_broadcast_from(s, Lane::row(s.grid, 0), root, 0, no_deps(s));
    for (u32 pe = 0; pe < 16; ++pe) s.result_pes.push_back(pe);
    wse::check_valid(s);
    // The broadcast source holds the reference data at PE `root`; check all
    // PEs converge to it.
    auto inputs = wse::make_inputs(s, [](u32 pe, u32 j) {
      return static_cast<float>(pe * 1000 + j);
    });
    const auto res = wse::run_fabric(s, inputs);
    for (u32 pe = 0; pe < 16; ++pe) {
      for (u32 j = 0; j < 32; ++j) {
        ASSERT_EQ(res.memory[pe][j], static_cast<float>(root * 1000 + j))
            << "root=" << root << " pe=" << pe;
      }
    }
  }
}

TEST(MidRoot, ModelPrefersMidRootInLatencyRegime) {
  // The end-rooted vendor Chain+Bcast, priced by the planner.
  const runtime::Planner planner(64, kMp);
  const auto chain_bcast = [&](u32 p, u32 b) {
    return planner
        .predict({runtime::Collective::AllReduce, {p, 1}, b, "Chain+Bcast"})
        .cycles;
  };
  // Small B: mid-rooted beats end-rooted in the model too.
  EXPECT_LT(predict_midroot_allreduce(64, 1, kMp).cycles, chain_bcast(64, 1));
  // Huge B: both are contention-bound; mid-root pays 2B at the root, so the
  // advantage disappears.
  EXPECT_GE(predict_midroot_allreduce(8, 1u << 15, kMp).cycles,
            chain_bcast(8, 1u << 15) - (1 << 15));
}

}  // namespace
}  // namespace wsr::collectives
