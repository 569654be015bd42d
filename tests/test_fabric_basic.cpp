// Basic FabricSim behaviour: hand-built message schedules, broadcast timing
// against the model, back-pressure and multicast semantics.
#include "wse/fabric.hpp"

#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "model/costs1d.hpp"
#include "sim_test_utils.hpp"
#include "wse/checks.hpp"

namespace wsr::wse {
namespace {

const MachineParams kMp{};

Schedule message_schedule(u32 p, u32 b) {
  Schedule s({p, 1}, b, "message");
  s.program(p - 1).add(Op::send(0, b));
  s.add_rule(p - 1, {0, Dir::Ramp, dir_bit(Dir::West), b});
  for (u32 x = 1; x + 1 < p; ++x) {
    s.add_rule(x, {0, Dir::East, dir_bit(Dir::West), b});
  }
  s.program(0u).add(Op::recv(0, b, RecvMode::Store));
  s.add_rule(0u, {0, Dir::East, dir_bit(Dir::Ramp), b});
  s.result_pes.push_back(0);
  check_valid(s);
  return s;
}

TEST(Fabric, MessageDeliversDataAndMatchesModel) {
  for (u32 p : {2u, 8u, 64u}) {
    for (u32 b : {1u, 16u, 256u}) {
      const Schedule s = message_schedule(p, b);
      auto inputs = make_inputs(s, [](u32 pe, u32 j) {
        return static_cast<float>(pe * 100 + j);
      });
      const FabricResult res = run_fabric(s, inputs);
      for (u32 j = 0; j < b; ++j) {
        EXPECT_EQ(res.memory[0][j], static_cast<float>((p - 1) * 100 + j));
      }
      // T_message = B + P + 2*T_R (Section 4.1); the simulator is allowed a
      // couple of cycles of boundary convention.
      testing::expect_close(res.cycles,
                            predict_message_1d(p, b, kMp).cycles, 0.0, 3,
                            "message cycles");
      // Energy is exactly B hops per link.
      EXPECT_EQ(res.wavelet_hops, i64{b} * (p - 1));
    }
  }
}

TEST(Fabric, MessagePipelines) {
  // Doubling B from an already-large value must cost ~B extra cycles, not
  // 2x (the stream is pipelined, not store-and-forward).
  const i64 c1 = run_fabric(message_schedule(32, 512),
                            make_inputs(message_schedule(32, 512),
                                        [](u32, u32) { return 1.0f; }))
                     .cycles;
  const i64 c2 = run_fabric(message_schedule(32, 1024),
                            make_inputs(message_schedule(32, 1024),
                                        [](u32, u32) { return 1.0f; }))
                     .cycles;
  EXPECT_NEAR(static_cast<double>(c2 - c1), 512.0, 4.0);
}

TEST(Fabric, BroadcastDeliversToAllAndMatchesModel) {
  for (u32 p : {2u, 4u, 32u, 512u}) {
    for (u32 b : {1u, 64u, 1024u}) {
      const Schedule s = collectives::make_broadcast_1d(p, b);
      const auto r = testing::verify_ok(s, /*is_broadcast=*/true);
      testing::expect_close(r.cycles, predict_broadcast_1d(p, b, kMp).cycles,
                            0.0, 3, "broadcast cycles");
      // Lemma 4.1: multicast means broadcast costs the same as a message.
      EXPECT_EQ(r.wavelet_hops, i64{b} * (p - 1));
    }
  }
}

TEST(Fabric, MulticastDuplicationIsFree) {
  // A 1x3 broadcast: the middle router forwards to ramp and onward in the
  // same cycle; total time must not grow with the number of copies.
  const Schedule s2 = collectives::make_broadcast_1d(2, 64);
  const Schedule s3 = collectives::make_broadcast_1d(3, 64);
  const auto r2 = testing::verify_ok(s2, true);
  const auto r3 = testing::verify_ok(s3, true);
  EXPECT_LE(r3.cycles - r2.cycles, 2);  // one extra hop, not an extra vector
}

TEST(Fabric, BackPressureStallsWithoutDataLoss) {
  // Two senders on the same color towards one receiver; router rules
  // serialize them (star with P = 3). The second stream must stall, not
  // collide.
  const Schedule s = collectives::make_reduce_1d(ReduceAlgo::Star, 3, 128);
  testing::verify_ok(s);
}

TEST(Fabric, DeterministicAcrossRuns) {
  const Schedule s = collectives::make_reduce_1d(ReduceAlgo::TwoPhase, 16, 64);
  const auto a = testing::verify_ok(s);
  const auto b = testing::verify_ok(s);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.wavelet_hops, b.wavelet_hops);
}

TEST(Fabric, RampLatencyAffectsTiming) {
  const Schedule s = message_schedule(16, 8);
  const auto inputs = make_inputs(s, [](u32, u32) { return 1.0f; });
  FabricOptions fast, slow;
  fast.ramp_latency = 1;
  slow.ramp_latency = 7;
  const i64 cf = run_fabric(s, inputs, fast).cycles;
  const i64 cs = run_fabric(s, inputs, slow).cycles;
  // One send-side and one receive-side ramp: 2 * (7 - 1) = 12 cycles apart.
  EXPECT_EQ(cs - cf, 12);
}

TEST(Fabric, ContentionMeasuredAtRoot) {
  const u32 p = 9, b = 32;
  const Schedule s = collectives::make_reduce_1d(ReduceAlgo::Star, p, b);
  const auto r = testing::verify_ok(s);
  // The root receives B wavelets from each of the other P-1 PEs.
  EXPECT_EQ(r.max_ramp_wavelets, i64{b} * (p - 1));
}

}  // namespace
}  // namespace wsr::wse
