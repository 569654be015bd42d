// Tests of the Schedule IR and its static validation.
#include "wse/schedule.hpp"

#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "wse/checks.hpp"

namespace wsr::wse {
namespace {

TEST(Schedule, OpConstructors) {
  const Op s = Op::send(3, 128, 16);
  EXPECT_EQ(s.kind, OpKind::Send);
  EXPECT_EQ(s.out_color, 3);
  EXPECT_EQ(s.len, 128u);
  EXPECT_EQ(s.src_offset, 16u);

  const Op r = Op::recv(1, 64, RecvMode::AddModulo, 0, 8);
  EXPECT_EQ(r.kind, OpKind::Recv);
  EXPECT_EQ(r.mode, RecvMode::AddModulo);
  EXPECT_EQ(r.modulo, 8u);

  Op f = Op::recv_reduce_send(0, 1, 32);
  f.after({2, 5});
  EXPECT_EQ(f.kind, OpKind::RecvReduceSend);
  EXPECT_EQ(f.deps, (std::vector<u32>{2, 5}));
}

TEST(Schedule, ColorsUsed) {
  Schedule s({4, 1}, 8, "t");
  s.program(0).add(Op::recv(2, 8, RecvMode::Add));
  s.add_rule(0u, {2, Dir::East, dir_bit(Dir::Ramp), 8});
  s.program(3).add(Op::send(2, 8));
  s.add_rule(3u, {2, Dir::Ramp, dir_bit(Dir::West), 8});
  EXPECT_EQ(s.colors_used(), 1u);
}

TEST(Checks, AcceptsGeneratedSchedules) {
  EXPECT_TRUE(validate(collectives::make_reduce_1d(ReduceAlgo::Chain, 8, 16)).empty());
  EXPECT_TRUE(validate(collectives::make_broadcast_1d(8, 16)).empty());
}

TEST(Checks, CountMismatchDetected) {
  Schedule s({2, 1}, 4, "bad-count");
  s.program(1).add(Op::send(0, 4));
  s.add_rule(1u, {0, Dir::Ramp, dir_bit(Dir::West), 3});  // 3 != 4
  s.program(0).add(Op::recv(0, 4, RecvMode::Add));
  s.add_rule(0u, {0, Dir::East, dir_bit(Dir::Ramp), 4});
  const auto problems = validate(s);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("rules accept 3"), std::string::npos);
}

TEST(Checks, OffGridRuleDetected) {
  Schedule s({2, 1}, 4, "bad-dir");
  s.program(1).add(Op::send(0, 4));
  s.add_rule(1u, {0, Dir::Ramp, dir_bit(Dir::East), 4});  // PE 1 has no east
  const auto problems = validate(s);
  EXPECT_FALSE(problems.empty());
}

TEST(Checks, DependencyCycleDetected) {
  Schedule s({2, 1}, 4, "dep-cycle");
  Op a = Op::send(0, 4);
  a.after(1u);
  Op b = Op::send(0, 4);
  b.after(0u);
  s.program(1).add(std::move(a));
  s.program(1).add(std::move(b));
  s.add_rule(1u, {0, Dir::Ramp, dir_bit(Dir::West), 8});
  s.program(0).add(Op::recv(0, 8, RecvMode::AddModulo, 0, 4));
  s.add_rule(0u, {0, Dir::East, dir_bit(Dir::Ramp), 8});
  const auto problems = validate(s);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("cycle"), std::string::npos);
}

TEST(Checks, StrayRampTrafficDetected) {
  Schedule s({2, 1}, 4, "stray");
  s.program(1).add(Op::send(0, 4));
  s.add_rule(1u, {0, Dir::Ramp, dir_bit(Dir::West), 4});
  // PE 0 forwards to its ramp but has no receive op.
  s.add_rule(0u, {0, Dir::East, dir_bit(Dir::Ramp), 4});
  EXPECT_FALSE(validate(s).empty());
}

TEST(Checks, ColorIdsTheMachineLacksDetected) {
  // A 2-PE transfer on one color: colors_used() is 1, so only the id
  // itself can be wrong. Both rules and both ops name it.
  const auto transfer = [](Color c) {
    Schedule s({2, 1}, 4, "color");
    s.program(1).add(Op::send(c, 4));
    s.add_rule(1u, {c, Dir::Ramp, dir_bit(Dir::West), 4});
    s.program(0).add(Op::recv(c, 4, RecvMode::Add));
    s.add_rule(0u, {c, Dir::East, dir_bit(Dir::Ramp), 4});
    return s;
  };
  EXPECT_TRUE(validate(transfer(kNumColors - 1)).empty());
  for (Color c : {Color{kNumColors}, Color{40}}) {
    const Schedule s = transfer(c);
    EXPECT_EQ(s.colors_used(), 1u);
    const auto problems = validate(s);
    ASSERT_EQ(problems.size(), 4u) << "color " << u32{c};
    for (const std::string& p : problems) {
      EXPECT_NE(p.find("color " + std::to_string(c) + " is not one of"),
                std::string::npos)
          << p;
    }
  }
}

TEST(Schedule, DumpIsHumanReadable) {
  const Schedule s = collectives::make_reduce_1d(ReduceAlgo::Chain, 4, 8);
  const std::string d = s.dump();
  EXPECT_NE(d.find("recv_reduce_send"), std::string::npos);
  EXPECT_NE(d.find("route c"), std::string::npos);
  EXPECT_NE(d.find("PE(0,0)"), std::string::npos);
}

TEST(Schedule, ColorBudgetRespected) {
  // Paper Section 8.2: implementations must stay well under 24 colors.
  EXPECT_LE(collectives::make_reduce_1d(ReduceAlgo::TwoPhase, 32, 8).colors_used(), 4u);
  EXPECT_LE(collectives::make_allreduce_1d(ReduceAlgo::Chain, 32, 8).colors_used(), 5u);
  EXPECT_LE(collectives::make_ring_allreduce_1d(8, 16, collectives::RingMapping::Simple)
                .colors_used(),
            6u);
  EXPECT_LE(collectives::make_allreduce_2d_xy(ReduceAlgo::TwoPhase, {8, 8}, 8)
                .colors_used(),
            10u);
}

}  // namespace
}  // namespace wsr::wse
