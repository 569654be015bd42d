// FabricLayout: the index-algebra module both simulators (and the schedule
// validator) share. These tests pin its contracts directly — key round
// trips, the canonical compact-color interning order, neighbour-table
// boundary behaviour, and the offset tables — against brute-force
// recomputation from the Schedule, so a layout bug fails here with a precise
// message instead of as a downstream parity diff.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/midroot.hpp"
#include "wse/layout.hpp"

namespace wsr {
namespace {

using wse::Color;
using wse::FabricLayout;
using wse::Op;
using wse::OpKind;
using wse::RouteRule;
using wse::Schedule;

/// Brute-force reference: the distinct colors of a PE in canonical
/// interning order (rules first, then ops, in_color before out_color).
std::vector<Color> interned_colors(const Schedule& s, u32 pe) {
  std::vector<Color> order;
  auto intern = [&](Color c) {
    for (Color seen : order) {
      if (seen == c) return;
    }
    order.push_back(c);
  };
  for (const RouteRule& r : s.rules[pe]) intern(r.color);
  for (const Op& op : s.programs[pe].ops) {
    if (op.kind != OpKind::Send) intern(op.in_color);
    if (op.kind != OpKind::Recv) intern(op.out_color);
  }
  return order;
}

std::vector<Schedule> sample_schedules() {
  std::vector<Schedule> out;
  out.push_back(collectives::make_reduce_1d(ReduceAlgo::Chain, 7, 8));
  out.push_back(collectives::make_reduce_1d(ReduceAlgo::Star, 16, 4));
  out.push_back(collectives::make_allreduce_1d_midroot(9, 16));
  out.push_back(collectives::make_allreduce_2d_snake_bcast({5, 4}, 8));
  out.push_back(
      collectives::make_reduce_2d_xy(ReduceAlgo::TwoPhase, {4, 3}, 8));
  out.push_back(collectives::make_ring_allreduce_1d(
      6, 12, collectives::RingMapping::DistancePreserving));
  return out;
}

TEST(FabricLayout, CompactColorMappingMatchesBruteForce) {
  for (const Schedule& s : sample_schedules()) {
    const FabricLayout layout(s);
    for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
      const std::vector<Color> expected = interned_colors(s, pe);
      ASSERT_EQ(layout.num_colors(pe), expected.size()) << s.name << " " << pe;
      for (u32 ci = 0; ci < expected.size(); ++ci) {
        // Interning order is canonical and the inverse map agrees.
        EXPECT_EQ(layout.compact_color(pe, expected[ci]),
                  static_cast<i8>(ci))
            << s.name << " PE " << pe;
        EXPECT_EQ(layout.color_id(layout.color_key(pe, ci)), expected[ci]);
      }
      // Colors the PE never touches map to -1.
      for (u32 c = 0; c < FabricLayout::kMaxColorId; ++c) {
        bool used = false;
        for (Color e : expected) used |= (e == c);
        EXPECT_EQ(layout.compact_color(pe, static_cast<Color>(c)) >= 0, used)
            << s.name << " PE " << pe << " color " << c;
      }
    }
  }
}

TEST(FabricLayout, RegisterKeyRoundTrips) {
  for (const Schedule& s : sample_schedules()) {
    const FabricLayout layout(s);
    std::size_t expected_key = 0;
    for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
      EXPECT_EQ(layout.reg_base(pe), expected_key);
      for (u32 dir = 0; dir < kNumDirs; ++dir) {
        for (u32 ci = 0; ci < layout.num_colors(pe); ++ci) {
          const std::size_t key = layout.reg_key(pe, dir, ci);
          // Keys are dense and ascending in (pe, dir, ci) order: exactly
          // the claim-arbitration scan order of the simulator.
          EXPECT_EQ(key, expected_key++);
          EXPECT_EQ(layout.pe_of_reg(key), pe);
          EXPECT_EQ(layout.reg_dir(key), dir);
          EXPECT_EQ(layout.reg_ci(key), ci);
          EXPECT_EQ(layout.reg_color_key(key), layout.color_key(pe, ci));
        }
      }
    }
    EXPECT_EQ(layout.total_regs(), expected_key);
  }
}

TEST(FabricLayout, NeighborTableMatchesGridAtEdges) {
  const GridShape grid{5, 3};
  Schedule s(grid, 4, "geometry");
  const FabricLayout layout(s);
  for (u32 pe = 0; pe < grid.num_pes(); ++pe) {
    const Coord c = grid.coord(pe);
    for (u8 d = 0; d < kNumDirs; ++d) {
      const Dir dir = static_cast<Dir>(d);
      const u32 got = layout.neighbor(pe, d);
      if (dir == Dir::Ramp || !grid.has_neighbor(c, dir)) {
        EXPECT_EQ(got, FabricLayout::kNoNeighbor)
            << "PE(" << c.x << "," << c.y << ") " << dir_name(dir);
      } else {
        EXPECT_EQ(got, grid.pe_id(grid.neighbor(c, dir)))
            << "PE(" << c.x << "," << c.y << ") " << dir_name(dir);
      }
    }
  }
  // Spot-check the corners explicitly: first/last PE of the grid.
  EXPECT_EQ(layout.neighbor(0, Dir::West), FabricLayout::kNoNeighbor);
  EXPECT_EQ(layout.neighbor(0, Dir::North), FabricLayout::kNoNeighbor);
  EXPECT_EQ(layout.neighbor(0, Dir::East), 1u);
  EXPECT_EQ(layout.neighbor(0, Dir::South), grid.width);
  const u32 last = static_cast<u32>(grid.num_pes()) - 1;
  EXPECT_EQ(layout.neighbor(last, Dir::East), FabricLayout::kNoNeighbor);
  EXPECT_EQ(layout.neighbor(last, Dir::South), FabricLayout::kNoNeighbor);
}

TEST(FabricLayout, SpanExtentsMatchBruteForce) {
  for (const Schedule& s : sample_schedules()) {
    const FabricLayout layout(s);
    std::size_t colors = 0, regs = 0, ops = 0;
    for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
      const std::size_t pe_colors = interned_colors(s, pe).size();
      EXPECT_EQ(layout.color_base(pe), colors) << s.name << " PE " << pe;
      EXPECT_EQ(layout.reg_base(pe), regs) << s.name << " PE " << pe;
      EXPECT_EQ(layout.op_base(pe), ops) << s.name << " PE " << pe;
      EXPECT_EQ(layout.num_regs(pe), kNumDirs * pe_colors);
      EXPECT_EQ(layout.num_ops(pe), s.programs[pe].ops.size());
      colors += pe_colors;
      regs += kNumDirs * pe_colors;
      ops += s.programs[pe].ops.size();
    }
    EXPECT_EQ(layout.total_colors(), colors) << s.name;
    EXPECT_EQ(layout.total_regs(), regs) << s.name;
    EXPECT_EQ(layout.total_ops(), ops) << s.name;
    EXPECT_EQ(layout.total_links(), s.grid.num_pes() * kNumDirs) << s.name;
  }
}

TEST(FabricLayout, RuleChainsPreserveActivationOrder) {
  for (const Schedule& s : sample_schedules()) {
    const FabricLayout layout(s);
    for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
      for (u32 ci = 0; ci < layout.num_colors(pe); ++ci) {
        const std::size_t ck = layout.color_key(pe, ci);
        const Color color = layout.color_id(ck);
        // Brute force: the PE's rules of this color, in listed order.
        std::vector<RouteRule> expected;
        for (const RouteRule& r : s.rules[pe]) {
          if (r.color == color) expected.push_back(r);
        }
        const auto got = layout.rules(ck);
        ASSERT_EQ(got.size(), expected.size())
            << s.name << " PE " << pe << " color " << static_cast<u32>(color);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(got[i], expected[i]);
        }
      }
    }
  }
}

TEST(FabricLayout, OutOfRangeColorIdAborts) {
  Schedule s({2, 1}, 4, "bad-color");
  s.program(0).add(Op::send(40, 4));  // color 40 >= kMaxColorId
  s.add_rule(0u, {40, Dir::Ramp, dir_bit(Dir::East), 4});
  // Interning (both simulators' layouts) aborts; validate() reports the
  // id instead (Checks.ColorIdsTheMachineLacksDetected).
  EXPECT_DEATH({ FabricLayout layout(s); }, "color id too large");
}

TEST(FabricLayout, RegisterTablesAreOptional) {
  const Schedule s = collectives::make_reduce_1d(ReduceAlgo::Tree, 8, 4);
  const FabricLayout geometry(
      s, FabricLayout::Options{.register_tables = false});
  const FabricLayout full(s);
  // Extents and keys agree with the full layout; only the inverse tables
  // are skipped (FlowSim constructs wafer-scale layouts and has no
  // register state to index).
  EXPECT_EQ(geometry.total_regs(), full.total_regs());
  EXPECT_EQ(geometry.total_colors(), full.total_colors());
  for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
    EXPECT_EQ(geometry.reg_base(pe), full.reg_base(pe));
    EXPECT_EQ(geometry.color_base(pe), full.color_base(pe));
  }

  // Geometry-only mode (the schedule validator): neighbour/link tables
  // agree with the full layout, the key spaces report empty.
  const FabricLayout geo_only(
      s, FabricLayout::Options{.interning = false});
  EXPECT_EQ(geo_only.total_colors(), 0u);
  EXPECT_EQ(geo_only.total_regs(), 0u);
  EXPECT_EQ(geo_only.total_ops(), 0u);
  for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
    for (u8 d = 0; d < kNumDirs; ++d) {
      EXPECT_EQ(geo_only.neighbor(pe, d), full.neighbor(pe, d));
    }
  }
}

}  // namespace
}  // namespace wsr
