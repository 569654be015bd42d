// Simd stepping-mode plane geometry: the bitmask planes index registers by
// global key, 64 per word, so the interesting fabrics are the ones whose
// register count exercises partial words — totals below one word, one bit
// into a new word, one bit short of a word boundary — plus rectangular grids
// whose per-PE register spans make the key space deliberately lumpy. The
// exhaustive parity contract, degraded fabrics included, lives in
// tests/test_fabric_parity.cpp.
#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "runtime/verify.hpp"
#include "wse/fabric.hpp"
#include "wse/layout.hpp"

namespace wsr {
namespace {

wse::FabricResult run_mode(const wse::Schedule& s, wse::SteppingMode mode) {
  const auto inputs = wse::make_inputs(s, runtime::canonical_input);
  wse::FabricOptions opt;
  opt.stepping = mode;
  return wse::run_fabric(s, inputs, opt);
}

void expect_simd_matches_fullscan(const wse::Schedule& s) {
  const wse::FabricResult base = run_mode(s, wse::SteppingMode::FullScan);
  const wse::FabricResult simd = run_mode(s, wse::SteppingMode::Simd);
  EXPECT_EQ(simd.cycles, base.cycles) << s.name;
  EXPECT_EQ(simd.wavelet_hops, base.wavelet_hops) << s.name;
  EXPECT_EQ(simd.max_pe_ramp_wavelets, base.max_pe_ramp_wavelets) << s.name;
  ASSERT_EQ(simd.op_done_cycle, base.op_done_cycle) << s.name;
  ASSERT_EQ(simd.memory, base.memory) << s.name;
}

// Register totals around the 64-bit word boundaries: a plane smaller than
// one word, exactly full words, and one register into a fresh word. The PE
// counts are chosen so the star incast's register total lands on both sides
// of several word edges (each PE contributes num_dirs * num_colors keys, so
// odd P values produce totals with every possible `total % 64`).
TEST(FabricSimd, EdgeWordRegisterTotals) {
  for (u32 p : {2u, 3u, 31u, 32u, 33u, 63u, 64u, 65u, 127u, 129u}) {
    const wse::Schedule s =
        collectives::make_reduce_1d(ReduceAlgo::Star, p, 8);
    const wse::FabricLayout layout(s);
    // The plane must cover every key and waste less than one word.
    ASSERT_GE(layout.plane_words() * 64, layout.total_regs());
    ASSERT_LT(layout.plane_words() * 64 - layout.total_regs(), 64u);
    expect_simd_matches_fullscan(s);
  }
}

// Sub-word plane: the whole fabric fits in a fraction of one u64, so the
// walk's lo/hi watermarks, the struct-No mask and the final partial word
// are all the same word.
TEST(FabricSimd, SingleWordPlane) {
  const wse::Schedule s = collectives::make_broadcast_1d(2, 4);
  const wse::FabricLayout layout(s);
  ASSERT_EQ(layout.plane_words(), 1u);
  expect_simd_matches_fullscan(s);
}

// Rectangular and degenerate grids: rows of different parity, a single
// column and a single row. 2D XY reductions give every PE an asymmetric
// (dir, color) register span, so word boundaries fall mid-PE.
TEST(FabricSimd, RectangularGrids) {
  for (GridShape g : {GridShape{5, 3}, GridShape{3, 5}, GridShape{1, 7},
                      GridShape{7, 1}, GridShape{24, 2}}) {
    expect_simd_matches_fullscan(collectives::make_broadcast_2d(g, 16));
    if (g.width > 1 && g.height > 1) {
      expect_simd_matches_fullscan(
          collectives::make_reduce_2d_xy(ReduceAlgo::Star, g, 16));
    }
  }
}

}  // namespace
}  // namespace wsr
