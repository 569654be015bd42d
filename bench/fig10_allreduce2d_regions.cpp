// Figure 10: best fixed 2D AllReduce per (vector length, grid size) and its
// speedup over the vendor baseline (X-Y Chain). Square grids up to 512x512.
// Purely analytic.
//
// Each cell reads the planner's candidate table (the registry's 2D AllReduce
// family) without its X-Y AutoGen row, so a newly registered fixed algorithm
// appears in this region map automatically.
#include <cstdio>

#include "harness.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig10_allreduce2d_regions");
  const runtime::Planner planner(512);
  planner.autogen_model();  // build the DP table once, outside the cells
  const auto pes = bench::pe_sweep();
  const auto lens = bench::vec_len_sweep_wavelets(8192);

  std::vector<std::vector<std::pair<std::string, double>>> cells(
      pes.size(), std::vector<std::pair<std::string, double>>(lens.size()));
  for (std::size_t r = 0; r < pes.size(); ++r) {
    for (std::size_t c = 0; c < lens.size(); ++c) {
      bench.runner().task([&, r, c] {
        const bench::RegionCell cell =
            bench::region_cell(planner, runtime::Collective::AllReduce,
                               {pes[r], pes[r]}, lens[c], "X-Y Chain");
        cells[r][c] = {cell.winner, static_cast<double>(cell.vendor_cycles) /
                                        static_cast<double>(cell.cycles)};
      });
    }
  }
  bench.runner().run();

  bench.regions(
      "Fig 10: best fixed 2D AllReduce + speedup over X-Y Chain (vendor); "
      "rows are NxN grids",
      pes, lens, cells);

  std::printf(
      "\nExpected region structure (paper Fig. 10): X-Y Star for scalars,\n"
      "X-Y Tree for small vectors, X-Y Two-Phase in the middle, X-Y Chain\n"
      "for long vectors, and the Snake(+2D broadcast) in the\n"
      "bandwidth-bound small-grid / huge-vector corner.\n");
  return bench.finish();
}
