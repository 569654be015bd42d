// Figure 8: which fixed 1D AllReduce algorithm the model predicts to be best
// for each (vector length, PE count), and its speedup over the vendor
// baseline (Chain + Broadcast). Purely analytic.
//
// Each cell reads the planner's candidate table (the registry's 1D AllReduce
// family) without its Auto-Gen row, so a newly registered fixed algorithm
// appears in this region map automatically.
#include <cstdio>

#include "harness.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig08_allreduce1d_regions");
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
                               {pes[r], 1}, lens[c], "Chain+Bcast");
        cells[r][c] = {cell.winner, static_cast<double>(cell.vendor_cycles) /
                                        static_cast<double>(cell.cycles)};
      });
    }
  }
  bench.runner().run();

  bench.regions(
      "Fig 8: best fixed 1D AllReduce + speedup over Chain+Bcast (vendor)",
      pes, lens, cells);

  std::printf(
      "\nExpected region structure (paper): Star for scalars, Tree+Bcast for\n"
      "small vectors, Two-Phase+Bcast in the middle, Chain+Bcast for long\n"
      "vectors, Ring only in the large-B / small-P contention band.\n");
  return bench.finish();
}
