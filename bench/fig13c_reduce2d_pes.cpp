// Figure 13c: 2D Reduce with a fixed 1 KB vector over growing square grids
// (4x4 .. 512x512). The Snake wins on small bandwidth-bound grids, then
// X-Y Chain, then X-Y Two-Phase; X-Y Auto-Gen is near-best throughout
// except on 4x4 where the Snake stays ahead.
//
// The X-Y series enumerate the registry's 1D Reduce descriptors, so a newly
// registered reduce pattern appears as an "X-Y <name>" series automatically.
#include <cstdio>

#include "harness.hpp"
#include "registry/algorithm_registry.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig13c_reduce2d_pes");
  const MachineParams mp;
  const u32 B = 256;  // 1 KB
  const runtime::Planner planner(512, mp);
  planner.autogen_model();  // fill the DP table once, outside the cells
  const registry::PlanContext ctx = planner.context();
  const auto pes = bench::pe_sweep();

  const auto descs = registry::AlgorithmRegistry::instance().query(
      registry::Collective::Reduce, registry::Dims::OneD);

  std::vector<bench::Series> series;
  std::vector<std::string> labels;
  for (u32 n : pes) {
    labels.push_back(std::to_string(n) + "x" + std::to_string(n));
  }

  for (const registry::AlgorithmDescriptor* d : descs) {
    series.push_back({d->name == "Chain" ? "X-Y Chain (vendor)"
                                         : std::string("X-Y ") + d->name,
                      std::vector<bench::Measurement>(pes.size())});
  }
  series.push_back({"Snake", {}});

  for (std::size_t di = 0; di < descs.size(); ++di) {
    const registry::AlgorithmDescriptor* d = descs[di];
    for (std::size_t i = 0; i < pes.size(); ++i) {
      const GridShape grid{pes[i], pes[i]};
      bench.runner().cell(&series[di].points[i], [=, &ctx] {
        const i64 pred = sequential(d->cost({grid.width, 1}, B, ctx),
                                    d->cost({grid.height, 1}, B, ctx))
                             .cycles;
        const i64 meas = bench::xy_composed_cycles(
            [&](u32 len) { return d->build({len, 1}, B, ctx); }, grid);
        return bench::Measurement{meas, pred};
      });
    }
  }

  std::vector<std::pair<GridShape, u32>> snake_points;
  for (u32 n : pes) snake_points.emplace_back(GridShape{n, n}, B);
  bench::flow_series_cells(
      bench.runner(), series.back(),
      registry::AlgorithmRegistry::instance().at(registry::Collective::Reduce,
                                                 registry::Dims::TwoD, "Snake"),
      snake_points, ctx);
  bench.runner().run();

  bench.figure("Fig 13c: 2D Reduce, 1KB vector, grid size sweep", "grid",
               labels, series, mp);

  // Report the winner per grid size (the paper's crossover story).
  std::printf("\nBest measured algorithm per grid:\n");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < series.size(); ++s) {
      if (series[s].points[i].measured < series[best].points[i].measured)
        best = s;
    }
    std::printf("  %-8s -> %s\n", labels[i].c_str(),
                series[best].label.c_str());
  }
  std::printf(
      "paper: Snake best on small grids, then X-Y Chain, then X-Y Two-Phase;\n"
      "X-Y Auto-Gen near-best everywhere except 4x4.\n");
  return bench.finish();
}
