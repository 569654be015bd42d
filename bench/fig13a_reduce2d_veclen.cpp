// Figure 13a: 2D Reduce on the full 512x512 grid, vector length sweep.
// X-Y patterns are simulated by composition (one row + one column lane;
// rows are identical and synchronized, identity validated in
// tests/test_flowsim.cpp), the Snake on the full 262,144-PE grid.
// Headline: X-Y Auto-Gen beats the vendor X-Y Chain by up to 3.27x; the
// Snake sits near 2000 us with ~4% error.
//
// The X-Y series enumerate the registry's 1D Reduce descriptors, so a newly
// registered reduce pattern appears as an "X-Y <name>" series automatically.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "registry/algorithm_registry.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig13a_reduce2d_veclen");
  const MachineParams mp;
  const GridShape grid{512, 512};
  const runtime::Planner planner(512, mp);
  planner.autogen_model();  // fill the DP table once, outside the cells
  const registry::PlanContext ctx = planner.context();
  const auto lens = bench::vec_len_sweep_wavelets(4096);

  const auto descs = registry::AlgorithmRegistry::instance().query(
      registry::Collective::Reduce, registry::Dims::OneD);

  std::vector<bench::Series> series;
  std::vector<std::string> labels;
  for (u32 b : lens) labels.push_back(bench::bytes_label(b));

  // Size every series (X-Y per 1D descriptor + Snake) before enqueuing:
  // cells write into stable slots.
  for (const registry::AlgorithmDescriptor* d : descs) {
    series.push_back({d->name == "Chain" ? "X-Y Chain (vendor)"
                                         : std::string("X-Y ") + d->name,
                      std::vector<bench::Measurement>(lens.size())});
  }
  series.push_back({"Snake", {}});

  for (std::size_t di = 0; di < descs.size(); ++di) {
    const registry::AlgorithmDescriptor* d = descs[di];
    for (std::size_t i = 0; i < lens.size(); ++i) {
      const u32 b = lens[i];
      bench.runner().cell(&series[di].points[i], [=, &ctx] {
        const i64 pred = sequential(d->cost({grid.width, 1}, b, ctx),
                                    d->cost({grid.height, 1}, b, ctx))
                             .cycles;
        const i64 meas = bench::xy_composed_cycles(
            [&](u32 n) { return d->build({n, 1}, b, ctx); }, grid);
        return bench::Measurement{meas, pred};
      });
    }
  }

  std::vector<std::pair<GridShape, u32>> snake_points;
  for (u32 b : lens) snake_points.emplace_back(grid, b);
  bench::flow_series_cells(
      bench.runner(), series.back(),
      registry::AlgorithmRegistry::instance().at(registry::Collective::Reduce,
                                                 registry::Dims::TwoD, "Snake"),
      snake_points, ctx);
  bench.runner().run();

  bench.figure("Fig 13a: 2D Reduce, 512x512 PEs, vector length sweep",
               "bytes", labels, series, mp);

  bench.headline(
      "X-Y Auto-Gen over vendor X-Y Chain (max over B)",
      bench::max_measured_speedup(
          bench::series_by_label(series, "X-Y Chain (vendor)"),
          bench::series_by_label(series, "X-Y AutoGen")),
      3.27);
  std::printf("Snake at 16KB: %.0f us (paper: ~2000 us, predictions <= 10%% off)\n",
              mp.cycles_to_us(
                  bench::series_by_label(series, "Snake").points.back().measured));
  return bench.finish();
}
