// Figure 13b: 2D AllReduce on the full 512x512 grid, vector length sweep.
// X-Y variants by row+column composition; Snake + 2D broadcast on the full
// grid; series whose 1D building block is not constructible at a given B
// (Ring needs B % 512 == 0) are predicted-only there.
// Headline: X-Y Auto-Gen beats the vendor X-Y Chain by up to 2.54x.
//
// The X-Y series enumerate the registry's 1D AllReduce descriptors
// (including non-auto-selectable extensions such as MidRoot), so newly
// registered algorithms appear as "X-Y <name>" series automatically.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "registry/algorithm_registry.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig13b_allreduce2d_veclen");
  const MachineParams mp;
  const GridShape grid{512, 512};
  const runtime::Planner planner(512, mp);
  planner.autogen_model();  // fill the DP table once, outside the cells
  const registry::PlanContext ctx = planner.context();
  const auto lens = bench::vec_len_sweep_wavelets(4096);

  const auto descs = registry::AlgorithmRegistry::instance().query(
      registry::Collective::AllReduce, registry::Dims::OneD);

  std::vector<bench::Series> series;
  std::vector<std::string> labels;
  for (u32 b : lens) labels.push_back(bench::bytes_label(b));

  for (const registry::AlgorithmDescriptor* d : descs) {
    // "Chain+Bcast" composes into the paper's "X-Y Chain" series, "Ring"
    // into "X-Y Ring"; strip the redundant +Bcast suffix for the labels.
    std::string base = d->name;
    if (const auto pos = base.rfind("+Bcast"); pos != std::string::npos) {
      base.erase(pos);
    }
    series.push_back({base == "Chain" ? "X-Y Chain (vendor)" : "X-Y " + base,
                      std::vector<bench::Measurement>(lens.size())});
  }
  series.push_back({"Snake+2D-Bcast", {}});

  for (std::size_t di = 0; di < descs.size(); ++di) {
    const registry::AlgorithmDescriptor* d = descs[di];
    for (std::size_t i = 0; i < lens.size(); ++i) {
      const u32 b = lens[i];
      bench.runner().cell(&series[di].points[i], [=, &ctx] {
        const i64 pred = sequential(d->cost({grid.width, 1}, b, ctx),
                                    d->cost({grid.height, 1}, b, ctx))
                             .cycles;
        i64 meas = -1;
        // Both axis lanes must be constructible (they differ on non-square
        // grids).
        if (d->applicable({grid.width, 1}, b) &&
            d->applicable({grid.height, 1}, b)) {
          meas = bench::xy_composed_cycles(
              [&](u32 n) { return d->build({n, 1}, b, ctx); }, grid);
        }
        return bench::Measurement{meas, pred};
      });
    }
  }

  std::vector<std::pair<GridShape, u32>> snake_points;
  for (u32 b : lens) snake_points.emplace_back(grid, b);
  bench::flow_series_cells(
      bench.runner(), series.back(),
      registry::AlgorithmRegistry::instance().at(
          registry::Collective::AllReduce, registry::Dims::TwoD, "Snake+Bcast"),
      snake_points, ctx);
  bench.runner().run();

  bench.figure("Fig 13b: 2D AllReduce, 512x512 PEs, vector length sweep",
               "bytes", labels, series, mp);

  bench.headline(
      "X-Y Auto-Gen over vendor X-Y Chain (max over B)",
      bench::max_measured_speedup(
          bench::series_by_label(series, "X-Y Chain (vendor)"),
          bench::series_by_label(series, "X-Y AutoGen")),
      2.54);
  return bench.finish();
}
