// Figure 12b: 1D Reduce with a fixed 1 KB vector and increasing PE count.
// Chain wins for few PEs (contention-dominated), Two-Phase takes over as
// depth grows, Auto-Gen is fastest throughout (~2.25x over Chain at 512).
#include <algorithm>
#include <cstdio>

#include "harness.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig12b_reduce1d_pes");
  const MachineParams mp;
  const u32 B = 256;  // 1 KB
  const runtime::Planner planner(512, mp);
  // Fill the DP table once, outside the cells.
  const autogen::AutoGenModel model = planner.autogen_model();
  const auto pes = bench::pe_sweep();

  const ReduceAlgo algos[] = {ReduceAlgo::Star, ReduceAlgo::Chain,
                              ReduceAlgo::Tree, ReduceAlgo::TwoPhase,
                              ReduceAlgo::AutoGen};
  std::vector<bench::Series> series;
  std::vector<std::string> labels;
  for (u32 p : pes) labels.push_back(std::to_string(p) + "x1");

  for (ReduceAlgo a : algos) {
    series.push_back({a == ReduceAlgo::Chain ? "Chain (vendor)" : name(a),
                      std::vector<bench::Measurement>(pes.size())});
  }
  for (std::size_t ai = 0; ai < std::size(algos); ++ai) {
    const ReduceAlgo a = algos[ai];
    for (std::size_t i = 0; i < pes.size(); ++i) {
      const u32 p = pes[i];
      bench.runner().cell(&series[ai].points[i], [=, &planner, &model] {
        const i64 pred =
            planner.predict({runtime::Collective::Reduce, {p, 1}, B, name(a)})
                .cycles;
        const i64 meas = bench::measured_cycles(
            collectives::make_reduce_1d(a, p, B, &model),
            pred);
        return bench::Measurement{meas, pred};
      });
    }
  }
  bench.runner().run();

  bench.figure("Fig 12b: 1D Reduce, 1KB vector, PE count sweep", "PEs",
               labels, series, mp);

  const double speedup_512 =
      static_cast<double>(series[1].points.back().measured) /
      static_cast<double>(series[4].points.back().measured);
  bench.headline("Auto-Gen over vendor Chain at 512 PEs (measured)",
                 speedup_512, 2.25);
  std::printf("paper: mean relative error 13%%-28%%\n");
  return bench.finish();
}
