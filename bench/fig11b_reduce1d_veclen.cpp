// Figure 11b: 1D Reduce on a row of 512 PEs, vector length 4 B .. 16 KB,
// all five patterns, measured vs predicted. Headline: Auto-Gen outperforms
// the vendor Chain by up to 3.16x.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig11b_reduce1d_veclen");
  const MachineParams mp;
  const u32 P = 512;
  const runtime::Planner planner(P, mp);
  // Fill the DP table once, outside the cells.
  const autogen::AutoGenModel model = planner.autogen_model();
  const auto lens = bench::vec_len_sweep_wavelets(4096);  // 1/3 PE memory

  const ReduceAlgo algos[] = {ReduceAlgo::Star, ReduceAlgo::Chain,
                              ReduceAlgo::Tree, ReduceAlgo::TwoPhase,
                              ReduceAlgo::AutoGen};
  std::vector<bench::Series> series;
  std::vector<std::string> labels;
  for (u32 b : lens) labels.push_back(bench::bytes_label(b));

  // Size every series before enqueuing: cells write into stable slots.
  for (ReduceAlgo a : algos) {
    series.push_back(
        {a == ReduceAlgo::Chain ? "Chain (vendor)" : name(a),
         std::vector<bench::Measurement>(lens.size())});
  }
  for (std::size_t ai = 0; ai < std::size(algos); ++ai) {
    const ReduceAlgo a = algos[ai];
    for (std::size_t i = 0; i < lens.size(); ++i) {
      const u32 b = lens[i];
      bench.runner().cell(&series[ai].points[i], [=, &planner, &model] {
        const i64 pred =
            planner.predict({runtime::Collective::Reduce, {P, 1}, b, name(a)})
                .cycles;
        const i64 meas = bench::measured_cycles(
            collectives::make_reduce_1d(a, P, b, &model),
            pred);
        return bench::Measurement{meas, pred};
      });
    }
  }
  bench.runner().run();

  bench.figure("Fig 11b: 1D Reduce, 512x1 PEs, vector length sweep", "bytes",
               labels, series, mp);

  double best_speedup = 0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    best_speedup = std::max(
        best_speedup, static_cast<double>(series[1].points[i].measured) /
                          static_cast<double>(series[4].points[i].measured));
  }
  bench.headline("Auto-Gen over vendor Chain (measured, max over B)",
                 best_speedup, 3.16);
  std::printf("paper: model mean relative error 12%%-35%% per pattern\n");
  return bench.finish();
}
