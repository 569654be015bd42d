// Figure 11c: 1D AllReduce on a row of 512 PEs, vector length sweep.
// Reduce-then-Broadcast variants measured + predicted; Ring and Butterfly
// predicted-only (the paper refrains from implementing them after the model
// rules them out; we additionally simulate Ring where B % P == 0 in the
// abl_ring_mapping bench). Headline: Auto-Gen+Bcast is up to 2.47x faster
// than the vendor Chain+Bcast.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig11c_allreduce1d_veclen");
  const MachineParams mp;
  const u32 P = 512;
  const runtime::Planner planner(P, mp);
  // Fill the DP table once, outside the cells.
  const autogen::AutoGenModel model = planner.autogen_model();
  const auto lens = bench::vec_len_sweep_wavelets(4096);

  const ReduceAlgo algos[] = {ReduceAlgo::Star, ReduceAlgo::Chain,
                              ReduceAlgo::Tree, ReduceAlgo::TwoPhase,
                              ReduceAlgo::AutoGen};
  std::vector<bench::Series> series;
  std::vector<std::string> labels;
  for (u32 b : lens) labels.push_back(bench::bytes_label(b));

  for (ReduceAlgo a : algos) {
    series.push_back({a == ReduceAlgo::Chain
                          ? "Chain+Bcast (vendor)"
                          : std::string(name(a)) + "+Bcast",
                      std::vector<bench::Measurement>(lens.size())});
  }
  for (std::size_t ai = 0; ai < std::size(algos); ++ai) {
    const ReduceAlgo a = algos[ai];
    for (std::size_t i = 0; i < lens.size(); ++i) {
      const u32 b = lens[i];
      bench.runner().cell(&series[ai].points[i], [=, &planner, &model] {
        const i64 pred = planner
                             .predict({runtime::Collective::AllReduce,
                                       {P, 1},
                                       b,
                                       std::string(name(a)) + "+Bcast"})
                             .cycles;
        const i64 meas = bench::measured_cycles(
            collectives::make_allreduce_1d(a, P, b, &model),
            pred);
        return bench::Measurement{meas, pred};
      });
    }
  }
  bench.runner().run();

  // Predicted-only series, as in the paper's figure.
  bench::Series ring{"Ring (predicted)", {}};
  bench::Series butterfly{"Butterfly (predicted)", {}};
  for (u32 b : lens) {
    ring.points.push_back({-1, predict_ring_allreduce(P, b, mp).cycles});
    butterfly.points.push_back(
        {-1, predict_butterfly_allreduce(P, b, mp).cycles});
  }
  series.push_back(std::move(ring));
  series.push_back(std::move(butterfly));

  bench.figure("Fig 11c: 1D AllReduce, 512x1 PEs, vector length sweep",
               "bytes", labels, series, mp);

  double best_speedup = 0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    best_speedup = std::max(
        best_speedup, static_cast<double>(series[1].points[i].measured) /
                          static_cast<double>(series[4].points[i].measured));
  }
  bench.headline("Auto-Gen+Bcast over vendor Chain+Bcast (measured, max over B)",
                 best_speedup, 2.47);
  std::printf(
      "paper: even with 15%% model error, Ring is never the best choice\n");
  return bench.finish();
}
