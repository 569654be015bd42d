// Figure 12c: 1D AllReduce with a fixed 1 KB vector and increasing PE count.
// Includes the predicted Ring series: for P = 4 ring is marginally ahead,
// beyond 8 PEs reduce-then-broadcast wins by up to ~1.4x (multicast pays).
#include <cstdio>

#include "harness.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig12c_allreduce1d_pes");
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
    series.push_back({a == ReduceAlgo::Chain
                          ? "Chain+Bcast (vendor)"
                          : std::string(name(a)) + "+Bcast",
                      std::vector<bench::Measurement>(pes.size())});
  }
  for (std::size_t ai = 0; ai < std::size(algos); ++ai) {
    const ReduceAlgo a = algos[ai];
    for (std::size_t i = 0; i < pes.size(); ++i) {
      const u32 p = pes[i];
      bench.runner().cell(&series[ai].points[i], [=, &planner, &model] {
        const i64 pred = planner
                             .predict({runtime::Collective::AllReduce,
                                       {p, 1},
                                       B,
                                       std::string(name(a)) + "+Bcast"})
                             .cycles;
        const i64 meas = bench::measured_cycles(
            collectives::make_allreduce_1d(a, p, B, &model),
            pred);
        return bench::Measurement{meas, pred};
      });
    }
  }
  bench.runner().run();

  bench::Series ring{"Ring (predicted)", {}};
  for (u32 p : pes) {
    ring.points.push_back({-1, predict_ring_allreduce(p, B, mp).cycles});
  }
  series.push_back(std::move(ring));

  bench.figure("Fig 12c: 1D AllReduce, 1KB vector, PE count sweep", "PEs",
               labels, series, mp);

  // The ring-vs-best gap at larger P (paper: up to ~1.4x).
  double worst_gap = 0;
  for (std::size_t i = 2; i < pes.size(); ++i) {
    i64 best = INT64_MAX;
    for (std::size_t a = 0; a < 5; ++a) {
      best = std::min(best, series[a].points[i].predicted);
    }
    worst_gap = std::max(worst_gap,
                         static_cast<double>(series[5].points[i].predicted) /
                             static_cast<double>(best));
  }
  bench.headline("Reduce+Bcast over Ring for P >= 16 (predicted, max)",
                 worst_gap, 1.4);
  return bench.finish();
}
