// Ablation A3: the two ring mappings of Fig. 7 (simple vs
// distance-preserving). Lemma 6.1 predicts identical cost for both; this
// bench verifies the claim in simulation, and also quantifies how far the
// simulated ring stays behind reduce-then-broadcast (the reason the paper
// "refrains from providing an implementation").
#include <cstdio>
#include <vector>

#include "harness.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "abl_ring_mapping");
  const MachineParams mp;
  const runtime::Planner planner(64, mp);

  struct Row {
    u32 p, b;
    bench::Measurement simple, dp, chainb;
  };
  std::vector<Row> rows;
  for (u32 p : {8u, 16u, 32u, 64u}) {
    for (u32 mult : {4u, 16u, 64u}) rows.push_back({p, p * mult, {}, {}, {}});
  }
  for (Row& row : rows) {
    const u32 p = row.p, b = row.b;
    bench.runner().cell(&row.simple, [p, b, &mp] {
      return bench::Measurement{
          bench::fabric_cycles(collectives::make_ring_allreduce_1d(
              p, b, collectives::RingMapping::Simple)),
          predict_ring_allreduce(p, b, mp).cycles};
    });
    bench.runner().cell(&row.dp, [p, b, &mp] {
      return bench::Measurement{
          bench::fabric_cycles(collectives::make_ring_allreduce_1d(
              p, b, collectives::RingMapping::DistancePreserving)),
          predict_ring_allreduce(p, b, mp).cycles};
    });
    bench.runner().cell(&row.chainb, [p, b, &planner] {
      return bench::Measurement{
          bench::fabric_cycles(
              collectives::make_allreduce_1d(ReduceAlgo::Chain, p, b)),
          planner
              .predict({runtime::Collective::AllReduce, {p, 1}, b,
                        "Chain+Bcast"})
              .cycles};
    });
  }
  bench.runner().run();

  std::printf("=== Ablation: ring mapping (1D AllReduce) ===\n");
  std::printf("%-6s %-8s %12s %12s %12s %12s %10s\n", "P", "B", "simple",
              "dist-pres", "predicted", "Chain+Bcast", "ring/best");
  for (const Row& row : rows) {
    std::printf("%-6u %-8s %12lld %12lld %12lld %12lld %9.2fx\n", row.p,
                bench::bytes_label(row.b).c_str(),
                static_cast<long long>(row.simple.measured),
                static_cast<long long>(row.dp.measured),
                static_cast<long long>(row.simple.predicted),
                static_cast<long long>(row.chainb.measured),
                static_cast<double>(std::min(row.simple.measured,
                                             row.dp.measured)) /
                    static_cast<double>(row.chainb.measured));
  }
  std::printf(
      "\nExpected: the two mappings agree within a few percent (Lemma 6.1\n"
      "gives them identical cost) and the ring only approaches Chain+Bcast\n"
      "in the contention-bound large-B band.\n");
  return bench.finish();
}
