// Ablation A4 (extension): optimal-root placement for Reduce-then-Broadcast
// (paper Section 6.1's remark). Rooting the chain in the middle of the row
// halves distance and depth of both phases at the cost of 2B contention at
// the root; this bench quantifies the crossover against the end-rooted
// vendor Chain+Bcast.
#include <cstdio>
#include <vector>

#include "collectives/midroot.hpp"
#include "harness.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "abl_mid_root");
  const MachineParams mp;
  const runtime::Planner planner(512, mp);
  const std::vector<u32> ps = {16, 64, 256, 512};
  const std::vector<u32> bs = {1, 16, 256, 4096};

  struct Row {
    u32 p, b;
    bench::Measurement end, mid;
  };
  std::vector<Row> rows;
  for (u32 p : ps) {
    for (u32 b : bs) rows.push_back({p, b, {}, {}});
  }
  for (Row& row : rows) {
    const u32 p = row.p, b = row.b;
    bench.runner().cell(&row.end, [p, b, &planner] {
      const i64 pred =
          planner
              .predict({runtime::Collective::AllReduce, {p, 1}, b,
                        "Chain+Bcast"})
              .cycles;
      return bench::Measurement{
          bench::measured_cycles(
              collectives::make_allreduce_1d(ReduceAlgo::Chain, p, b), pred),
          pred};
    });
    bench.runner().cell(&row.mid, [p, b, &mp] {
      const i64 pred = collectives::predict_midroot_allreduce(p, b, mp).cycles;
      return bench::Measurement{
          bench::measured_cycles(
              collectives::make_allreduce_1d_midroot(p, b), pred),
          pred};
    });
  }
  bench.runner().run();

  std::printf("=== Ablation: mid-row root vs end root (Chain AllReduce) ===\n");
  std::printf("%-6s %-8s %12s %12s %10s %14s\n", "P", "B", "end-root",
              "mid-root", "speedup", "model-speedup");
  for (const Row& row : rows) {
    std::printf("%-6u %-8s %12lld %12lld %9.2fx %13.2fx\n", row.p,
                bench::bytes_label(row.b).c_str(),
                static_cast<long long>(row.end.measured),
                static_cast<long long>(row.mid.measured),
                static_cast<double>(row.end.measured) /
                    static_cast<double>(row.mid.measured),
                static_cast<double>(row.end.predicted) /
                    static_cast<double>(row.mid.predicted));
  }
  std::printf(
      "\nExpected: ~2x in the latency-bound regime (small B), converging to\n"
      "1x as contention dominates (the mid root drains both half rows).\n"
      "This is the optimization Jacquelin et al.'s stencil uses, captured\n"
      "by the same model.\n");
  return bench.finish();
}
