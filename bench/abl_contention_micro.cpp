// Contention micro cells: the FabricSim shapes whose wall time is bound by
// the moving-chain resolve path — a busy-root Star incast (the back-to-back
// serving shape: plan N's broadcast egress overlapping plan N+1's inbound
// reduce), plain 512-PE Star incasts, and a 512-PE chain control cell.
//
// bench/micro_machinery.cpp (google-benchmark) carries the same cells with
// per-mode comparisons; this binary exists so the *CI trend gate* covers
// them: it runs on the sweep harness, emits the standard --json report, and
// tools/bench_trend.py fails the perf job when its wall time regresses
// (alongside fig13b and fig11b). These are exactly the cells the
// structure-of-arrays fabric layout (DESIGN.md §3) is measured on, so a
// regression on the resolve path shows up here first.
//
// All cells run the default Simd engine — what every test, bench and
// serving-path verification uses.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "model/costs1d.hpp"

using namespace wsr;

namespace {

i64 simulate(const wse::Schedule& s) {
  const auto inputs = wse::make_inputs(s, runtime::canonical_input);
  return wse::run_fabric(s, inputs).cycles;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "abl_contention_micro");
  const MachineParams mp;
  const u32 P = 512;

  // Star incasts and the chain control, measured vs the closed-form model.
  const std::vector<u32> bs = {16, 64};
  bench::Series star{"Star incast", std::vector<bench::Measurement>(bs.size())};
  bench::Series chain{"Chain", std::vector<bench::Measurement>(bs.size())};
  for (u32 i = 0; i < bs.size(); ++i) {
    const u32 b = bs[i];
    bench.runner().cell(&star.points[i], [b, &mp] {
      return bench::Measurement{
          simulate(collectives::make_reduce_1d(ReduceAlgo::Star, P, b)),
          predict_star_reduce(P, b, mp).cycles};
    });
    bench.runner().cell(&chain.points[i], [b, &mp] {
      return bench::Measurement{
          simulate(collectives::make_reduce_1d(ReduceAlgo::Chain, P, b)),
          predict_chain_reduce(P, b, mp).cycles};
    });
  }

  // The busy-root incast: the whole incast line parks behind the root.
  // First-order prediction: the root's egress stream serializes before the
  // incast drain, and the root consumes at most one wavelet per cycle, so
  // T ~ busy_sends * B (egress) + (P-1) * B (serialized ingress); ramp
  // latency and pipeline fill are lower-order. Good to a few percent —
  // enough for the trend gate's measured-cycles drift warning to bite.
  const u32 busy_b = 16, busy_sends = 2048;
  bench::Series busy{"Busy-root incast", std::vector<bench::Measurement>(1)};
  bench.runner().cell(&busy.points[0], [busy_b, busy_sends] {
    const wse::Schedule s = bench::make_busy_root_star(P, busy_b, busy_sends);
    const auto inputs = bench::busy_root_star_inputs(s, busy_b, busy_sends);
    const i64 measured = wse::run_fabric(s, inputs).cycles;
    const i64 predicted =
        i64{busy_sends} * busy_b + i64{P - 1} * busy_b;
    return bench::Measurement{measured, predicted};
  });

  bench.runner().run();

  bench.figure("Contention micro cells (512 PEs, subscription engine)",
               "B (wavelets)", {"16", "64"}, {star, chain}, mp);
  bench.figure("Busy-root incast (B=16, busy_sends=2048)", "cell", {"512"},
               {busy}, mp);
  return bench.finish();
}
