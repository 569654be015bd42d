// Quickstart: plan, inspect and simulate an AllReduce on a row of PEs.
//
//   $ ./examples/quickstart
//
// Walks through the library's main entry points: the model-driven planner,
// the generated schedule (router rules + PE programs), and both simulators.
#include <cstdio>

#include "flowsim/flowsim.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/planner.hpp"
#include "runtime/verify.hpp"

int main() {
  using namespace wsr;

  // 1. A planner for rows/columns of up to 512 PEs on default CS-2
  //    parameters (T_R = 2, 850 MHz, 24 colors). Every algorithm the
  //    planner can pick lives in the AlgorithmRegistry:
  const runtime::Planner planner(512);
  std::printf("registered 1D AllReduce algorithms:");
  for (const registry::AlgorithmDescriptor* d :
       registry::AlgorithmRegistry::instance().query(
           registry::Collective::AllReduce, registry::Dims::OneD)) {
    std::printf(" %s%s", d->name.c_str(), d->auto_selectable ? "" : "*");
  }
  std::printf("   (* = on request only)\n\n");

  // 2. Ask the model which AllReduce to run for 64 PEs and a 1 KB vector.
  const u32 num_pes = 64;
  const u32 vec_len = 256;  // wavelets (f32 elements)
  const runtime::Plan plan = planner.plan(
      {runtime::Collective::AllReduce, {num_pes, 1}, vec_len, ""});
  std::printf("chosen algorithm : %s\n", plan.algorithm.c_str());
  std::printf("predicted cycles : %lld (%.2f us at 850 MHz)\n",
              static_cast<long long>(plan.prediction.cycles),
              planner.machine().cycles_to_us(plan.prediction.cycles));
  std::printf("model terms      : %s\n\n", to_string(plan.prediction.terms).c_str());

  // 3. The compiled schedule is plain data: per-PE programs + router rules.
  std::printf("%s\n", plan.schedule.dump(/*max_pes=*/4).c_str());

  // 4. Execute it on the cycle-level fabric simulator with real payloads and
  //    verify every PE ends up with the elementwise sum.
  const runtime::VerifyResult run = runtime::verify_on_fabric(plan.schedule);
  std::printf("fabric simulator : %lld cycles, results %s\n",
              static_cast<long long>(run.cycles), run.ok ? "correct" : "WRONG");
  std::printf("measured energy  : %lld wavelet-hops, contention %lld\n",
              static_cast<long long>(run.wavelet_hops),
              static_cast<long long>(run.max_ramp_wavelets));

  // 5. The flow-level simulator gives the same answer and scales to the
  //    full wafer.
  std::printf("flow simulator   : %lld cycles\n",
              static_cast<long long>(flowsim::run_flow(plan.schedule).cycles));

  // 6. And the lower bound tells us how much headroom is left.
  std::printf("reduce lower bnd : %.0f cycles\n",
              planner.reduce_1d_lower_bound(num_pes, vec_len));
  return run.ok ? 0 : 1;
}
