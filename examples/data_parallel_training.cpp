// Data-parallel training step on the 2D grid: the gradient AllReduce.
//
// The motivating ML workload (paper Section 1): every PE holds a gradient
// shard after its local backward pass and all PEs need the summed gradients
// before the optimizer step. This example sizes the AllReduce per layer of a
// small MLP, plans the whole step as one parallel batch through a PlanCache
// (the serving path, since a training run re-requests identical shapes
// every step), simulates the wafer-scale timing with FlowSim, and verifies
// numerics on a small grid with the cycle-level simulator.
#include <cstdio>
#include <vector>

#include "common/parallel.hpp"
#include "flowsim/flowsim.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/planner.hpp"
#include "runtime/verify.hpp"

int main() {
  using namespace wsr;
  const runtime::Planner planner(512);

  struct Layer {
    const char* name;
    u32 grad_wavelets;  // gradient elements this PE contributes per layer
  };
  const Layer layers[] = {
      {"embed", 4096}, {"mlp.fc1", 2048}, {"mlp.fc2", 2048},
      {"norm", 64},    {"head", 1024},
  };

  // --- wafer-scale timing (512x512 PEs, flow-level simulator) --------------
  // One PlanRequest per layer, planned in parallel through a shared cache.
  const GridShape wafer{512, 512};
  std::vector<runtime::PlanRequest> requests;
  for (const Layer& l : layers) {
    requests.push_back(
        {runtime::Collective::AllReduce, wafer, l.grad_wavelets, ""});
  }
  runtime::PlanCache cache;
  std::vector<std::shared_ptr<const runtime::Plan>> plans(requests.size());
  const auto plan_step = [&] {
    parallel_for_index(requests.size(), 0, [&](std::size_t i) {
      plans[i] = cache.get_or_plan(planner, requests[i]);
    });
  };
  plan_step();

  std::printf("Gradient AllReduce on %ux%u PEs (per training step):\n\n",
              wafer.width, wafer.height);
  std::printf("%-10s %-10s %-16s %12s %10s\n", "layer", "grad", "algorithm",
              "cycles", "us");
  double total_us = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Layer& l = layers[i];
    const runtime::Plan& plan = *plans[i];
    const i64 cycles = flowsim::run_flow(plan.schedule).cycles;
    const double us = planner.machine().cycles_to_us(cycles);
    total_us += us;
    std::printf("%-10s %-10s %-16s %12lld %10.1f\n", l.name,
                (std::to_string(l.grad_wavelets * 4 / 1024) + "KB").c_str(),
                plan.algorithm.c_str(), static_cast<long long>(cycles), us);
  }
  std::printf("%-10s %-10s %-16s %12s %10.1f\n\n", "total", "", "", "", total_us);

  // Step 2 of training re-requests the same shapes: all cache hits, the
  // schedules are shared, planning cost drops to hash lookups.
  plan_step();
  std::printf("plan cache after 2 steps: %llu hits, %llu misses, %zu plans\n\n",
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()), cache.size());

  // --- numerics check on a small grid (cycle-level simulator) --------------
  const GridShape small{8, 8};
  bool all_ok = true;
  for (const Layer& l : layers) {
    const runtime::Plan plan = planner.plan(
        {runtime::Collective::AllReduce, small, l.grad_wavelets, ""});
    const runtime::VerifyResult r = runtime::verify_on_fabric(plan.schedule);
    all_ok &= r.ok;
    std::printf("verify %-10s on %ux%u: %s (%lld cycles)\n", l.name,
                small.width, small.height, r.ok ? "exact sum at all PEs" : "FAILED",
                static_cast<long long>(r.cycles));
  }
  std::printf(
      "\nThe planner switches algorithms per layer size - small layers use\n"
      "shallow X-Y patterns, large ones bandwidth-friendly ones - which is\n"
      "exactly the variable-vector-length regime the paper targets.\n");
  return all_ok ? 0 : 1;
}
