// GEMV on a PE row: the workload that motivates the paper's 1D case
// (Section 3: "important in its own right for applications such as GEMV").
//
// y = A x with A (m x n) column-partitioned over P PEs: every PE holds n/P
// columns of A and the matching slice of x, computes its local partial
// y_p = A_p x_p, and a Reduce over the row sums the partials into y at the
// root. This example compares the vendor Chain against the model-selected
// algorithm across output sizes, using the fabric simulator as the machine.
#include <cstdio>
#include <vector>

#include "runtime/planner.hpp"
#include "wse/fabric.hpp"

int main() {
  using namespace wsr;
  const u32 P = 64;     // PEs in the row
  const u32 n = 4096;   // matrix columns (n/P per PE)
  const runtime::Planner planner(P);

  std::printf("GEMV y = A x, A is m x %u, column-partitioned over %u PEs\n\n",
              n, P);
  std::printf("%-8s %-12s %10s %12s %10s %8s\n", "m", "algorithm", "cycles",
              "us@850MHz", "chain(cyc)", "speedup");

  for (u32 m : {8u, 64u, 256u, 1024u, 4096u}) {
    // Local compute: each PE produces a length-m partial result. (The
    // on-PE GEMV itself is dense FMA work; this example focuses on the
    // communication phase the paper optimizes.)
    const runtime::Plan plan =
        planner.plan({runtime::Collective::Reduce, {P, 1}, m, ""});
    const runtime::Plan chain =
        planner.plan({runtime::Collective::Reduce, {P, 1}, m, "Chain"});

    // Execute the chosen plan with real data: PE p's partial y is
    // y_p[i] = p + i (integer-valued, so the f32 sum is exact).
    wse::FabricSim sim(plan.schedule);
    for (u32 p = 0; p < P; ++p) {
      std::vector<float> partial(m);
      for (u32 i = 0; i < m; ++i) partial[i] = static_cast<float>(p + i % 17);
      sim.set_memory(p, std::move(partial));
    }
    const wse::FabricResult res = sim.run();

    // Verify y at the root.
    bool ok = true;
    for (u32 i = 0; i < m && ok; ++i) {
      float expect = 0;
      for (u32 p = 0; p < P; ++p) expect += static_cast<float>(p + i % 17);
      ok = res.memory[0][i] == expect;
    }

    const wse::FabricResult chain_res = [&] {
      wse::FabricSim csim(chain.schedule);
      for (u32 p = 0; p < P; ++p) {
        std::vector<float> partial(m);
        for (u32 i = 0; i < m; ++i) partial[i] = static_cast<float>(p + i % 17);
        csim.set_memory(p, std::move(partial));
      }
      return csim.run();
    }();

    std::printf("%-8u %-12s %10lld %12.2f %10lld %7.2fx %s\n", m,
                plan.algorithm.c_str(), static_cast<long long>(res.cycles),
                planner.machine().cycles_to_us(res.cycles),
                static_cast<long long>(chain_res.cycles),
                static_cast<double>(chain_res.cycles) /
                    static_cast<double>(res.cycles),
                ok ? "" : "RESULT MISMATCH");
    if (!ok) return 1;
  }
  std::printf(
      "\nNote how the chosen pattern shifts with m: shallow patterns for\n"
      "short outputs, Two-Phase in the middle, Chain for long vectors -\n"
      "matching the paper's Fig. 1 regimes.\n");
  return 0;
}
