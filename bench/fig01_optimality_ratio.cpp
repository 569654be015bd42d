// Figure 1: optimality ratios of 1D Reduce algorithms against the lower
// bound of Section 5.6 (1.0 = optimal). One heatmap per registered 1D Reduce
// algorithm over PE count x vector length, as the paper's Fig. 1a-e. Purely
// analytic.
//
// The algorithm list is a registry enumeration: registering a new 1D Reduce
// descriptor adds its heatmap here automatically. Each descriptor's
// lower-bound-comparable cost is used (Star overrides its sharper runtime
// prediction with the pure Eq. (1) synthesis, exactly as the paper's figure).
#include <algorithm>
#include <cstdio>
#include <map>

#include "autogen/lower_bound.hpp"
#include "harness.hpp"
#include "registry/algorithm_registry.hpp"

using namespace wsr;

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "fig01_optimality_ratio");
  const MachineParams mp;
  const autogen::LowerBound lb(512);
  const runtime::Planner planner(512, mp);
  planner.autogen_model();  // fill the DP table once, outside the cells
  const registry::PlanContext ctx = planner.context();
  const auto pes = bench::pe_sweep();
  const auto lens = bench::vec_len_sweep_wavelets(8192);

  // The paper's reported worst-case ratios (Fig. 1a-e) for the headline.
  const std::map<std::string, double> paper = {{"Star", 371.8},
                                               {"Chain", 5.9},
                                               {"Tree", 6.7},
                                               {"TwoPhase", 2.4},
                                               {"AutoGen", 1.4}};

  const auto algos = registry::AlgorithmRegistry::instance().query(
      registry::Collective::Reduce, registry::Dims::OneD);

  // One ratio matrix per algorithm, every cell an independent sweep task.
  std::vector<std::vector<std::vector<double>>> ratios(
      algos.size(), std::vector<std::vector<double>>(
                        pes.size(), std::vector<double>(lens.size())));
  for (std::size_t ai = 0; ai < algos.size(); ++ai) {
    for (std::size_t r = 0; r < pes.size(); ++r) {
      for (std::size_t c = 0; c < lens.size(); ++c) {
        bench.runner().task([&, ai, r, c] {
          const registry::AlgorithmDescriptor& d = *algos[ai];
          const double cycles = static_cast<double>(
              d.lower_bound_comparable_cost({pes[r], 1}, lens[c], ctx).cycles);
          ratios[ai][r][c] = cycles / lb.cycles(pes[r], lens[c], mp);
        });
      }
    }
  }
  bench.runner().run();

  std::vector<double> worst(algos.size(), 0.0);
  for (std::size_t ai = 0; ai < algos.size(); ++ai) {
    for (const auto& row : ratios[ai]) {
      for (double v : row) worst[ai] = std::max(worst[ai], v);
    }
    bench.heatmap("Fig 1: " + algos[ai]->name +
                      " optimality ratio (1.0 = optimal)",
                  pes, lens, ratios[ai]);
  }

  std::printf("\nWorst-case ratio over the sweep:\n");
  for (std::size_t i = 0; i < algos.size(); ++i) {
    const auto it = paper.find(algos[i]->name);
    if (it != paper.end()) {
      std::printf("  %-10s %7.1fx   (paper: <= %.1fx)\n",
                  algos[i]->name.c_str(), worst[i], it->second);
    } else {
      std::printf("  %-10s %7.1fx\n", algos[i]->name.c_str(), worst[i]);
    }
  }
  return bench.finish();
}
