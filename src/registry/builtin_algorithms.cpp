// Registers every built-in algorithm with the AlgorithmRegistry: the paper's
// fixed 1D patterns (Star/Chain/Tree/TwoPhase), the DP-generated Auto-Gen,
// Ring, the 2D X-Y compositions (including the mixed-axis extension), Snake,
// the flooding broadcasts, the AllGather / ReduceScatter families, and the
// MidRoot / X-Y Ring / Butterfly ablation extensions.
//
// This file is the ONLY place that knows the full algorithm list. The
// per-algorithm `if` below (fixed predict vs. DP model) is the registry's
// internal plumbing; everything above it — the planner's candidate table,
// figures, CLI — is a registry query.
#include <algorithm>
#include <memory>
#include <utility>

#include "autogen/dp.hpp"
#include "collectives/collectives.hpp"
#include "collectives/midroot.hpp"
#include "common/math.hpp"
#include "model/costs1d.hpp"
#include "model/costs2d.hpp"
#include "registry/algorithm_registry.hpp"

namespace wsr::registry {

namespace {

/// 1D Reduce prediction with unified fixed/Auto-Gen dispatch.
Prediction reduce_1d_cost(ReduceAlgo algo, u32 num_pes, u32 vec_len,
                          const PlanContext& ctx) {
  if (algo == ReduceAlgo::AutoGen) {
    return autogen::AutoGenModel(num_pes, ctx.mp).predict(num_pes, vec_len);
  }
  return predict_reduce_1d(algo, num_pes, vec_len, ctx.mp);
}

/// 1D Reduce-then-Broadcast prediction (the planner's AllReduce composition).
Prediction allreduce_1d_cost(ReduceAlgo algo, u32 num_pes, u32 vec_len,
                             const PlanContext& ctx) {
  return sequential(reduce_1d_cost(algo, num_pes, vec_len, ctx),
                    predict_broadcast_1d(num_pes, vec_len, ctx.mp));
}

/// The Auto-Gen view a builder over rows of up to `extent` PEs needs (null
/// for fixed patterns, which never touch the DP table). Callers hand
/// `.get()` to the build call, which the temporary outlives.
std::unique_ptr<const autogen::AutoGenModel> model_for(
    bool generated, u32 extent, const PlanContext& ctx) {
  if (!generated) return nullptr;
  return std::make_unique<const autogen::AutoGenModel>(extent, ctx.mp);
}

bool is_row_of(GridShape g, u32 min_pes) {
  return g.is_row() && g.width >= min_pes;
}

bool is_2d(GridShape g) { return g.width >= 2 && g.height >= 2; }

/// Applicability of the butterfly constructions (collectives/butterfly.cpp):
/// power-of-two rows up to 64 PEs (4*log2(P) colors fit the budget of 24)
/// with an evenly dividing vector.
bool butterfly_applicable(GridShape g, u32 b) {
  return is_row_of(g, 2) && is_pow2(g.width) && g.width <= 64 &&
         b % g.width == 0;
}

/// Worst-case distinct colors of each 1D reduce pattern (collectives.hpp's
/// documented budget).
u32 reduce_1d_colors(ReduceAlgo algo) {
  switch (algo) {
    case ReduceAlgo::Star: return 1;
    case ReduceAlgo::Chain: return 2;
    case ReduceAlgo::Tree: return 1;
    case ReduceAlgo::TwoPhase: return 4;
    case ReduceAlgo::AutoGen: return 2;
  }
  return 4;
}

/// The best per-axis pattern pair for the mixed-axis X-Y Reduce extension.
/// Iteration order (Star, Chain, Tree, TwoPhase, AutoGen; x-major) with a
/// strict comparison pins the historical first-minimum tie-break.
std::pair<ReduceAlgo, ReduceAlgo> best_mixed_pair(GridShape grid, u32 vec_len,
                                                  const PlanContext& ctx) {
  ReduceAlgo bx = ReduceAlgo::Star, by = ReduceAlgo::Star;
  i64 best = INT64_MAX;
  for (ReduceAlgo ax : kReduceAlgos) {
    const i64 cx = reduce_1d_cost(ax, grid.width, vec_len, ctx).cycles;
    for (ReduceAlgo ay : kReduceAlgos) {
      const i64 c =
          cx + reduce_1d_cost(ay, grid.height, vec_len, ctx).cycles;
      if (c < best) {
        best = c;
        bx = ax;
        by = ay;
      }
    }
  }
  return {bx, by};
}

void register_1d(AlgorithmRegistry& reg) {
  // --- Broadcast -----------------------------------------------------------
  reg.register_algorithm({
      .name = "Flood",
      .collective = Collective::Broadcast,
      .dims = Dims::OneD,
      .color_budget = 1,
      .applicable = [](GridShape g, u32) { return is_row_of(g, 2); },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_broadcast_1d(g.width, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_broadcast_1d(g.width, b);
          },
  });

  // --- Reduce + Reduce-then-Broadcast AllReduce, one pair per pattern ------
  for (ReduceAlgo algo : kReduceAlgos) {
    const bool generated = algo == ReduceAlgo::AutoGen;
    AlgorithmDescriptor reduce{
        .name = wsr::name(algo),
        .collective = Collective::Reduce,
        .dims = Dims::OneD,
        .color_budget = reduce_1d_colors(algo),
        .model_generated = generated,
        .applicable = [](GridShape g, u32) { return is_row_of(g, 2); },
        .cost =
            [algo](GridShape g, u32 b, const PlanContext& ctx) {
              return reduce_1d_cost(algo, g.width, b, ctx);
            },
        .build =
            [algo, generated](GridShape g, u32 b, const PlanContext& ctx) {
              return collectives::make_reduce_1d(
                  algo, g.width, b, model_for(generated, g.width, ctx).get());
            },
    };
    if (algo == ReduceAlgo::Star) {
      // Fig. 1 compares against the model-level lower bound, where Star's
      // Eq. (1) synthesis (not the sharper pipeline argument) applies.
      reduce.model_cost = [](GridShape g, u32 b, const PlanContext& ctx) {
        return predict_star_reduce_eq1(g.width, b, ctx.mp);
      };
    }
    reg.register_algorithm(std::move(reduce));

    reg.register_algorithm({
        .name = std::string(wsr::name(algo)) + "+Bcast",
        .collective = Collective::AllReduce,
        .dims = Dims::OneD,
        .color_budget = reduce_1d_colors(algo) + 1,
        .model_generated = generated,
        .applicable = [](GridShape g, u32) { return is_row_of(g, 2); },
        .cost =
            [algo](GridShape g, u32 b, const PlanContext& ctx) {
              return allreduce_1d_cost(algo, g.width, b, ctx);
            },
        .build =
            [algo, generated](GridShape g, u32 b, const PlanContext& ctx) {
              return collectives::make_allreduce_1d(
                  algo, g.width, b, model_for(generated, g.width, ctx).get());
            },
    });
  }

  // --- Ring AllReduce (constructible only when B divides evenly) -----------
  reg.register_algorithm({
      .name = "Ring",
      .collective = Collective::AllReduce,
      .dims = Dims::OneD,
      .color_budget = 6,
      .applicable =
          [](GridShape g, u32 b) { return is_row_of(g, 2) && b % g.width == 0; },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_ring_allreduce(g.width, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_ring_allreduce_1d(
                g.width, b, collectives::RingMapping::Simple);
          },
  });

  // --- MidRoot Chain AllReduce (extension, ablation-only: kept out of
  // model-driven selection so the paper's candidate set stays pinned) -------
  reg.register_algorithm({
      .name = "MidRoot",
      .collective = Collective::AllReduce,
      .dims = Dims::OneD,
      .color_budget = 5,
      .auto_selectable = false,
      .applicable = [](GridShape g, u32) { return is_row_of(g, 2); },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return collectives::predict_midroot_allreduce(g.width, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_allreduce_1d_midroot(g.width, b);
          },
  });

  // --- Butterfly AllReduce (extension, ablation-only like MidRoot: its mesh
  // embedding never beats Ring/Auto-Gen, and keeping it out of model-driven
  // selection keeps the paper's candidate set pinned) -----------------------
  reg.register_algorithm({
      .name = "Butterfly",
      .collective = Collective::AllReduce,
      .dims = Dims::OneD,
      .color_budget = 24,
      .auto_selectable = false,
      .applicable = [](GridShape g, u32 b) { return butterfly_applicable(g, b); },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_butterfly_allreduce(g.width, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_butterfly_allreduce_1d(g.width, b);
          },
  });

  // --- AllGather -----------------------------------------------------------
  reg.register_algorithm({
      .name = "Flood",
      .collective = Collective::AllGather,
      .dims = Dims::OneD,
      .color_budget = 2,
      .applicable = [](GridShape g, u32) { return is_row_of(g, 2); },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_allgather_1d(g.width, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_allgather_1d(g.width, b);
          },
  });

  // --- ReduceScatter -------------------------------------------------------
  reg.register_algorithm({
      .name = "Pipeline",
      .collective = Collective::ReduceScatter,
      .dims = Dims::OneD,
      .color_budget = 4,
      .applicable =
          [](GridShape g, u32 b) { return is_row_of(g, 2) && b % g.width == 0; },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_reduce_scatter_pipeline(g.width, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_reduce_scatter_1d(g.width, b);
          },
  });

  reg.register_algorithm({
      .name = "Halving",
      .collective = Collective::ReduceScatter,
      .dims = Dims::OneD,
      .color_budget = 12,
      .applicable = [](GridShape g, u32 b) { return butterfly_applicable(g, b); },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_reduce_scatter_halving(g.width, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_reduce_scatter_1d_halving(g.width, b);
          },
  });
}

void register_2d(AlgorithmRegistry& reg) {
  // --- Broadcast -----------------------------------------------------------
  reg.register_algorithm({
      .name = "Flood-2D",
      .collective = Collective::Broadcast,
      .dims = Dims::TwoD,
      .color_budget = 1,
      .applicable = [](GridShape g, u32) { return g.num_pes() >= 2; },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_broadcast_2d(g, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_broadcast_2d(g, b);
          },
  });

  // --- X-Y compositions, one Reduce/AllReduce pair per pattern -------------
  for (ReduceAlgo algo : kReduceAlgos) {
    const bool generated = algo == ReduceAlgo::AutoGen;
    reg.register_algorithm({
        .name = std::string("X-Y ") + wsr::name(algo),
        .collective = Collective::Reduce,
        .dims = Dims::TwoD,
        .color_budget = 2 * reduce_1d_colors(algo),
        .model_generated = generated,
        .applicable = [](GridShape g, u32) { return is_2d(g); },
        .cost =
            [algo](GridShape g, u32 b, const PlanContext& ctx) {
              return sequential(reduce_1d_cost(algo, g.width, b, ctx),
                                reduce_1d_cost(algo, g.height, b, ctx));
            },
        .build =
            [algo, generated](GridShape g, u32 b, const PlanContext& ctx) {
              return collectives::make_reduce_2d_xy(
                  algo, g, b,
                  model_for(generated, std::max(g.width, g.height), ctx).get());
            },
    });

    reg.register_algorithm({
        .name = std::string("X-Y ") + wsr::name(algo),
        .collective = Collective::AllReduce,
        .dims = Dims::TwoD,
        .color_budget = 2 * (reduce_1d_colors(algo) + 1),
        .model_generated = generated,
        .applicable = [](GridShape g, u32) { return is_2d(g); },
        .cost =
            [algo](GridShape g, u32 b, const PlanContext& ctx) {
              return sequential(allreduce_1d_cost(algo, g.width, b, ctx),
                                allreduce_1d_cost(algo, g.height, b, ctx));
            },
        .build =
            [algo, generated](GridShape g, u32 b, const PlanContext& ctx) {
              return collectives::make_allreduce_2d_xy(
                  algo, g, b,
                  model_for(generated, std::max(g.width, g.height), ctx).get());
            },
    });
  }

  // --- Snake Reduce and its AllReduce composition --------------------------
  reg.register_algorithm({
      .name = "Snake",
      .collective = Collective::Reduce,
      .dims = Dims::TwoD,
      .color_budget = 2,
      .applicable = [](GridShape g, u32) { return g.num_pes() >= 2; },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_snake_reduce(g, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_reduce_2d_snake(g, b);
          },
  });

  reg.register_algorithm({
      .name = "Snake+Bcast",
      .collective = Collective::AllReduce,
      .dims = Dims::TwoD,
      .color_budget = 3,
      .applicable = [](GridShape g, u32) { return is_2d(g); },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return sequential(predict_snake_reduce(g, b, ctx.mp),
                              predict_broadcast_2d(g, b, ctx.mp));
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_allreduce_2d_snake_bcast(g, b);
          },
  });

  // --- Mixed-axis X-Y Reduce (extension): cost/build internally optimize
  // over per-axis pattern pairs, so one descriptor covers the whole family.
  // Each hook runs the pair sweep itself (30 per-axis predictions): the
  // descriptor is not auto-selectable, so only explicit requests pay it.
  reg.register_algorithm({
      .name = "X-Y Mixed",
      .collective = Collective::Reduce,
      .dims = Dims::TwoD,
      .color_budget = 8,
      .auto_selectable = false,
      .applicable = [](GridShape g, u32) { return is_2d(g); },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            const auto [ax, ay] = best_mixed_pair(g, b, ctx);
            return sequential(reduce_1d_cost(ax, g.width, b, ctx),
                              reduce_1d_cost(ay, g.height, b, ctx));
          },
      .build =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            const auto [ax, ay] = best_mixed_pair(g, b, ctx);
            const bool generated =
                ax == ReduceAlgo::AutoGen || ay == ReduceAlgo::AutoGen;
            return collectives::make_reduce_2d_xy_mixed(
                ax, ay, g, b,
                model_for(generated, std::max(g.width, g.height), ctx).get());
          },
      .display_label =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            const auto [ax, ay] = best_mixed_pair(g, b, ctx);
            return std::string("X-Y ") + wsr::name(ax) + "/" + wsr::name(ay);
          },
  });

  // --- X-Y Ring AllReduce (extension, Fig. 13b's analytic series) ----------
  reg.register_algorithm({
      .name = "X-Y Ring",
      .collective = Collective::AllReduce,
      .dims = Dims::TwoD,
      .color_budget = 16,
      .auto_selectable = false,
      .applicable =
          [](GridShape g, u32 b) {
            return is_2d(g) && b % g.width == 0 && b % g.height == 0;
          },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_xy_ring_allreduce(g, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_allreduce_2d_xy_ring(g, b);
          },
  });

  // --- AllGather: row flood then column flood. Unlike the reductions this
  // handles degenerate 1xH columns (the row phase vanishes), widening the
  // 2D fabric axis to every irregular shape with >= 2 PEs. ------------------
  reg.register_algorithm({
      .name = "X-Y Flood",
      .collective = Collective::AllGather,
      .dims = Dims::TwoD,
      .color_budget = 4,
      .applicable = [](GridShape g, u32) { return g.num_pes() >= 2; },
      .cost =
          [](GridShape g, u32 b, const PlanContext& ctx) {
            return predict_allgather_xy(g, b, ctx.mp);
          },
      .build =
          [](GridShape g, u32 b, const PlanContext&) {
            return collectives::make_allgather_2d(g, b);
          },
  });
}

}  // namespace

void register_builtin_algorithms(AlgorithmRegistry& reg) {
  register_1d(reg);
  register_2d(reg);
}

}  // namespace wsr::registry
