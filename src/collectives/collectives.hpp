// Top-level constructors: one call per paper algorithm, returning a complete
// validated Schedule ready for simulation.
//
// Color budget (out of the 24 the hardware provides):
//   * 1D Reduce: <= 4 colors (Chain 2, Two-Phase 4, Star/Tree/Auto-Gen 1),
//   * 1D AllReduce: reduce colors + 1 broadcast color,
//   * Ring: <= 6 (edge conflict classes),
//   * 2D X-Y compositions: row colors 0-4, column colors 5-9, broadcast 10.
#pragma once

#include "autogen/dp.hpp"
#include "collectives/builder.hpp"
#include "collectives/ring.hpp"
#include "model/algorithms.hpp"

namespace wsr::collectives {

/// Appends the 1D reduce pattern `algo` onto `lane` on colors from `base`
/// up: the one lane dispatch of every Reduce, +Bcast and X-Y composition.
/// AutoGen asserts a `model` (the DP tables of the caller's machine);
/// `two_phase_group` = 0 uses sqrt(P).
Deps build_reduce(Schedule& s, const Lane& lane, ReduceAlgo algo,
                  const autogen::AutoGenModel* model, Color base,
                  const Deps& after, u32 two_phase_group = 0);

// --- 1D (grid = {P, 1}, root = leftmost PE) --------------------------------

Schedule make_broadcast_1d(u32 num_pes, u32 vec_len);

/// `model` is required for ReduceAlgo::AutoGen (asserted; it owns the DP
/// tables). `two_phase_group` = 0 uses sqrt(P).
Schedule make_reduce_1d(ReduceAlgo algo, u32 num_pes, u32 vec_len,
                        const autogen::AutoGenModel* model = nullptr,
                        u32 two_phase_group = 0);

/// Reduce-then-Broadcast AllReduce.
Schedule make_allreduce_1d(ReduceAlgo algo, u32 num_pes, u32 vec_len,
                           const autogen::AutoGenModel* model = nullptr);

Schedule make_ring_allreduce_1d(u32 num_pes, u32 vec_len, RingMapping mapping);

/// Butterfly (recursive halving + doubling) AllReduce. Requires P a power of
/// two <= 64 (4*log2(P) colors) and vec_len % P == 0.
Schedule make_butterfly_allreduce_1d(u32 num_pes, u32 vec_len);

// --- AllGather / ReduceScatter ---------------------------------------------
// AllGather: PE r contributes vec_len words at [r*B, (r+1)*B) of its
// mem_words = P*B memory and ends holding all P chunks in rank order.
// ReduceScatter: every PE contributes a full vec_len vector; PE r ends with
// chunk r (vec_len/P words at [r*c, (r+1)*c)) of the elementwise sum.

/// Bidirectional flood AllGather on a row; any P >= 2.
Schedule make_allgather_1d(u32 num_pes, u32 vec_len);

/// X-Y flood AllGather (row flood, then column flood of row blocks); any
/// grid with >= 2 PEs, including 1xH and Wx1.
Schedule make_allgather_2d(GridShape grid, u32 vec_len);

/// Two opposing Recv-Reduce-Send pipelines; any P >= 2, vec_len % P == 0.
Schedule make_reduce_scatter_1d(u32 num_pes, u32 vec_len);

/// Recursive-halving ReduceScatter (the butterfly's first phase); P a power
/// of two <= 64, vec_len % P == 0.
Schedule make_reduce_scatter_1d_halving(u32 num_pes, u32 vec_len);

// --- 2D (root = PE (0,0), the top-left corner) ------------------------------

Schedule make_broadcast_2d(GridShape grid, u32 vec_len);

/// X-Y Reduce: `algo` along every row towards column 0, then along column 0.
Schedule make_reduce_2d_xy(ReduceAlgo algo, GridShape grid, u32 vec_len,
                           const autogen::AutoGenModel* model = nullptr);

/// X-Y Reduce with independent per-axis patterns (our extension of the
/// paper's "X-Y <Algo>", which uses the same pattern on both axes; strongly
/// rectangular grids profit from mixing - see bench/abl_mixed_xy).
Schedule make_reduce_2d_xy_mixed(ReduceAlgo algo_x, ReduceAlgo algo_y,
                                 GridShape grid, u32 vec_len,
                                 const autogen::AutoGenModel* model = nullptr);

/// Snake Reduce: chain over the boustrophedon path.
Schedule make_reduce_2d_snake(GridShape grid, u32 vec_len);

/// X-Y AllReduce: (reduce+bcast) along every row, then along every column.
Schedule make_allreduce_2d_xy(ReduceAlgo algo, GridShape grid, u32 vec_len,
                              const autogen::AutoGenModel* model = nullptr);

/// X-Y Ring AllReduce: ring along every row, then along every column.
Schedule make_allreduce_2d_xy_ring(GridShape grid, u32 vec_len);

/// Snake Reduce to (0,0) followed by the 2D flooding broadcast.
Schedule make_allreduce_2d_snake_bcast(GridShape grid, u32 vec_len);

}  // namespace wsr::collectives
