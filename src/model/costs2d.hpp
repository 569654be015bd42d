// Closed-form model predictions for the 2D collectives (paper Section 7).
//
// Grid convention: `M` rows by `N` columns (paper: M x N = P). The reduction
// root is PE (0, 0), the top-left corner. X-Y patterns reduce along every
// row towards column 0, then along column 0 towards the root; their cost is
// the sum of the two axes' 1D predictions, composed once, in the registry's
// "X-Y <algo>" descriptors (registry/builtin_algorithms.cpp).
#pragma once

#include "common/grid.hpp"
#include "model/costs1d.hpp"

namespace wsr {

/// Lemma 7.1: 2D flooding broadcast from (0,0):
/// T = B + M + N - 2 + 2*T_R + 1.
Prediction predict_broadcast_2d(GridShape grid, u32 vec_len, const MachineParams& mp);

/// Section 7.3: Snake Reduce = chain over a boustrophedon traversal of the
/// whole grid; cost equals the 1D chain on M*N PEs.
Prediction predict_snake_reduce(GridShape grid, u32 vec_len, const MachineParams& mp);

/// X-Y AllReduce built from the Ring AllReduce per axis (Fig. 13b's
/// "X-Y Ring" series).
Prediction predict_xy_ring_allreduce(GridShape grid, u32 vec_len,
                                     const MachineParams& mp);

/// Lemma 7.2: lower bound for any 2D Reduce:
/// T* >= max(B, B/8 + M + N - 1) + 2*T_R + 1.
i64 lower_bound_2d_reduce_cycles(GridShape grid, u32 vec_len, const MachineParams& mp);

/// X-Y flood AllGather (collectives/allgather.cpp): a row flood of B-word
/// chunks, then a column flood of W*B-word row blocks. Works on any grid
/// with >= 2 PEs, including degenerate 1xH / Wx1 shapes (the empty axis
/// contributes nothing).
Prediction predict_allgather_xy(GridShape grid, u32 vec_len,
                                const MachineParams& mp);

}  // namespace wsr
