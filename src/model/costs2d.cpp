#include "model/costs2d.hpp"

#include <algorithm>

#include "common/math.hpp"

namespace wsr {

Prediction predict_broadcast_2d(GridShape grid, u32 vec_len,
                                const MachineParams& mp) {
  WSR_ASSERT(grid.num_pes() >= 2 && vec_len >= 1, "bcast2d needs P >= 2");
  const i64 M = grid.height, N = grid.width, B = vec_len;
  const i64 P = M * N;
  CostTerms t;
  t.depth = 1;
  t.distance = M + N - 2;
  t.energy = B * (P - 1);
  t.contention = B;
  t.links = P - 1;
  // Eq. (1) gives the lemma's T = B + M + N - 2 + 2*T_R + 1.
  return Prediction(t, mp);
}

Prediction predict_snake_reduce(GridShape grid, u32 vec_len,
                                const MachineParams& mp) {
  const u64 pes = grid.num_pes();
  WSR_ASSERT(pes >= 2, "snake needs >= 2 PEs");
  return predict_chain_reduce(static_cast<u32>(pes), vec_len, mp);
}

Prediction predict_xy_ring_allreduce(GridShape grid, u32 vec_len,
                                     const MachineParams& mp) {
  WSR_ASSERT(grid.width >= 2 && grid.height >= 2, "xy ring needs a 2D grid");
  const Prediction row = predict_ring_allreduce(grid.width, vec_len, mp);
  const Prediction col = predict_ring_allreduce(grid.height, vec_len, mp);
  return sequential(row, col);
}

Prediction predict_allgather_xy(GridShape grid, u32 vec_len,
                                const MachineParams& mp) {
  WSR_ASSERT(grid.num_pes() >= 2 && vec_len >= 1,
             "allgather needs >= 2 PEs, B >= 1");
  const i64 W = grid.width, H = grid.height, B = vec_len;
  CostTerms t;
  t.depth = (W > 1 ? 1 : 0) + (H > 1 ? 1 : 0);
  t.distance = (W - 1) + (H - 1);
  // Row phase moves each chunk to W-1 row peers on H rows; the column phase
  // moves each W*B row block to H-1 column peers on W columns.
  t.energy = H * B * W * (W - 1) + W * (W * B) * H * (H - 1);
  t.contention = (W > 1 ? (W + 1) * B : 0) + (H > 1 ? (H + 1) * W * B : 0);
  t.links = 2 * (W - 1) * H + 2 * (H - 1) * W;
  // Each phase is ingress-bound like the 1D flood; the phases barrier on
  // the row block being assembled.
  i64 cycles = 0;
  if (W > 1) cycles += (W - 1) * B + W + 2 * mp.ramp_latency + 2;
  if (H > 1) cycles += (H - 1) * W * B + H + 2 * mp.ramp_latency + 2;
  return Prediction(t, cycles);
}

i64 lower_bound_2d_reduce_cycles(GridShape grid, u32 vec_len,
                                 const MachineParams& mp) {
  const i64 M = grid.height, N = grid.width, B = vec_len;
  // Lemma 7.2: contention >= B at the root; energy >= P*B over at most 8P
  // directed link-ends; distance >= M + N - 1 corner-to-corner (the paper
  // counts the root's own hop); depth >= 1.
  return std::max<i64>(B, B / 8 + M + N - 1) + mp.per_depth_cycles();
}

}  // namespace wsr
