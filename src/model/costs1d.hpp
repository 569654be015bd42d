// Closed-form model predictions for the 1D collectives (paper Sections 4-6).
//
// All vector lengths `B` are in wavelets (one 32-bit element per wavelet;
// multiply by 4 for bytes). `P` is the number of PEs in the row; the root is
// the leftmost PE. All lemma references are to the paper.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "model/algorithms.hpp"
#include "model/cost.hpp"
#include "model/params.hpp"

namespace wsr {

// --- primitives -----------------------------------------------------------

/// Sending a vector of length B across P consecutive PEs (Section 4.1):
/// T = B + P + 2*T_R. Optimal; also the cost of the flooding Broadcast
/// (Lemma 4.1), since multicast duplicates the stream for free.
Prediction predict_message_1d(u32 num_pes, u32 vec_len, const MachineParams& mp);
Prediction predict_broadcast_1d(u32 num_pes, u32 vec_len, const MachineParams& mp);

// --- Reduce patterns (Section 5) -------------------------------------------

/// Lemma 5.1 + the sharper pipeline argument: T = B(P-1) + 2*T_R + 1.
Prediction predict_star_reduce(u32 num_pes, u32 vec_len, const MachineParams& mp);

/// Star Reduce synthesized purely through Eq. (1) (no pipeline sharpening).
/// The paper's optimality-ratio figure (Fig. 1) and its lower bound live
/// inside the model, where the star's small-B energy term dominates; use
/// this variant when comparing against LowerBound, and the sharper
/// predict_star_reduce for runtime prediction.
Prediction predict_star_reduce_eq1(u32 num_pes, u32 vec_len,
                                   const MachineParams& mp);

/// Lane indices of the Two-Phase group leaders for P PEs and group size S
/// (groups assigned from the far end, paper Section 5.4; the root's group
/// may be smaller). Shared between the model and the schedule builder so
/// that predicted terms match the compiled schedule exactly.
std::vector<u32> two_phase_leaders(u32 num_pes, u32 group_size);

/// Lemma 5.2: T = B + (2*T_R + 2)(P - 1).
Prediction predict_chain_reduce(u32 num_pes, u32 vec_len, const MachineParams& mp);

/// Lemma 5.3 (binary tree, ceil(log2 P) rounds for general P).
Prediction predict_tree_reduce(u32 num_pes, u32 vec_len, const MachineParams& mp);

/// Lemma 5.4, generalized to arbitrary P with group size S (S = 0 picks the
/// paper's default S = round(sqrt(P))).
Prediction predict_two_phase_reduce(u32 num_pes, u32 vec_len, const MachineParams& mp,
                                    u32 group_size = 0);

/// Default group size used by Two-Phase for a given P.
u32 two_phase_default_group(u32 num_pes);

/// Dispatch over the fixed patterns above (AutoGen is handled by
/// autogen::AutoGenModel, which owns the DP table).
Prediction predict_reduce_1d(ReduceAlgo algo, u32 num_pes, u32 vec_len,
                             const MachineParams& mp);

// --- AllReduce patterns (Section 6) ----------------------------------------
// Reduce-then-Broadcast (Section 6.1) is priced by the registry's
// "<algo>+Bcast" descriptors as predict_reduce_1d + predict_broadcast_1d.

/// Lemma 6.1: T = 2(P-1) ceil(B/P) + 4P - 6 + 2(P-1)(2*T_R+1). Both the
/// simple and the distance-preserving ring mapping have this predicted cost.
Prediction predict_ring_allreduce(u32 num_pes, u32 vec_len, const MachineParams& mp);

/// Recursive halving + doubling butterfly (Section 2.1 / Fig. 11c). On the
/// mesh, round i's pair traffic convoys over d_i = P/2^(i+1) links, so each
/// round costs ~d_i * L_i cycles — the reason the butterfly loses to the
/// Ring at scale despite its log depth. Cycles are pinned to the buildable
/// construction (collectives/butterfly.cpp) where it exists and stay a
/// smooth closed form elsewhere (the figures sweep non-power-of-two P).
Prediction predict_butterfly_allreduce(u32 num_pes, u32 vec_len,
                                       const MachineParams& mp);

/// Recursive-halving ReduceScatter: the butterfly's first phase alone.
Prediction predict_reduce_scatter_halving(u32 num_pes, u32 vec_len,
                                          const MachineParams& mp);

/// Pipeline ReduceScatter (collectives/reduce_scatter.cpp): two opposing
/// Recv-Reduce-Send pipelines; the cycle estimate prices the per-PE
/// east-then-west ingress serialization the fabric imposes.
Prediction predict_reduce_scatter_pipeline(u32 num_pes, u32 vec_len,
                                           const MachineParams& mp);

/// Bidirectional flood AllGather (collectives/allgather.cpp): every PE's
/// ingress consumes the other P-1 chunks at one wavelet per cycle.
Prediction predict_allgather_1d(u32 num_pes, u32 vec_len,
                                const MachineParams& mp);

}  // namespace wsr
