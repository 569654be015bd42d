#include "model/costs1d.hpp"

#include <algorithm>

#include "common/math.hpp"

namespace wsr {

const char* name(ReduceAlgo a) {
  switch (a) {
    case ReduceAlgo::Star: return "Star";
    case ReduceAlgo::Chain: return "Chain";
    case ReduceAlgo::Tree: return "Tree";
    case ReduceAlgo::TwoPhase: return "TwoPhase";
    case ReduceAlgo::AutoGen: return "AutoGen";
  }
  return "?";
}

Prediction predict_message_1d(u32 num_pes, u32 vec_len, const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1, "message needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  CostTerms t;
  t.depth = 1;
  t.distance = P - 1;
  t.energy = B * (P - 1);
  t.contention = B;
  t.links = P - 1;
  // Eq. (1) gives exactly the paper's T = B + P + 2*T_R.
  return Prediction(t, mp);
}

Prediction predict_broadcast_1d(u32 num_pes, u32 vec_len, const MachineParams& mp) {
  // Lemma 4.1: multicast duplication is free, so Broadcast == Message.
  return predict_message_1d(num_pes, vec_len, mp);
}

Prediction predict_star_reduce(u32 num_pes, u32 vec_len, const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1, "star needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  CostTerms t;
  t.depth = 1;
  t.distance = P - 1;
  t.energy = B * P * (P - 1) / 2;
  t.contention = B * (P - 1);
  t.links = P - 1;
  // Sharper than Eq. (1): the sends towards the root form a perfect pipeline
  // serialized by the router configurations, so the root-side contention
  // B(P-1) is the true bottleneck even when the energy term is larger
  // (Section 5.1 discusses the B = 1 case explicitly).
  const i64 cycles = B * (P - 1) + 2 * i64{mp.ramp_latency} + 1;
  return Prediction(t, cycles);
}

Prediction predict_star_reduce_eq1(u32 num_pes, u32 vec_len,
                                   const MachineParams& mp) {
  const Prediction sharp = predict_star_reduce(num_pes, vec_len, mp);
  return Prediction(sharp.terms, mp);  // re-synthesize through Eq. (1)
}

std::vector<u32> two_phase_leaders(u32 num_pes, u32 group_size) {
  const u32 n = num_pes;
  const u32 S = group_size;
  WSR_ASSERT(S >= 1 && S < n, "group size must be in [1, P)");
  std::vector<u32> leaders;
  for (u32 pos = n % S == 0 ? 0 : n % S; pos < n; pos += S) {
    if (pos != 0 && leaders.empty()) leaders.push_back(0);
    leaders.push_back(pos);
  }
  return leaders;
}

Prediction predict_chain_reduce(u32 num_pes, u32 vec_len, const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1, "chain needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  CostTerms t;
  t.depth = P - 1;
  t.distance = P - 1;
  t.energy = B * (P - 1);
  t.contention = B;
  t.links = P - 1;
  // Eq. (1): max(B, B + P - 1) + (2T_R+1)(P-1) = B + (2T_R+2)(P-1).
  return Prediction(t, mp);
}

Prediction predict_tree_reduce(u32 num_pes, u32 vec_len, const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1, "tree needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  const i64 rounds = ilog2_ceil(num_pes);
  CostTerms t;
  t.depth = rounds;
  t.distance = P - 1;
  // Lemma 5.3: each round moves ~P*B/2 wavelet-hops.
  t.energy = B * P * rounds / 2;
  t.contention = B * rounds;
  t.links = P - 1;
  return Prediction(t, mp);
}

u32 two_phase_default_group(u32 num_pes) {
  // The paper picks S = sqrt(P) to balance the depths of the two phases.
  return static_cast<u32>(std::max<u64>(2, isqrt_ceil(num_pes)));
}

Prediction predict_two_phase_reduce(u32 num_pes, u32 vec_len,
                                    const MachineParams& mp, u32 group_size) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1, "two-phase needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  const u32 S = group_size == 0
                    ? two_phase_default_group(num_pes)
                    : static_cast<u32>(std::min<i64>(group_size, P));
  if (S >= num_pes) {
    // Degenerates to a single chain (also what the builder compiles).
    return predict_chain_reduce(num_pes, vec_len, mp);
  }
  // Exact terms from the group layout the builder compiles (groups assigned
  // from the far end; the root's group may be smaller). For P = S^2 this
  // reduces to Lemma 5.4.
  const std::vector<u32> leaders = two_phase_leaders(num_pes, S);
  const i64 G = static_cast<i64>(leaders.size());
  i64 max_group = 0;
  for (std::size_t g = 0; g < leaders.size(); ++g) {
    const i64 hi = g + 1 < leaders.size() ? leaders[g + 1] : num_pes;
    max_group = std::max(max_group, hi - leaders[g]);
  }
  CostTerms t;
  // Phase-1 chains run in parallel (depth = longest group chain); phase 2 is
  // a chain over the G leaders.
  t.depth = (max_group - 1) + (G - 1);
  t.distance = P - 1;
  // Phase-1 edges: one hop per non-leader PE; phase 2: the leader chain
  // spans [0, last leader].
  t.energy = B * (P - G) + B * leaders.back();
  t.contention = G > 1 ? 2 * B : B;  // leaders receive the vector twice.
  t.links = P - 1;
  return Prediction(t, mp);
}

Prediction predict_reduce_1d(ReduceAlgo algo, u32 num_pes, u32 vec_len,
                             const MachineParams& mp) {
  switch (algo) {
    case ReduceAlgo::Star: return predict_star_reduce(num_pes, vec_len, mp);
    case ReduceAlgo::Chain: return predict_chain_reduce(num_pes, vec_len, mp);
    case ReduceAlgo::Tree: return predict_tree_reduce(num_pes, vec_len, mp);
    case ReduceAlgo::TwoPhase:
      return predict_two_phase_reduce(num_pes, vec_len, mp);
    case ReduceAlgo::AutoGen:
      WSR_ASSERT(false,
                 "AutoGen predictions come from autogen::AutoGenModel (needs "
                 "the DP table); use runtime::Planner for unified dispatch");
  }
  return {};
}

Prediction predict_ring_allreduce(u32 num_pes, u32 vec_len,
                                  const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1, "ring needs P >= 2, B >= 1");
  const i64 P = num_pes;
  const i64 chunk = ceil_div(vec_len, num_pes);
  CostTerms t;
  // Lemma 6.1. 2(P-1) rounds; each round every PE sends/receives one chunk;
  // bidirectional links double the usable link count.
  t.depth = 2 * (P - 1);
  t.distance = 2 * (2 * P - 3);
  t.energy = 2 * (P - 1) * 2 * (P - 1) * chunk;
  t.contention = 2 * (P - 1) * chunk;
  t.links = 2 * (P - 1);
  // Eq. (1): 2(P-1)ceil(B/P) + 4P - 6 + 2(P-1)(2T_R+1), as in the lemma.
  return Prediction(t, mp);
}

namespace {

/// Per-phase convoy cost of the halving rounds: round i moves a block of
/// ceil(B/2^(i+1)) words across d_i = max(1, P/2^(i+1)) links whose traffic
/// convoys on the mesh (collectives/butterfly.cpp streams all of a group's
/// pair traffic over the links between the partners). Also accumulates the
/// phase's energy (every word crosses d_i links on 2*d_i group PEs).
struct HalvingPhase {
  i64 convoy = 0;  // sum of d_i * L_i — the serialized per-round link time
  i64 energy = 0;
  i64 ramp = 0;  // per-PE ramp words (send + receive) over the phase
};

HalvingPhase halving_phase_cost(i64 P, i64 B) {
  HalvingPhase out;
  const i64 rounds = ilog2_ceil(static_cast<u32>(P));
  for (i64 i = 0; i < rounds; ++i) {
    const i64 d = std::max<i64>(1, P >> (i + 1));
    const i64 len = ceil_div(B, i64{1} << (i + 1));
    out.convoy += d * len;
    out.energy += P * d * len;
    out.ramp += 2 * len;
  }
  return out;
}

}  // namespace

Prediction predict_butterfly_allreduce(u32 num_pes, u32 vec_len,
                                       const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1, "butterfly needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  const i64 rounds = ilog2_ceil(num_pes);
  const HalvingPhase ph = halving_phase_cost(P, B);
  CostTerms t;
  t.depth = 2 * rounds;
  t.distance = 2 * (P - 1);
  t.energy = 2 * ph.energy;
  t.contention = 2 * ph.ramp;
  t.links = 2 * (P - 1);
  // Doubling mirrors halving (same block sizes in reverse), so both phases
  // share the convoy sum; each round pays one per-depth ramp round-trip.
  const i64 cycles =
      2 * ph.convoy + 2 * (P - 1) + 2 * rounds * mp.per_depth_cycles();
  return Prediction(t, cycles);
}

Prediction predict_reduce_scatter_halving(u32 num_pes, u32 vec_len,
                                          const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1,
             "reduce-scatter needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  const i64 rounds = ilog2_ceil(num_pes);
  const HalvingPhase ph = halving_phase_cost(P, B);
  CostTerms t;
  t.depth = rounds;
  t.distance = P - 1;
  t.energy = ph.energy;
  t.contention = ph.ramp;
  t.links = 2 * (P - 1);
  return Prediction(t, ph.convoy + (P - 1) + rounds * mp.per_depth_cycles());
}

Prediction predict_reduce_scatter_pipeline(u32 num_pes, u32 vec_len,
                                           const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1,
             "reduce-scatter needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  const i64 chunk = ceil_div(vec_len, num_pes);
  CostTerms t;
  t.depth = 2 * (P - 1);
  t.distance = P - 1;
  t.energy = B * (P - 1);
  t.contention = 2 * B;
  t.links = 2 * (P - 1);
  // A middle PE's single ingress serializes the eastward intake ((P-p)*c
  // words) before the westward one ((p+1)*c): ~(P+1) chunks end to end.
  // P = 2 has no middle PE and the two directions run concurrently.
  const i64 serial = P >= 3 ? (P + 1) * chunk : 2 * chunk;
  return Prediction(t, serial + (P - 1) * (2 * mp.ramp_latency + 2) + 1);
}

Prediction predict_allgather_1d(u32 num_pes, u32 vec_len,
                                const MachineParams& mp) {
  WSR_ASSERT(num_pes >= 2 && vec_len >= 1, "allgather needs P >= 2, B >= 1");
  const i64 P = num_pes, B = vec_len;
  CostTerms t;
  t.depth = 1;
  t.distance = P - 1;
  // Both flood directions together move every chunk to every other PE.
  t.energy = B * P * (P - 1);
  t.contention = (P + 1) * B;
  t.links = 2 * (P - 1);
  // Ingress-bound: each PE consumes (P-1)*B foreign words one per cycle;
  // the floods themselves overlap with the consumption.
  return Prediction(t, (P - 1) * B + P + 2 * mp.ramp_latency + 2);
}

}  // namespace wsr
