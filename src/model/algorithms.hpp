// Algorithm identifiers used across the model, the schedule builders and the
// benchmark harness.
#pragma once

#include "common/types.hpp"

namespace wsr {

/// 1D Reduce patterns (paper Section 5).
enum class ReduceAlgo : u8 {
  Star,      ///< every PE sends directly to the root (depth 1).
  Chain,     ///< pipelined nearest-neighbour chain (vendor baseline).
  Tree,      ///< binary-tree halving, log P rounds.
  TwoPhase,  ///< chain within groups of S, then chain over group leaders.
  AutoGen,   ///< DP-generated pre-order reduction tree (paper Section 5.5).
};
inline constexpr ReduceAlgo kFixedReduceAlgos[] = {
    ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree, ReduceAlgo::TwoPhase};
inline constexpr ReduceAlgo kReduceAlgos[] = {
    ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree, ReduceAlgo::TwoPhase,
    ReduceAlgo::AutoGen};

const char* name(ReduceAlgo a);

}  // namespace wsr
