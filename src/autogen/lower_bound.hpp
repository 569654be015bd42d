// Lower bound for 1D Reduce (paper Section 5.6).
//
// E*(P, D) is the minimum energy any Reduce over P consecutive PEs can spend
// if its depth is at most D (messages flow towards the root, B = 1):
//
//   E*(P, D) = min_{0 < i < P}  E*(i, D) + E*(P-i, D-1) + min(i, P-i+1)
//
// (Lemma 5.5; the min(i, P-i+1) term accounts for the unavoidable extra
// distance when two sub-reductions share the row.) The optimal runtime is
// then bounded by scanning the depth (contention is dropped, and reducing a
// vector of length B costs at least B times the scalar energy):
//
//   T*(P, B) >= min_D  B * E*(P, D) / (P-1) + (P-1) + D * (2*T_R + 1)
//
// Like the Auto-Gen EnergyTable, E* never reads the machine (T_R enters only
// the depth scan) and is prefix-closed in P, so one table serves every
// machine: the machine is an argument of cycles() and best_depth().
#pragma once

#include <vector>

#include "common/types.hpp"
#include "model/params.hpp"

namespace wsr::autogen {

class LowerBound {
 public:
  explicit LowerBound(u32 max_pes);

  u32 max_pes() const { return max_pes_; }

  /// E*(p, d); d is clamped to p-1 (extra depth budget never helps).
  i64 energy(u32 p, u32 d) const;

  /// T*(P, B) in cycles (real-valued: the energy term is a fraction).
  double cycles(u32 num_pes, u32 vec_len, const wsr::MachineParams& mp) const;

  /// The depth realizing the bound (for diagnostics / tests).
  u32 best_depth(u32 num_pes, u32 vec_len, const wsr::MachineParams& mp) const;

 private:
  u32 max_pes_;
  u32 d_max_;
  std::vector<i32> table_;  // [(d-1) * (max_pes+1) + p]

  i32 at(u32 d, u32 p) const { return table_[std::size_t{d - 1} * (max_pes_ + 1) + p]; }
  i32& at(u32 d, u32 p) { return table_[std::size_t{d - 1} * (max_pes_ + 1) + p]; }
};

}  // namespace wsr::autogen
