// The Auto-Gen Reduce dynamic program (paper Section 5.5).
//
// E(P, D, C) is the minimum energy (for B = 1) over all pre-order reduction
// trees with P vertices, depth at most D, representable with contention
// budget C. The budget discipline follows the paper's recursion: a vertex's
// *last* child subtree inherits the full budget C, everything received
// before it must fit in C-1. This is slightly stricter than "max fanout
// <= C" (tests/test_autogen.cpp pins the exact semantics against explicit
// tree enumeration):
//
//   E(P, D, C) = min_{0 < i < P}  E(i, D, C-1) + E(P-i, D-1, C) + i
//
// The root's *last* message comes from the vertex at offset i (hop distance
// i, the "+ i" term), carrying the partial sum of the rightmost P-i PEs
// (computed with depth budget D-1 because a send follows); the remaining
// first i PEs (root included) must finish with one less unit of root fanout.
//
// The runtime prediction (for a vector of B wavelets) synthesizes the table:
//
//   T(P, B) = min_{D, C}  max(B*C, B*E(P,D,C)/(P-1) + P - 1) + D(2*T_R + 1)
//
// Exact DP over all (P <= 512, D, C) is O(P^4) time and O(P^3) space. We
// compute the exact table on the pruned region
//     (C <= c_small, D <= P-1)  union  (C <= c_cap, D <= d_cap),
// and clamp queries outside it to the nearest computed state, which can only
// *over*-estimate energy (more depth/fanout budget never hurts). Rationale in
// DESIGN.md §5; tests verify the pruning is lossless for all P <= 96.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "autogen/tree.hpp"
#include "common/types.hpp"
#include "model/cost.hpp"
#include "model/params.hpp"

namespace wsr::autogen {

inline constexpr i32 kInfEnergy = INT32_MAX / 4;

struct DpLimits {
  u32 c_small = 3;  ///< fanout range kept exact for all depths (chain regime).
  u32 c_cap = 64;   ///< max fanout in the capped region.
  u32 d_cap = 128;  ///< max depth in the capped region.
};

/// The machine-free half of the DP: E(P, D, C) and its split table for all
/// P <= max_pes, filled once at construction (an O(~1e9) fill for
/// max_pes = 512, about 0.4 s). Nothing here reads the machine —
/// T_R enters only AutoGenModel's synthesis — and the table is prefix-closed
/// in P (a table of n PEs answers every query on P <= n exactly like a
/// larger one), so one table serves every machine and every smaller row.
class EnergyTable {
 public:
  explicit EnergyTable(u32 max_pes, DpLimits limits = {});

  u32 max_pes() const { return max_pes_; }
  const DpLimits& limits() const { return limits_; }

  /// Minimum tree energy for B = 1 with depth <= d, fanout <= c. Queries
  /// outside the computed region are clamped (see file comment).
  i32 energy(u32 p, u32 d, u32 c) const;

  /// Reconstructs the minimum-energy tree for an explicit (D, C) budget.
  ReduceTree build_tree_for_budget(u32 num_pes, u32 depth, u32 fanout) const;

 private:
  // Table addressing. The "small" region stores c in [1, c_small] with
  // d in [1, max_pes-1]; the "cap" region stores c in [1, c_cap] with
  // d in [1, d_cap] (the low-c block is shared with the small region to keep
  // the recurrence's c-1 lookups uniform; memory is dominated by the cap
  // block anyway).
  i32& small_at(u32 c, u32 d, u32 p);
  i32 small_at(u32 c, u32 d, u32 p) const;
  i32& cap_at(u32 c, u32 d, u32 p);
  i32 cap_at(u32 c, u32 d, u32 p) const;
  u16 argmin_small(u32 c, u32 d, u32 p) const;
  u16 argmin_cap(u32 c, u32 d, u32 p) const;

  void fill_tables();
  void build_rec(u32 p, u32 d, u32 c, u32 base, ReduceTree& tree) const;
  /// The split argument i realizing energy(p, d, c) (recomputed if the state
  /// was clamped).
  u32 split_for(u32 p, u32 d, u32 c) const;

  u32 max_pes_;
  DpLimits limits_;
  u32 d_small_max_;  // = max_pes - 1

  // small_[ (c-1) * d_stride + (d-1) ] row of length (max_pes+1), index p.
  std::vector<i32> small_energy_;
  std::vector<u16> small_split_;
  std::vector<i32> cap_energy_;
  std::vector<u16> cap_split_;
};

/// The process-wide table of type T (EnergyTable or LowerBound) covering
/// `pes`: the current one when it is at least that large, otherwise a new
/// one of exactly `pes`. Fills run one at a time behind a fill mutex and
/// are published whole; holders of a replaced table keep using it.
template <class T>
std::shared_ptr<const T> shared_table(u32 pes);

/// The Auto-Gen model of one machine: a cheap view pairing a shared
/// EnergyTable with the machine's per-depth cost, answering prediction and
/// reconstruction queries.
class AutoGenModel {
 public:
  /// A view on the process-wide table covering `max_pes` (shared_table).
  explicit AutoGenModel(u32 max_pes, wsr::MachineParams mp = {})
      : AutoGenModel(shared_table<EnergyTable>(max_pes), std::move(mp)) {}
  AutoGenModel(std::shared_ptr<const EnergyTable> table,
               wsr::MachineParams mp = {})
      : table_(std::move(table)), mp_(std::move(mp)) {}

  u32 max_pes() const { return table_->max_pes(); }
  const wsr::MachineParams& machine() const { return mp_; }
  const EnergyTable& table() const { return *table_; }

  /// The (D, C) pair minimizing the synthesized runtime for (P, B), plus the
  /// resulting energy and cycle count.
  struct Choice {
    u32 depth = 0;
    u32 fanout = 0;
    i32 energy = 0;
    i64 cycles = 0;
  };
  Choice best_choice(u32 num_pes, u32 vec_len) const;

  /// Model prediction for the Auto-Gen Reduce on (P, B). The cost terms are
  /// those of the reconstructed optimal tree.
  wsr::Prediction predict(u32 num_pes, u32 vec_len) const;

  /// Reconstructs an optimal pre-order reduction tree for (P, B).
  ReduceTree build_tree(u32 num_pes, u32 vec_len) const;

 private:
  std::shared_ptr<const EnergyTable> table_;
  wsr::MachineParams mp_;
};

}  // namespace wsr::autogen
