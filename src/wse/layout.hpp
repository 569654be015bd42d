// FabricLayout: the wafer's index algebra as a single source of truth.
//
// Both simulators, the schedule checks and the export layer used to
// re-derive the same mappings independently: per-PE compact-color interning,
// (dir, color) register indexing, neighbour lookups via coordinate division,
// and per-PE offsets into whatever flat arrays each consumer kept. This
// module computes all of it once from a Schedule and hands out *keys* —
// stable integer indices into globally flat arrays — so simulator state can
// live in structure-of-arrays storage (one array per field, per-PE spans
// carved out by the precomputed offsets here) instead of per-PE objects
// full of nested vectors. DESIGN.md §3 ("Structure-of-arrays fabric
// layout") documents the memory map and the invariants below.
//
// Key spaces (all dense, 0-based):
//   * register key  — one per (PE, direction, compact color):
//       reg_key(pe, dir, ci) = reg_base(pe) + dir * num_colors(pe) + ci
//     Ascending key order == ascending (pe, dir, color) scan order, which is
//     the claim-arbitration order FabricSim's stepping modes rely on.
//   * color key     — one per (PE, compact color):
//       color_key(pe, ci) = color_base(pe) + ci
//     Indexes per-lane state: rule chains, ingress queues, waiter lists.
//   * link key      — one per (PE, direction): pe * kNumDirs + dir.
//   * op key        — one per (PE, program op): op_base(pe) + oi.
//
// Compact colors are interned per PE in a canonical order — routing rules
// first (in rule order), then program ops (in_color before out_color) — so
// every consumer agrees on the mapping. Routing rules are regrouped into
// per-color chains stored in one flat arena, addressed by color key.
#pragma once

#include <span>
#include <vector>

#include "common/grid.hpp"
#include "common/types.hpp"
#include "wse/schedule.hpp"

namespace wsr::wse {

class FabricLayout {
 public:
  /// Colors are u8 on the wire but the CS-2 has 24; interning asserts every
  /// id is below 32 so the per-PE table stays one cache line (validate(),
  /// which interns nothing, reports ids >= 24 instead).
  static constexpr u32 kMaxColorId = 32;
  /// neighbor() result for an off-grid direction (and for Ramp).
  static constexpr u32 kNoNeighbor = UINT32_MAX;

  struct Options {
    /// Build the per-register inverse tables (pe_of_reg / reg_dir / reg_ci /
    /// reg_color_key). FabricSim's resolve path needs them to turn a global
    /// register key back into its coordinates without division; FlowSim has
    /// no register state and skips the (total_regs-sized) allocation —
    /// wafer-scale runs construct layouts for 262,144 PEs.
    bool register_tables = true;
    /// Build the color/register/op key spaces and the rule arena. The
    /// schedule validator only needs the geometry; with interning == false
    /// the constructor skips the per-PE passes entirely and only grid(),
    /// neighbor(), link_key() and total_links() are meaningful (the key
    /// spaces all report empty).
    bool interning = true;
  };

  /// Builds the layout. The schedule's program/rule arrays must match its
  /// grid in either mode.
  explicit FabricLayout(const Schedule& s);  // default Options
  FabricLayout(const Schedule& s, Options opt);

  const GridShape& grid() const { return grid_; }
  u32 num_pes() const { return num_pes_; }

  // --- colors ----------------------------------------------------------------

  u32 num_colors(u32 pe) const {
    return static_cast<u32>(color_base_[pe + 1] - color_base_[pe]);
  }
  /// The PE's compact index for `c`, or -1 when the PE never touches it.
  i8 compact_color(u32 pe, Color c) const {
    return color_index_[std::size_t{pe} * kMaxColorId + c];
  }
  std::size_t color_base(u32 pe) const { return color_base_[pe]; }
  std::size_t color_key(u32 pe, u32 ci) const { return color_base_[pe] + ci; }
  std::size_t total_colors() const { return color_base_[num_pes_]; }
  /// The original color id behind a color key (inverse of compact_color).
  Color color_id(std::size_t color_key) const { return color_ids_[color_key]; }

  // --- router input registers ------------------------------------------------
  // One register per (direction, compact color); the PE-local register index
  // is dir * num_colors(pe) + ci, exactly the (dir, color) scan order.

  std::size_t reg_base(u32 pe) const { return reg_base_[pe]; }
  std::size_t num_regs(u32 pe) const {
    return reg_base_[pe + 1] - reg_base_[pe];
  }
  std::size_t reg_key(u32 pe, u32 dir, u32 ci) const {
    return reg_base_[pe] + std::size_t{dir} * num_colors(pe) + ci;
  }
  std::size_t total_regs() const { return reg_base_[num_pes_]; }
  /// 64-bit words needed by a register-key bitmask plane covering every
  /// register — the Simd stepping mode's plane geometry. Register keys are
  /// dense, so bit (key & 63) of word (key >> 6) is the register's lane and
  /// ascending word/bit order is ascending key (claim-arbitration) order.
  std::size_t plane_words() const { return (total_regs() + 63) / 64; }

  // Inverse register tables (Options::register_tables): O(1) key ->
  // coordinate lookups for the simulator hot path. Recovering (dir, ci)
  // arithmetically costs two integer divisions per resolution — measurable
  // on contention-bound cells that resolve hundreds of registers per cycle.
  u32 pe_of_reg(std::size_t reg_key) const { return reg_pe_[reg_key]; }
  u32 reg_dir(std::size_t reg_key) const { return reg_dir_[reg_key]; }
  u32 reg_ci(std::size_t reg_key) const { return reg_ci_[reg_key]; }
  /// The color key of the register's (pe, ci) lane.
  std::size_t reg_color_key(std::size_t reg_key) const {
    return reg_ck_[reg_key];
  }

  // --- links and neighbours --------------------------------------------------

  std::size_t link_key(u32 pe, u32 dir) const {
    return std::size_t{pe} * kNumDirs + dir;
  }
  std::size_t total_links() const { return std::size_t{num_pes_} * kNumDirs; }
  /// The neighbouring PE id in mesh direction `dir`, or kNoNeighbor off-grid
  /// (Ramp is always kNoNeighbor: the processor is not a mesh neighbour).
  u32 neighbor(u32 pe, u32 dir) const { return neighbor_pe_[link_key(pe, dir)]; }
  u32 neighbor(u32 pe, Dir d) const {
    return neighbor(pe, static_cast<u32>(d));
  }

  // --- program ops -----------------------------------------------------------

  std::size_t op_base(u32 pe) const { return op_base_[pe]; }
  std::size_t op_key(u32 pe, u32 oi) const { return op_base_[pe] + oi; }
  std::size_t num_ops(u32 pe) const { return op_base_[pe + 1] - op_base_[pe]; }
  std::size_t total_ops() const { return op_base_[num_pes_]; }

  // --- routing rules, regrouped per color ------------------------------------

  /// The (activation-ordered) rule chain of a color key, as a span into one
  /// flat arena. Rule order within a color matches the order the schedule
  /// listed them — the IR's activation-order contract.
  std::span<const RouteRule> rules(std::size_t color_key) const {
    return {rules_.data() + rule_off_[color_key],
            rule_off_[color_key + 1] - rule_off_[color_key]};
  }

 private:
  GridShape grid_;
  u32 num_pes_ = 0;

  std::vector<i8> color_index_;          // [pe * kMaxColorId + color]
  std::vector<std::size_t> color_base_;  // [num_pes + 1]
  std::vector<std::size_t> reg_base_;    // [num_pes + 1]
  std::vector<std::size_t> op_base_;     // [num_pes + 1]
  std::vector<Color> color_ids_;         // [color key] -> original color
  std::vector<u32> reg_pe_;              // [reg key] -> owning PE
  std::vector<u8> reg_dir_;              // [reg key] -> direction
  std::vector<u8> reg_ci_;               // [reg key] -> compact color
  std::vector<u32> reg_ck_;              // [reg key] -> color key
  std::vector<u32> neighbor_pe_;         // [link key] -> PE | kNoNeighbor

  std::vector<RouteRule> rules_;         // rule arena, grouped by color key
  std::vector<std::size_t> rule_off_;    // [total_colors + 1]
};

}  // namespace wsr::wse
