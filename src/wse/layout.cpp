#include "wse/layout.hpp"

namespace wsr::wse {

FabricLayout::FabricLayout(const Schedule& s) : FabricLayout(s, Options{}) {}

FabricLayout::FabricLayout(const Schedule& s, Options opt) : grid_(s.grid) {
  const u64 n64 = grid_.num_pes();
  num_pes_ = static_cast<u32>(n64);
  WSR_ASSERT(s.programs.size() == n64 && s.rules.size() == n64,
             "schedule arrays do not match grid");

  color_base_.assign(num_pes_ + 1, 0);
  reg_base_.assign(num_pes_ + 1, 0);
  op_base_.assign(num_pes_ + 1, 0);

  // Neighbour table: one coordinate round-trip per (PE, direction) here
  // replaces a division per movement resolution in the simulator hot path.
  neighbor_pe_.assign(total_links(), kNoNeighbor);
  for (u32 pe = 0; pe < num_pes_; ++pe) {
    const Coord here = grid_.coord(pe);
    for (u8 d = 0; d < kNumDirs; ++d) {
      const Dir dd = static_cast<Dir>(d);
      if (dd != Dir::Ramp && grid_.has_neighbor(here, dd)) {
        neighbor_pe_[link_key(pe, d)] = grid_.pe_id(grid_.neighbor(here, dd));
      }
    }
  }
  if (!opt.interning) return;  // geometry-only (the schedule validator)

  color_index_.assign(std::size_t{num_pes_} * kMaxColorId, -1);

  // Pass 1: intern every PE's colors in the canonical order (rules first,
  // then ops, in_color before out_color) and accumulate the offset tables.
  std::size_t colors = 0, regs = 0, ops = 0;
  for (u32 pe = 0; pe < num_pes_; ++pe) {
    color_base_[pe] = colors;
    reg_base_[pe] = regs;
    op_base_[pe] = ops;
    i8* index = &color_index_[std::size_t{pe} * kMaxColorId];
    u32 pe_colors = 0;
    auto intern = [&](Color c) {
      WSR_ASSERT(c < kMaxColorId, "color id too large");
      if (index[c] < 0) {
        index[c] = static_cast<i8>(pe_colors++);
        color_ids_.push_back(c);
      }
    };
    for (const RouteRule& r : s.rules[pe]) intern(r.color);
    for (const Op& op : s.programs[pe].ops) {
      if (op.kind != OpKind::Send) intern(op.in_color);
      if (op.kind != OpKind::Recv) intern(op.out_color);
    }
    colors += pe_colors;
    regs += std::size_t{kNumDirs} * pe_colors;
    ops += s.programs[pe].ops.size();
  }
  color_base_[num_pes_] = colors;
  reg_base_[num_pes_] = regs;
  op_base_[num_pes_] = ops;

  if (opt.register_tables) {
    reg_pe_.resize(regs);
    reg_dir_.resize(regs);
    reg_ci_.resize(regs);
    reg_ck_.resize(regs);
    for (u32 pe = 0; pe < num_pes_; ++pe) {
      const u32 nc = num_colors(pe);
      std::size_t k = reg_base_[pe];
      for (u8 d = 0; d < kNumDirs; ++d) {
        for (u32 ci = 0; ci < nc; ++ci, ++k) {
          reg_pe_[k] = pe;
          reg_dir_[k] = d;
          reg_ci_[k] = static_cast<u8>(ci);
          reg_ck_[k] = static_cast<u32>(color_base_[pe] + ci);
        }
      }
    }
  }

  // Pass 2: regroup the rules into per-color chains in one flat arena
  // (counting sort over color keys; order within a color is preserved).
  rule_off_.assign(colors + 1, 0);
  for (u32 pe = 0; pe < num_pes_; ++pe) {
    for (const RouteRule& r : s.rules[pe]) {
      const i8 ci = compact_color(pe, r.color);
      ++rule_off_[color_key(pe, static_cast<u32>(ci)) + 1];
    }
  }
  for (std::size_t c = 1; c <= colors; ++c) rule_off_[c] += rule_off_[c - 1];
  rules_.resize(rule_off_[colors]);
  {
    std::vector<std::size_t> fill(rule_off_.begin(), rule_off_.end() - 1);
    for (u32 pe = 0; pe < num_pes_; ++pe) {
      for (const RouteRule& r : s.rules[pe]) {
        const i8 ci = compact_color(pe, r.color);
        rules_[fill[color_key(pe, static_cast<u32>(ci))]++] = r;
      }
    }
  }
}

}  // namespace wsr::wse
