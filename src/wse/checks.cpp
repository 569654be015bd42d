#include "wse/checks.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "wse/layout.hpp"

namespace wsr::wse {

namespace {

/// Acyclicity of the op dependency edges of one PE program. Every builder
/// emits deps pointing at already-added (lower-index) ops, which is acyclic
/// by construction — that common case is decided by a scan with no
/// allocation (a wafer-scale validate runs this for 262,144 programs).
/// Kahn's algorithm below is the fallback for hand-written schedules with
/// forward dep edges, which may still be legal DAGs.
bool deps_acyclic(const PEProgram& prog) {
  const u32 n = static_cast<u32>(prog.ops.size());
  bool monotone = true;
  for (u32 i = 0; i < n; ++i) {
    for (u32 d : prog.ops[i].deps) {
      if (d >= n) return false;
      monotone &= d < i;
    }
  }
  if (monotone) return true;
  std::vector<u32> indeg(n, 0);
  std::vector<std::vector<u32>> out(n);
  for (u32 i = 0; i < n; ++i) {
    for (u32 d : prog.ops[i].deps) {
      out[d].push_back(i);
      ++indeg[i];
    }
  }
  std::vector<u32> stack;
  for (u32 i = 0; i < n; ++i) {
    if (indeg[i] == 0) stack.push_back(i);
  }
  u32 seen = 0;
  while (!stack.empty()) {
    const u32 v = stack.back();
    stack.pop_back();
    ++seen;
    for (u32 w : out[v]) {
      if (--indeg[w] == 0) stack.push_back(w);
    }
  }
  return seen == n;
}

}  // namespace

std::vector<std::string> validate(const Schedule& s) {
  std::vector<std::string> problems;
  auto problem = [&](u32 pe, const std::string& what) {
    const Coord c = s.grid.coord(pe);
    std::ostringstream os;
    os << "PE(" << c.x << "," << c.y << "): " << what;
    problems.push_back(os.str());
  };

  const u64 n = s.grid.num_pes();
  if (s.programs.size() != n || s.rules.size() != n) {
    problems.push_back("program/rule arrays do not match the grid size");
    return problems;
  }
  // The simulators and the result check index PE memory by these ids.
  for (u32 pe : s.result_pes) {
    if (pe >= n) {
      problems.push_back("result PE " + std::to_string(pe) +
                         " is off the grid");
    }
  }
  if (s.colors_used() > kNumColors) {
    problems.push_back("schedule uses more than " + std::to_string(kNumColors) +
                       " colors");
  }
  // A color id the machine lacks; both simulators abort on ids >= 32.
  const auto check_color = [&](u32 pe, Color c) {
    if (c >= kNumColors) {
      problem(pe, "color " + std::to_string(c) + " is not one of the machine's " +
                      std::to_string(kNumColors));
    }
  };
  if (s.mem_words != 0 && s.mem_words < s.vec_len) {
    problems.push_back("mem_words smaller than vec_len");
  }
  const u64 mem = s.memory_words();

  // The shared index-algebra module, geometry-only: the neighbour table is
  // what the checks below consume — the same table both simulators route
  // with, so a boundary the validator accepts is a boundary the simulators
  // will accept. Interning is skipped (validate() never reads the key
  // spaces, and must not assert on schedules the simulators would reject).
  const FabricLayout layout(s, FabricLayout::Options{.interning = false});

  // Per-color tallies as Color-indexed arrays with a touched list (reset
  // between PEs) — per-PE std::map nodes were the validator's hottest
  // allocation at wafer scale.
  std::array<u64, 256> ramp_in_total{}, ramp_out_total{};
  std::array<u64, 256> sent{}, received{};
  std::array<bool, 256> sent_any{}, received_any{};
  std::array<bool, 256> color_touched{};
  std::vector<Color> touched;
  const auto touch = [&](Color c) {
    if (!color_touched[c]) {
      color_touched[c] = true;
      touched.push_back(c);
    }
  };
  for (u32 pe = 0; pe < n; ++pe) {
    for (Color c : touched) {
      ramp_in_total[c] = ramp_out_total[c] = sent[c] = received[c] = 0;
      sent_any[c] = received_any[c] = false;
      color_touched[c] = false;
    }
    touched.clear();
    // --- routing rules ---
    for (const RouteRule& r : s.rules[pe]) {
      check_color(pe, r.color);
      if (r.count == 0) problem(pe, "rule with count == 0");
      if (r.forward == 0) problem(pe, "rule with empty forward set");
      if (mask_has(r.forward, r.accept) && r.accept != Dir::Ramp)
        problem(pe, "rule forwards back into its accept direction");
      if (r.accept != Dir::Ramp &&
          layout.neighbor(pe, r.accept) == FabricLayout::kNoNeighbor)
        problem(pe, "rule accepts from beyond the grid boundary");
      for (u8 d = 0; d < kNumDirs; ++d) {
        const Dir dir = static_cast<Dir>(d);
        if (dir != Dir::Ramp && mask_has(r.forward, dir) &&
            layout.neighbor(pe, dir) == FabricLayout::kNoNeighbor)
          problem(pe, "rule forwards beyond the grid boundary");
      }
      if (r.accept == Dir::Ramp) {
        ramp_in_total[r.color] += r.count;
        touch(r.color);
      }
      if (mask_has(r.forward, Dir::Ramp)) {
        ramp_out_total[r.color] += r.count;
        touch(r.color);
      }
    }

    // --- PE program ---
    const PEProgram& prog = s.programs[pe];
    if (!deps_acyclic(prog)) problem(pe, "op dependency cycle or bad index");
    for (const Op& op : prog.ops) {
      if (op.len == 0) problem(pe, "op with len == 0");
      if (op.kind == OpKind::Recv && op.mode == RecvMode::AddModulo &&
          op.modulo == 0)
        problem(pe, "AddModulo recv with modulo == 0");
      // Memory bounds: reads and writes must stay inside the schedule's
      // declared footprint (mem_words, defaulting to vec_len) — the
      // simulators size PE memory from it.
      if (op.kind != OpKind::Recv &&
          u64{op.src_offset} + op.len > mem)
        problem(pe, "op reads past the schedule's memory footprint");
      if (op.kind == OpKind::Recv) {
        const u64 span = op.mode == RecvMode::AddModulo
                             ? std::min<u64>(op.len, op.modulo)
                             : u64{op.len};
        if (u64{op.dst_offset} + span > mem)
          problem(pe, "op writes past the schedule's memory footprint");
      }
      if (op.kind != OpKind::Recv) {
        check_color(pe, op.out_color);
        sent[op.out_color] += op.len;
        sent_any[op.out_color] = true;
        touch(op.out_color);
      }
      if (op.kind != OpKind::Send) {
        check_color(pe, op.in_color);
        received[op.in_color] += op.len;
        received_any[op.in_color] = true;
        touch(op.in_color);
      }
    }

    // The router must accept from the ramp exactly what the program sends,
    // and deliver to the ramp exactly what the program receives. Ascending
    // color order matches the std::map-based tallies this replaces.
    std::sort(touched.begin(), touched.end());
    for (Color color : touched) {
      if (sent_any[color] && ramp_in_total[color] != sent[color]) {
        std::ostringstream os;
        os << "color " << static_cast<u32>(color) << ": program sends "
           << sent[color] << " wavelets but rules accept "
           << ramp_in_total[color] << " from the ramp";
        problem(pe, os.str());
      }
      if (received_any[color] && ramp_out_total[color] != received[color]) {
        std::ostringstream os;
        os << "color " << static_cast<u32>(color) << ": program receives "
           << received[color] << " wavelets but rules forward "
           << ramp_out_total[color] << " to the ramp";
        problem(pe, os.str());
      }
      if (ramp_in_total[color] > 0 && !sent_any[color])
        problem(pe, "rules accept from the ramp on a color the program never sends");
      if (ramp_out_total[color] > 0 && !received_any[color])
        problem(pe, "rules forward to the ramp on a color the program never receives");
    }
  }

  // Global per-link flow conservation: for every directed mesh link and
  // color, the wavelets forwarded into the link by the sender's rules must
  // equal the wavelets the receiver's rules accept from it. This catches
  // count bugs on pass-through routers, which the per-PE ramp checks cannot.
  std::array<i64, 256> net{};  // sent minus accepted, per color
  for (u32 pe = 0; pe < n; ++pe) {
    for (u8 d = 0; d < kNumDirs; ++d) {
      const Dir dir = static_cast<Dir>(d);
      const u32 npe = layout.neighbor(pe, d);
      if (dir == Dir::Ramp || npe == FabricLayout::kNoNeighbor) continue;
      for (Color c : touched) {
        net[c] = 0;
        color_touched[c] = false;
      }
      touched.clear();
      for (const RouteRule& r : s.rules[pe]) {
        if (mask_has(r.forward, dir)) {
          net[r.color] += r.count;
          touch(r.color);
        }
      }
      for (const RouteRule& r : s.rules[npe]) {
        if (r.accept == opposite(dir)) {
          net[r.color] -= r.count;
          touch(r.color);
        }
      }
      std::sort(touched.begin(), touched.end());
      for (Color color : touched) {
        const i64 delta = net[color];
        if (delta != 0) {
          std::ostringstream os;
          os << "link towards " << dir_name(dir) << ", color "
             << static_cast<u32>(color) << ": sender forwards "
             << (delta > 0 ? "more" : "fewer")
             << " wavelets than the receiver accepts (delta " << delta << ")";
          problem(pe, os.str());
        }
      }
    }
  }
  return problems;
}

bool schedule_crosses_failed_link(const Schedule& s,
                                  const std::vector<LinkOverride>& overrides) {
  for (const LinkOverride& o : overrides) {
    if (!o.failed() || !override_in_grid(o, s.grid)) continue;
    const u32 pe = s.grid.pe_id(o.x, o.y);
    for (const RouteRule& r : s.rules[pe]) {
      if (mask_has(r.forward, o.dir)) return true;
    }
  }
  return false;
}

void check_valid(const Schedule& s) {
  const auto problems = validate(s);
  if (!problems.empty()) {
    std::fprintf(stderr, "schedule '%s' failed validation:\n", s.name.c_str());
    for (const auto& p : problems) std::fprintf(stderr, "  %s\n", p.c_str());
    std::fprintf(stderr, "%s\n", s.dump().c_str());
  }
  WSR_ASSERT(problems.empty(), "invalid schedule");
}

}  // namespace wsr::wse
