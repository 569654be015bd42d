#include "wse/export.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <string_view>

#include "common/minijson.hpp"

namespace wsr::wse {

namespace {

// Bytes reserved per PE, op and rule: a little above what builder-made
// schedules write (a PE's id and brackets take about 35, an op 63 to 118,
// a rule about 53), so one reservation holds the whole schedule and only
// outsized numbers or long dependency lists make the buffer grow.
constexpr std::size_t kPeBytes = 40;
constexpr std::size_t kOpBytes = 128;
constexpr std::size_t kRuleBytes = 64;

/// mask_to_string(m), from a table built once. Bits above Ramp name no
/// direction, so the table covers the five direction bits only.
std::string_view mask_text(DirMask m) {
  constexpr u32 kAllDirs = (1u << kNumDirs) - 1;
  static const std::array<std::string, kAllDirs + 1> table = [] {
    std::array<std::string, kAllDirs + 1> t;
    for (u32 mask = 0; mask <= kAllDirs; ++mask) {
      t[mask] = mask_to_string(static_cast<DirMask>(mask));
    }
    return t;
  }();
  return table[m & kAllDirs];
}

void append_op(std::string& out, const Op& op) {
  out += "{\"kind\":\"";
  out += op_kind_name(op.kind);
  out += "\",\"len\":";
  json::append_int(out, op.len);
  if (op.kind != OpKind::Send) {
    out += ",\"in_color\":";
    json::append_int(out, op.in_color);
    out += ",\"mode\":\"";
    out += recv_mode_name(op.mode);
    out += "\",\"dst_offset\":";
    json::append_int(out, op.dst_offset);
    if (op.mode == RecvMode::AddModulo) {
      out += ",\"modulo\":";
      json::append_int(out, op.modulo);
    }
  }
  if (op.kind != OpKind::Recv) {
    out += ",\"out_color\":";
    json::append_int(out, op.out_color);
    out += ",\"src_offset\":";
    json::append_int(out, op.src_offset);
  }
  out += ",\"deps\":[";
  for (std::size_t i = 0; i < op.deps.size(); ++i) {
    if (i) out += ',';
    json::append_int(out, op.deps[i]);
  }
  out += "]}";
}

void append_rule(std::string& out, const RouteRule& r) {
  out += "{\"color\":";
  json::append_int(out, r.color);
  out += ",\"accept\":\"";
  out += dir_name(r.accept);
  out += "\",\"forward\":\"";
  out += mask_text(r.forward);
  out += "\",\"count\":";
  json::append_int(out, r.count);
  out += '}';
}

}  // namespace

void append_json(std::string& out, const Schedule& s) {
  std::size_t ops = 0;
  std::size_t rules = 0;
  for (const PEProgram& prog : s.programs) ops += prog.ops.size();
  for (const std::vector<RouteRule>& pe_rules : s.rules) {
    rules += pe_rules.size();
  }
  out.reserve(out.size() + 128 + 2 * s.name.size() +
              11 * s.result_pes.size() + kPeBytes * s.programs.size() +
              kOpBytes * ops + kRuleBytes * rules);

  out += "{\"name\":\"";
  out += json::escape(s.name);
  out += "\",\"grid\":{\"width\":";
  json::append_int(out, s.grid.width);
  out += ",\"height\":";
  json::append_int(out, s.grid.height);
  out += "},\"vec_len\":";
  json::append_int(out, s.vec_len);
  if (s.mem_words != 0) {
    out += ",\"mem_words\":";
    json::append_int(out, s.mem_words);
  }
  out += ",\"result_pes\":[";
  for (std::size_t i = 0; i < s.result_pes.size(); ++i) {
    if (i) out += ',';
    json::append_int(out, s.result_pes[i]);
  }
  out += "],\"pes\":[";
  for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
    if (pe) out += ',';
    out += "{\"id\":";
    json::append_int(out, pe);
    out += ",\"ops\":[";
    const std::vector<Op>& pe_ops = s.programs[pe].ops;
    for (std::size_t i = 0; i < pe_ops.size(); ++i) {
      if (i) out += ',';
      append_op(out, pe_ops[i]);
    }
    out += "],\"rules\":[";
    const std::vector<RouteRule>& pe_rules = s.rules[pe];
    for (std::size_t i = 0; i < pe_rules.size(); ++i) {
      if (i) out += ',';
      append_rule(out, pe_rules[i]);
    }
    out += "]}";
  }
  out += "]}";
}

std::string to_json(const Schedule& s) {
  std::string out;
  append_json(out, s);
  return out;
}

std::string format_timeline(const Schedule& s, const FabricResult& result,
                            u32 max_pes) {
  std::ostringstream os;
  os << "timeline '" << s.name << "' (" << result.cycles << " cycles)\n";
  const u32 n = static_cast<u32>(std::min<u64>(s.grid.num_pes(), max_pes));
  for (u32 pe = 0; pe < n; ++pe) {
    const Coord c = s.grid.coord(pe);
    os << "PE(" << c.x << "," << c.y << "):";
    // Ops sorted by completion time.
    std::vector<u32> order(s.programs[pe].ops.size());
    for (u32 i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
      return result.op_done_cycle[pe][a] < result.op_done_cycle[pe][b];
    });
    for (u32 i : order) {
      const Op& op = s.programs[pe].ops[i];
      os << "  " << op_kind_name(op.kind) << "#" << i << "@"
         << result.op_done_cycle[pe][i];
    }
    os << "\n";
  }
  if (s.grid.num_pes() > n) {
    os << "... (" << s.grid.num_pes() - n << " more PEs)\n";
  }
  return os.str();
}

}  // namespace wsr::wse
