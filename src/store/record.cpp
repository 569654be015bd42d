#include "store/record.hpp"

#include <array>
#include <cstring>

#include "registry/algorithm_registry.hpp"

namespace wsr::store {

namespace {
constexpr char kHeaderMagic[8] = {'W', 'S', 'R', 'P', 'L', 'A', 'N', 'C'};
constexpr u32 kEndianTag = 0x01020304;
}  // namespace

u64 fnv1a(const char* data, std::size_t n) {
  u64 h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void Writer::f64v(double v) {
  u64 bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64v(bits);
}

double Reader::f64v() {
  const u64 bits = u64v();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string header_bytes() {
  Writer w;
  w.out.append(kHeaderMagic, sizeof kHeaderMagic);
  w.u32v(kEndianTag);
  w.u32v(kSchemaVersion);
  return w.out;
}

// --- (PlanKey, Plan) payload -------------------------------------------------

namespace {

void write_machine(Writer& w, const MachineParams& mp) {
  w.u32v(mp.ramp_latency);
  w.f64v(mp.clock_mhz);
  w.u32v(mp.sram_bytes);
  w.u32v(mp.num_colors);
  w.u32v(static_cast<u32>(mp.link_overrides.size()));
  for (const LinkOverride& o : mp.link_overrides) {
    w.u32v(o.x);
    w.u32v(o.y);
    w.u8v(static_cast<u8>(o.dir));
    w.u32v(o.factor);
  }
}

/// Reads one enum byte, refusing (r.ok = false) a value past `last`, the
/// enum's final enumerator: a decoded record never holds an enumerator
/// the code does not name, which the validator and simulators index by.
template <typename E>
E read_enum(Reader& r, E last) {
  const u8 v = r.u8v();
  if (v > static_cast<u8>(last)) {
    r.ok = false;
    return E{};
  }
  return static_cast<E>(v);
}

MachineParams read_machine(Reader& r) {
  MachineParams mp;
  mp.ramp_latency = r.u32v();
  mp.clock_mhz = r.f64v();
  mp.sram_bytes = r.u32v();
  mp.num_colors = r.u32v();
  const u32 num_overrides = r.u32v();
  if (!r.need(num_overrides * 13ull)) return mp;  // 13 bytes per override
  mp.link_overrides.resize(num_overrides);
  for (LinkOverride& o : mp.link_overrides) {
    o.x = r.u32v();
    o.y = r.u32v();
    o.dir = read_enum(r, Dir::Ramp);
    o.factor = r.u32v();
  }
  return mp;
}

void write_key(Writer& w, const PlanKey& key) {
  w.u8v(static_cast<u8>(key.collective));
  w.u32v(key.grid.width);
  w.u32v(key.grid.height);
  w.u32v(key.vec_len);
  write_machine(w, key.machine);
  w.str(key.algorithm);
}

void read_key(Reader& r, PlanKey* key) {
  key->collective = read_enum(r, registry::Collective::ReduceScatter);
  key->grid.width = r.u32v();
  key->grid.height = r.u32v();
  key->vec_len = r.u32v();
  key->machine = read_machine(r);
  key->algorithm = r.str();
}

void write_schedule(Writer& w, const wse::Schedule& s) {
  w.u32v(s.grid.width);
  w.u32v(s.grid.height);
  w.u32v(s.vec_len);
  w.u32v(s.mem_words);
  w.str(s.name);
  w.u32v(static_cast<u32>(s.result_pes.size()));
  for (u32 pe : s.result_pes) w.u32v(pe);
  w.u32v(static_cast<u32>(s.programs.size()));
  for (const wse::PEProgram& prog : s.programs) {
    w.u32v(static_cast<u32>(prog.ops.size()));
    for (const wse::Op& op : prog.ops) {
      w.u8v(static_cast<u8>(op.kind));
      w.u8v(op.in_color);
      w.u8v(op.out_color);
      w.u32v(op.len);
      w.u8v(static_cast<u8>(op.mode));
      w.u32v(op.modulo);
      w.u32v(op.src_offset);
      w.u32v(op.dst_offset);
      w.u32v(static_cast<u32>(op.deps.size()));
      for (u32 d : op.deps) w.u32v(d);
    }
  }
  w.u32v(static_cast<u32>(s.rules.size()));
  for (const std::vector<wse::RouteRule>& pe_rules : s.rules) {
    w.u32v(static_cast<u32>(pe_rules.size()));
    for (const wse::RouteRule& rule : pe_rules) {
      w.u8v(rule.color);
      w.u8v(static_cast<u8>(rule.accept));
      w.u8v(rule.forward);
      w.u32v(rule.count);
    }
  }
}

bool read_schedule(Reader& r, wse::Schedule* out) {
  const u32 width = r.u32v();
  const u32 height = r.u32v();
  const u32 vec_len = r.u32v();
  const u32 mem_words = r.u32v();
  std::string name = r.str();
  if (!r.ok || width == 0 || height == 0) return false;
  // Each PE takes at least 8 more bytes (its op and rule counts): refuse a
  // grid the rest of the payload cannot describe before sizing the per-PE
  // arrays for it. By division, as width * height * 8 can overflow u64.
  if (u64{width} * height > r.remaining() / 8) return false;
  wse::Schedule s({width, height}, vec_len, std::move(name));
  s.mem_words = mem_words;
  const u32 num_results = r.u32v();
  if (!r.need(num_results * 4ull)) return false;
  s.result_pes.resize(num_results);
  for (u32 i = 0; i < num_results; ++i) s.result_pes[i] = r.u32v();
  const u32 num_programs = r.u32v();
  if (num_programs != s.grid.num_pes()) return false;
  for (u32 pe = 0; pe < num_programs; ++pe) {
    const u32 num_ops = r.u32v();
    if (!r.need(num_ops)) return false;  // >= 1 byte per op
    s.programs[pe].ops.resize(num_ops);
    for (u32 i = 0; i < num_ops; ++i) {
      wse::Op& op = s.programs[pe].ops[i];
      op.kind = read_enum(r, wse::OpKind::RecvReduceSend);
      op.in_color = r.u8v();
      op.out_color = r.u8v();
      op.len = r.u32v();
      op.mode = read_enum(r, wse::RecvMode::AddModulo);
      op.modulo = r.u32v();
      op.src_offset = r.u32v();
      op.dst_offset = r.u32v();
      const u32 num_deps = r.u32v();
      if (!r.need(num_deps * 4ull)) return false;
      op.deps.resize(num_deps);
      for (u32 d = 0; d < num_deps; ++d) op.deps[d] = r.u32v();
    }
  }
  const u32 num_rule_lists = r.u32v();
  if (num_rule_lists != s.grid.num_pes()) return false;
  for (u32 pe = 0; pe < num_rule_lists; ++pe) {
    const u32 num_rules = r.u32v();
    if (!r.need(num_rules)) return false;
    s.rules[pe].resize(num_rules);
    for (u32 i = 0; i < num_rules; ++i) {
      wse::RouteRule& rule = s.rules[pe][i];
      rule.color = r.u8v();
      rule.accept = read_enum(r, Dir::Ramp);
      rule.forward = r.u8v();
      rule.count = r.u32v();
      if (rule.forward >> kNumDirs != 0) return false;  // bits above Ramp
    }
  }
  if (!r.ok) return false;
  *out = std::move(s);
  return true;
}

}  // namespace

void write_payload(Writer& w, const PlanKey& key, const Plan& plan) {
  write_key(w, key);
  w.str(plan.algorithm);
  w.i64v(plan.prediction.terms.energy);
  w.i64v(plan.prediction.terms.distance);
  w.i64v(plan.prediction.terms.depth);
  w.i64v(plan.prediction.terms.contention);
  w.i64v(plan.prediction.terms.links);
  w.i64v(plan.prediction.cycles);
  write_schedule(w, plan.schedule);
}

bool read_payload(Reader& r, PlanKey* key, Plan* plan) {
  read_key(r, key);
  plan->algorithm = r.str();
  plan->prediction.terms.energy = r.i64v();
  plan->prediction.terms.distance = r.i64v();
  plan->prediction.terms.depth = r.i64v();
  plan->prediction.terms.contention = r.i64v();
  plan->prediction.terms.links = r.i64v();
  plan->prediction.cycles = r.i64v();
  if (!r.ok) return false;
  if (!read_schedule(r, &plan->schedule)) return false;
  return r.pos == r.size;  // payload must be fully consumed
}

std::string serialize_plan_record(const PlanKey& key, const Plan& plan) {
  // The payload is written after a placeholder frame, which is filled in
  // once the payload's size and checksum are known: no copy of the payload.
  Writer w;
  w.out.resize(kFrameSize);
  write_payload(w, key, plan);
  const char* payload = w.out.data() + kFrameSize;
  const u64 payload_size = w.out.size() - kFrameSize;
  put_le(w.out.data(), kRecordMagic);
  put_le(w.out.data() + 4, payload_size);
  put_le(w.out.data() + 12, fnv1a(payload, payload_size));
  return std::move(w.out);
}

bool parse_plan_record(const std::string& bytes, PlanKey* key, Plan* plan) {
  if (bytes.size() < kFrameSize) return false;
  Reader r{bytes.data(), bytes.size()};
  const u32 magic = r.u32v();
  const u64 payload_size = r.u64v();
  const u64 checksum = r.u64v();
  if (magic != kRecordMagic || payload_size > kMaxPayload ||
      payload_size != bytes.size() - kFrameSize) {
    return false;
  }
  const char* payload = bytes.data() + kFrameSize;
  if (fnv1a(payload, payload_size) != checksum) return false;
  Reader pr{payload, static_cast<std::size_t>(payload_size)};
  return read_payload(pr, key, plan);
}

std::string serialize_plan_key(const PlanKey& key) {
  Writer w;
  write_key(w, key);
  return w.out;
}

std::optional<PlanKey> parse_plan_key(const std::string& bytes) {
  PlanKey key;
  Reader r{bytes.data(), bytes.size()};
  read_key(r, &key);
  if (!r.ok || r.pos != r.size) return std::nullopt;
  return key;
}

bool record_algorithm_resolves(const PlanKey& key, const Plan& plan) {
  // For every auto-selectable descriptor the plan's chosen algorithm equals
  // the registered name (only non-selectable extensions override
  // display_label, and those can only be reached by forced keys, whose plan
  // label is deliberately not checked).
  const std::string& name =
      key.algorithm.empty() ? plan.algorithm : key.algorithm;
  return registry::AlgorithmRegistry::instance().find(
             key.collective, registry::dims_for(key.grid), name) != nullptr;
}

// --- base64 ------------------------------------------------------------------

namespace {
constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
}  // namespace

std::string base64_encode(const std::string& bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= bytes.size()) {
    const u32 v = u32{static_cast<unsigned char>(bytes[i])} << 16 |
                  u32{static_cast<unsigned char>(bytes[i + 1])} << 8 |
                  u32{static_cast<unsigned char>(bytes[i + 2])};
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out.push_back(kB64Alphabet[(v >> 6) & 63]);
    out.push_back(kB64Alphabet[v & 63]);
    i += 3;
  }
  const std::size_t rem = bytes.size() - i;
  if (rem == 1) {
    const u32 v = u32{static_cast<unsigned char>(bytes[i])} << 16;
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out += "==";
  } else if (rem == 2) {
    const u32 v = u32{static_cast<unsigned char>(bytes[i])} << 16 |
                  u32{static_cast<unsigned char>(bytes[i + 1])} << 8;
    out.push_back(kB64Alphabet[(v >> 18) & 63]);
    out.push_back(kB64Alphabet[(v >> 12) & 63]);
    out.push_back(kB64Alphabet[(v >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

std::optional<std::string> base64_decode(const std::string& text) {
  if (text.size() % 4 != 0) return std::nullopt;
  static const auto value_of = [] {
    std::array<i8, 256> table;
    table.fill(-1);
    for (int i = 0; i < 64; ++i) {
      table[static_cast<unsigned char>(kB64Alphabet[i])] = static_cast<i8>(i);
    }
    return table;
  }();
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    const bool last = i + 4 == text.size();
    int pad = 0;
    u32 v = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text[i + k];
      if (c == '=') {
        // Padding is only legal as the final one or two characters.
        if (!last || k < 2 || (k == 2 && text[i + 3] != '=')) {
          return std::nullopt;
        }
        ++pad;
        v <<= 6;
        continue;
      }
      const i8 x = value_of[static_cast<unsigned char>(c)];
      if (x < 0 || pad > 0) return std::nullopt;
      v = v << 6 | static_cast<u32>(x);
    }
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<char>((v >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<char>(v & 0xff));
  }
  return out;
}

}  // namespace wsr::store
