#include "runtime/plan_json.hpp"

#include <cstdio>

#include "common/minijson.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/plan_cache.hpp"
#include "store/plan_store.hpp"
#include "wse/export.hpp"
#include "wse/fabric.hpp"

namespace wsr::runtime {

namespace {

/// Decimal digits only (no sign, no spaces), at most `max`.
std::optional<u64> parse_digits(const std::string& text, u64 max) {
  if (text.empty()) return std::nullopt;
  u64 v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const u64 d = static_cast<u64>(c - '0');
    if (v > (max - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

}  // namespace

void append_plan_response_json(std::string& out, const PlanRequest& req,
                               const Plan& plan, const MachineParams& mp,
                               std::string_view extra_fields) {
  const registry::AlgorithmDescriptor* desc =
      registry::AlgorithmRegistry::instance().find(
          req.collective, registry::dims_for(req.grid),
          req.algorithm.empty() ? plan.algorithm : req.algorithm);

  out += "{\"collective\":\"";
  out += registry::name(req.collective);
  out += "\",\"grid\":{\"width\":";
  json::append_int(out, req.grid.width);
  out += ",\"height\":";
  json::append_int(out, req.grid.height);
  out += "},\"vec_len\":";
  json::append_int(out, req.vec_len);
  out += ",\"bytes_per_pe\":";
  json::append_int(out, u64{req.vec_len} * 4);
  out += ",\"algorithm\":\"";
  out += json::escape(plan.algorithm);
  out += "\",";
  if (desc != nullptr) {
    out += "\"color_budget\":";
    json::append_int(out, desc->color_budget);
    out += desc->auto_selectable ? ",\"auto_selectable\":true"
                                 : ",\"auto_selectable\":false";
    out += desc->model_generated ? ",\"model_generated\":true,"
                                 : ",\"model_generated\":false,";
  }
  out += extra_fields;
  // The stepping mode any in-process fabric verification runs under (the
  // FabricOptions default) — recorded so a served measurement is
  // attributable to its engine.
  out += "\"fabric_stepping\":\"";
  out += wse::stepping_mode_name(wse::FabricOptions{}.stepping);
  out += "\",\"predicted_cycles\":";
  json::append_int(out, plan.prediction.cycles);
  char us[64];
  std::snprintf(us, sizeof us, "%.3f", mp.cycles_to_us(plan.prediction.cycles));
  out += ",\"predicted_us\":";
  out += us;
  const CostTerms& t = plan.prediction.terms;
  out += ",\"terms\":{\"energy\":";
  json::append_int(out, t.energy);
  out += ",\"distance\":";
  json::append_int(out, t.distance);
  out += ",\"depth\":";
  json::append_int(out, t.depth);
  out += ",\"contention\":";
  json::append_int(out, t.contention);
  out += ",\"links\":";
  json::append_int(out, t.links);
  out += "},\"schedule\":";
  wse::append_json(out, plan.schedule);
  out += '}';
}

std::string plan_response_json(const PlanRequest& req, const Plan& plan,
                               const MachineParams& mp,
                               std::string_view extra_fields) {
  std::string out;
  append_plan_response_json(out, req, plan, mp, extra_fields);
  return out;
}

std::string plan_cache_counters_json(const PlanCache& cache) {
  std::string out = "\"plan_cache\":{\"hits\":" + std::to_string(cache.hits()) +
                    ",\"misses\":" + std::to_string(cache.misses()) +
                    ",\"evictions\":" + std::to_string(cache.evictions());
  if (const store::PlanStore* disk = cache.file_tier()) {
    // Persistent-tier counters, all from the store's own ledger so the
    // tier is self-consistent (hits + misses = store lookups even when
    // something other than this PlanCache probes it) — --cache-dir
    // behaviour is observable end to end alongside the in-memory numbers
    // (docs/serving.md).
    const store::StoreLedger stats = disk->stats();
    out += ",\"disk_hits\":" + std::to_string(stats.hits);
    out += ",\"disk_misses\":" + std::to_string(stats.misses);
    out += ",\"disk_appends\":" + std::to_string(stats.appended);
    out += ",\"disk_entries\":" + std::to_string(stats.entries);
  }
  out += "},";
  return out;
}

std::optional<GridShape> parse_grid(const std::string& text) {
  const auto x = text.find('x');  // "512" is the row 512x1
  const auto w = parse_digits(text.substr(0, x), UINT32_MAX);
  const auto h = x == std::string::npos
                     ? std::optional<u64>(1)
                     : parse_digits(text.substr(x + 1), UINT32_MAX);
  if (!w.has_value() || !h.has_value() || *w == 0 || *h == 0) {
    return std::nullopt;
  }
  return GridShape{static_cast<u32>(*w), static_cast<u32>(*h)};
}

std::string grid_error(GridShape grid) {
  if (grid.num_pes() < 2) return "need at least 2 PEs";
  if (grid.width > kMaxGridExtent || grid.height > kMaxGridExtent) {
    return "grid width and height must be at most " +
           std::to_string(kMaxGridExtent);
  }
  return "";
}

std::optional<u32> vec_len_for_bytes(u64 bytes) {
  if (bytes == 0 || bytes % 4 != 0 || bytes / 4 > 0xffffffffull) {
    return std::nullopt;
  }
  return static_cast<u32>(bytes / 4);
}

std::optional<u32> parse_bytes(const std::string& text) {
  const auto bytes = parse_digits(text, UINT64_MAX);
  if (!bytes.has_value()) return std::nullopt;
  return vec_len_for_bytes(*bytes);
}

std::optional<u32> parse_ramp_latency(const std::string& text) {
  const auto tr = parse_digits(text, kMaxRampLatency);
  if (!tr.has_value()) return std::nullopt;
  return static_cast<u32>(*tr);
}

std::string resolve_algorithm_name(registry::Collective c, registry::Dims dims,
                                   const std::string& name) {
  const auto& reg = registry::AlgorithmRegistry::instance();
  for (const std::string& candidate :
       {name, "X-Y " + name, name + "+Bcast", "X-Y " + name + "+Bcast"}) {
    if (reg.find(c, dims, candidate) != nullptr) return candidate;
  }
  return "";
}

bool any_applicable_algorithm(registry::Collective c, GridShape grid,
                              u32 vec_len) {
  const auto candidates = registry::AlgorithmRegistry::instance().query(
      c, registry::dims_for(grid), /*selectable_only=*/true);
  for (const registry::AlgorithmDescriptor* d : candidates) {
    if (d->applicable(grid, vec_len)) return true;
  }
  return false;
}

}  // namespace wsr::runtime
