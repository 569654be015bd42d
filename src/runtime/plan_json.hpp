// The serving-layer response format, shared by `wsr_plan --json` and the
// wsrd daemon so the two front ends emit byte-identical plan objects (the
// CI smoke test diffs them; docs/serving.md documents the schema).
//
// Also home to the request-side helpers both front ends share: grid parsing
// ("512" / "64x64") and bounds, byte counts, ramp-latency parsing, and registry
// algorithm-name resolution with the CLI's short forms ("Chain" ->
// "Chain+Bcast" / "X-Y Chain" depending on family).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "runtime/planner.hpp"

namespace wsr::runtime {

class PlanCache;

/// Appends the full plan response to `out`:
///
///   {"collective":..., "grid":{...}, "vec_len":..., "bytes_per_pe":...,
///    "algorithm":..., [descriptor metadata,] <extra_fields>
///    "predicted_cycles":..., "predicted_us":..., "terms":{...},
///    "schedule":{...}}
///
/// Descriptor metadata (color_budget / auto_selectable / model_generated)
/// is present when the chosen algorithm resolves in the registry.
/// `extra_fields` is spliced verbatim at the marked position — each field
/// must carry its own trailing comma (e.g. "\"cache_tier\":\"disk\",").
/// The plan's algorithm label and schedule name are escaped JSON strings
/// (a restored record carries them), so the object is always one line.
/// The schedule is appended in place (wse::append_json), and what `out`
/// already holds is kept, so a batch writes its responses back to back.
/// Deterministic: the same (request, plan, machine) always yields the same
/// bytes, which is what makes warm-restart responses diffable against the
/// cold run.
void append_plan_response_json(std::string& out, const PlanRequest& req,
                               const Plan& plan, const MachineParams& mp,
                               std::string_view extra_fields = {});

/// The plan response alone: append_plan_response_json into an empty string.
std::string plan_response_json(const PlanRequest& req, const Plan& plan,
                               const MachineParams& mp,
                               std::string_view extra_fields = {});

/// One JSON field "plan_cache":{"hits":..,"misses":..,"evictions":..[,disk]}
/// with a trailing comma, ready for `extra_fields`. Persistent-tier
/// counters (`disk_hits`, `disk_misses`, `disk_appends`, `disk_entries`,
/// all from the file tier's ledger) appear only when a store is attached.
std::string plan_cache_counters_json(const PlanCache& cache);

/// Parses "512" (a 1D row) or "64x64"; nullopt when malformed or either
/// extent is zero.
std::optional<GridShape> parse_grid(const std::string& text);

/// The largest grid width or height a front end plans. It covers a whole
/// WSE-2 wafer and bounds the worst accepted request: the Auto-Gen DP table
/// grows with the largest extent, and far past it planning aborts or runs
/// out of memory.
inline constexpr u32 kMaxGridExtent = 1024;

/// Why a front end refuses to plan `grid` (fewer than 2 PEs, or an extent
/// above kMaxGridExtent); empty when it can be planned.
std::string grid_error(GridShape grid);

/// The vector length a per-PE byte count asks for: `bytes` must be a
/// positive multiple of 4 with bytes / 4 <= 2^32 - 1; nullopt otherwise.
std::optional<u32> vec_len_for_bytes(u64 bytes);

/// Parses a per-PE byte count: decimal digits only, then vec_len_for_bytes.
std::optional<u32> parse_bytes(const std::string& text);

/// The largest ramp latency T_R a front end accepts.
inline constexpr u32 kMaxRampLatency = 1024;

/// Parses a ramp latency: decimal digits only, at most kMaxRampLatency;
/// nullopt otherwise.
std::optional<u32> parse_ramp_latency(const std::string& text);

/// Resolves a user-supplied algorithm name against the registry, accepting
/// the short forms of the underlying 1D pattern names ("Chain" resolves to
/// "Chain+Bcast" for an AllReduce and "X-Y Chain" on a 2D grid). Empty
/// when nothing matches.
std::string resolve_algorithm_name(registry::Collective c, registry::Dims dims,
                                   const std::string& name);

/// Whether model-driven selection has at least one applicable candidate
/// for this request. Planner::plan *asserts* (aborts) when selection comes
/// up empty — e.g. a 1xH column grid is dims-wise 2D but no 2D algorithm
/// builds on width 1 — so serving front ends must gate on this before
/// planning and answer a clean error instead.
bool any_applicable_algorithm(registry::Collective c, GridShape grid,
                              u32 vec_len);

}  // namespace wsr::runtime
