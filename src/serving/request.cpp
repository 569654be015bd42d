#include "serving/request.hpp"

#include <cstdio>

#include "common/minijson.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/plan_json.hpp"
#include "serving/histogram.hpp"

namespace wsr::serving {

std::string error_response(const std::string& code,
                           const std::string& id_json) {
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\":" + id_json + ",";
  out += "\"error\":\"" + code + "\"}\n";
  return out;
}

Request parse_request(const std::string& text) {
  Request line;
  line.t_enqueue_us = now_us();
  std::string parse_error;
  const auto parsed = json::parse(text, &parse_error);
  if (!parsed.has_value()) {
    line.error = "invalid JSON: ";
    line.error += parse_error;
    return line;
  }
  const json::Value& v = *parsed;
  if (!v.is_object()) {
    line.error = "request must be a JSON object";
    return line;
  }

  // Echo "id" (number or string) so clients can correlate pipelined
  // responses; other types are a request error.
  if (const json::Value* id = v.get("id")) {
    if (id->is_string()) {
      line.id_json.push_back('"');
      line.id_json += json::escape(id->string);
      line.id_json.push_back('"');
    } else if (id->is_number()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", id->number);
      line.id_json = buf;
    } else {
      line.error = "\"id\" must be a number or a string";
      return line;
    }
  }

  const std::string verb = v.get_string("verb", "plan");
  if (verb == "stats") {
    line.stats = true;
    return line;
  }
  if (verb == "cache_get" || verb == "cache_put") {
    // Peering verbs (docs/serving.md): the payload stays opaque base64 here;
    // Core decodes and answers (or rejects the verb when --serve-cache is
    // off). "schema" other than the daemon's own is answered as a miss, so
    // mixed-version fleets degrade instead of erroring.
    const char* field = verb == "cache_get" ? "key" : "record";
    const json::Value* payload = v.get(field);
    if (payload == nullptr || !payload->is_string()) {
      line.error = std::string("\"") + field + "\" must be a base64 string";
      return line;
    }
    line.cache_payload = payload->string;
    if (const auto schema = v.get_uint("schema")) line.cache_schema = *schema;
    if (verb == "cache_get") {
      line.cache_get = true;
    } else {
      line.cache_put = true;
    }
    return line;
  }
  if (verb != "plan") {
    line.error = "unknown verb \"" + verb +
                 "\" (expected \"plan\", \"stats\", \"cache_get\" or "
                 "\"cache_put\")";
    return line;
  }

  const std::string collective = v.get_string("collective");
  if (collective == "reduce") {
    line.req.collective = runtime::Collective::Reduce;
  } else if (collective == "allreduce") {
    line.req.collective = runtime::Collective::AllReduce;
  } else if (collective == "broadcast") {
    line.req.collective = runtime::Collective::Broadcast;
  } else if (collective == "allgather") {
    line.req.collective = runtime::Collective::AllGather;
  } else if (collective == "reducescatter" || collective == "reduce-scatter") {
    line.req.collective = runtime::Collective::ReduceScatter;
  } else {
    line.error =
        "\"collective\" must be reduce | allreduce | broadcast | allgather "
        "| reducescatter";
    return line;
  }

  const json::Value* grid = v.get("grid");
  if (grid == nullptr) {
    line.error = "missing \"grid\"";
    return line;
  }
  if (grid->is_string()) {
    const auto parsed_grid = runtime::parse_grid(grid->string);
    if (!parsed_grid.has_value()) {
      line.error = "\"grid\" must be \"P\" or \"WxH\"";
      return line;
    }
    line.req.grid = *parsed_grid;
  } else if (grid->is_object()) {
    const auto w = grid->get_uint("width");
    const auto h = grid->get_uint("height");
    if (!w.has_value() || !h.has_value() || *w == 0 || *h == 0 ||
        *w > 0xffffffffull || *h > 0xffffffffull) {
      line.error = "\"grid\" object needs positive \"width\" and \"height\"";
      return line;
    }
    line.req.grid = {static_cast<u32>(*w), static_cast<u32>(*h)};
  } else {
    line.error = "\"grid\" must be a string or an object";
    return line;
  }
  if (const std::string why = runtime::grid_error(line.req.grid);
      !why.empty()) {
    line.error = why;
    return line;
  }

  const auto bytes = v.get_uint("bytes");
  const auto vec_len = v.get_uint("vec_len");
  if (bytes.has_value() == vec_len.has_value()) {
    line.error = "give exactly one of \"bytes\" (multiple of 4) or \"vec_len\"";
    return line;
  }
  if (bytes.has_value()) {
    const auto words = runtime::vec_len_for_bytes(*bytes);
    if (!words.has_value()) {
      line.error = "\"bytes\" must be a positive multiple of 4";
      return line;
    }
    line.req.vec_len = *words;
  } else {
    if (*vec_len == 0 || *vec_len > 0xffffffffull) {
      line.error = "\"vec_len\" must be a positive wavelet count";
      return line;
    }
    line.req.vec_len = static_cast<u32>(*vec_len);
  }

  if (v.get("tr") != nullptr) {
    const auto tr = v.get_uint("tr");
    if (!tr.has_value() || *tr > runtime::kMaxRampLatency) {
      line.error = "\"tr\" must be an integer ramp latency in 0.." +
                   std::to_string(runtime::kMaxRampLatency);
      return line;
    }
    line.mp.ramp_latency = static_cast<u32>(*tr);
  }

  // Degraded-fabric description: an array of "X,Y,DIR[,FACTOR]" link
  // overrides (common/link_override.hpp), part of the machine key — the
  // same shape on a different defect map is a different cached plan.
  if (const json::Value* lo = v.get("link_overrides")) {
    if (lo->type != json::Value::Type::Array) {
      line.error = "\"link_overrides\" must be an array of \"X,Y,DIR[,FACTOR]\"";
      return line;
    }
    for (const json::Value& item : lo->array) {
      std::optional<LinkOverride> o;
      if (item.is_string()) o = parse_link_override(item.string);
      if (!o.has_value()) {
        line.error =
            "\"link_overrides\" entries must be \"X,Y,DIR\" (failed) or "
            "\"X,Y,DIR,FACTOR\" with DIR one of E/W/N/S";
        return line;
      }
      line.mp.link_overrides.push_back(*o);
    }
  }

  const std::string algo = v.get_string("algorithm");
  if (!algo.empty()) {
    const registry::Dims dims = registry::dims_for(line.req.grid);
    line.req.algorithm =
        runtime::resolve_algorithm_name(line.req.collective, dims, algo);
    if (line.req.algorithm.empty()) {
      line.error = "unknown algorithm \"" + algo +
                   "\" for this collective/grid";
      return line;
    }
    const registry::AlgorithmDescriptor* desc =
        registry::AlgorithmRegistry::instance().find(
            line.req.collective, dims, line.req.algorithm);
    if (!desc->applicable(line.req.grid, line.req.vec_len)) {
      line.error = "algorithm \"" + line.req.algorithm +
                   "\" is not applicable to this (grid, vec_len)";
      return line;
    }
  } else if (!runtime::any_applicable_algorithm(
                 line.req.collective, line.req.grid, line.req.vec_len)) {
    // e.g. a 1xH column grid: dims-wise 2D, but nothing builds on width 1.
    // Planner::plan would abort on this; answer an error instead.
    line.error = "no applicable algorithm for this collective/grid/bytes";
    return line;
  }
  return line;
}

}  // namespace wsr::serving
