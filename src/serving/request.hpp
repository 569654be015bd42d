// Request-side grammar of the wsrd wire protocol (docs/serving.md): one
// NDJSON line -> one validated Request, ready for Core::serve_batch.
//
// Extracted from tools/wsrd.cpp so every front end (the epoll daemon, the
// --pipe stream, unit tests) parses identically: a response is always the
// same bytes for the same line, whichever transport carried it.
#pragma once

#include <string>

#include "model/cost.hpp"
#include "runtime/planner.hpp"

namespace wsr::serving {

/// One parsed input line: exactly one of `error`, `stats`, a cache-peering
/// op, or a plan job. `t_enqueue_us` stamps when the line was parsed;
/// Core::serve_batch records the service latency (parse -> response bytes
/// ready) against it.
struct Request {
  std::string id_json;  ///< echoed "id" value, already serialized ("" = none)
  std::string error;    ///< non-empty = answer {"error":...} for this slot;
                        ///< plain text, escaped once when it is written
  bool stats = false;
  bool cache_get = false;  ///< peering lookup; payload = base64 PlanKey
  bool cache_put = false;  ///< peering insert; payload = base64 record
  std::string cache_payload;  ///< raw base64 field (decoded by Core)
  u64 cache_schema = 0;       ///< "schema" field; 0 = not given
  runtime::PlanRequest req;
  MachineParams mp;
  i64 t_enqueue_us = 0;

  bool is_cache() const { return cache_get || cache_put; }
  bool is_plan() const { return error.empty() && !stats && !is_cache(); }
};

/// Parses and validates one request line. Never throws and never aborts:
/// anything malformed or unplannable comes back as Request::error, which
/// serve_batch answers in-band. The returned request is stamped with
/// now_us().
Request parse_request(const std::string& text);

/// An in-band error line: {"error":"<code>"} with the optional pre-serialized
/// id field spliced in. `code` must already be escape-free (the protocol's
/// error codes are fixed tokens: "overloaded", "too_large", "timeout", ...).
std::string error_response(const std::string& code,
                           const std::string& id_json = "");

}  // namespace wsr::serving
