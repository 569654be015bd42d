// Schedule serialization: JSON export for external tooling and a
// human-readable per-PE timeline from simulation results. The JSON is the
// stable interchange format a code generator for the real device would
// consume (the analogue of the paper's Python-emitted CSL sources).
#pragma once

#include <string>

#include "wse/fabric.hpp"
#include "wse/schedule.hpp"

namespace wsr::wse {

/// Appends the full schedule (name, grid, programs, rules, result PEs) to
/// `out` as one JSON object, leaving what `out` already holds intact. One
/// pass through std::to_chars into a buffer reserved once from the
/// schedule's PE, op and rule counts; the name is escaped (json::escape),
/// every other field is a number or a fixed token.
void append_json(std::string& out, const Schedule& s);

/// The schedule as JSON: append_json into an empty string.
std::string to_json(const Schedule& s);

/// Renders per-PE op completion times from a fabric run as an aligned text
/// timeline (one line per PE, ops in completion order). `max_pes` caps the
/// output for big grids.
std::string format_timeline(const Schedule& s, const FabricResult& result,
                            u32 max_pes = 32);

}  // namespace wsr::wse
