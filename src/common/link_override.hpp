// Per-link fabric overrides: the degraded-hardware axis of MachineParams.
//
// A wafer carries manufacturing defects and field failures; the paper's
// model assumes a pristine full-rate mesh. A LinkOverride describes one
// *directed* router-to-router link whose behaviour deviates from that
// assumption:
//
//   * factor == 0: the link is failed — no traffic may cross it. Schedules
//     that route across a failed link are rejected before simulation, and
//     the model prices every such plan as unroutable.
//   * factor >= 2: the link is throttled to one wavelet per `factor`
//     cycles (a pristine link moves one per cycle). Both simulators honor
//     the throttle and the model scales its prediction by the worst factor
//     inside the grid.
//
// The override names the link leaving PE (x, y) towards `dir`; the reverse
// direction of the physical channel is a separate override (full-duplex
// links can fail one way). Overrides outside a given grid footprint are
// inert for that grid — one machine description serves every sub-grid.
#pragma once

#include <compare>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/grid.hpp"

namespace wsr {

struct LinkOverride {
  u32 x = 0;             ///< source PE coordinate
  u32 y = 0;
  Dir dir = Dir::East;   ///< outgoing mesh direction from (x, y)
  u32 factor = 0;        ///< 0 = failed; k >= 2 = one wavelet per k cycles

  bool failed() const { return factor == 0; }

  friend bool operator==(const LinkOverride&, const LinkOverride&) = default;
  friend auto operator<=>(const LinkOverride&, const LinkOverride&) = default;
};

/// True when the override names a link that exists inside `grid` (source
/// in-bounds and a neighbor in `dir`). Ramp is never a mesh link.
bool override_in_grid(const LinkOverride& o, const GridShape& grid);

/// Parses "X,Y,DIR" (failed link) or "X,Y,DIR,FACTOR" where DIR is one of
/// E/W/N/S (case-insensitive). FACTOR 1 means "pristine" and is accepted
/// but pointless; Ramp is not a mesh link and is rejected. nullopt on any
/// malformed field.
std::optional<LinkOverride> parse_link_override(std::string_view spec);

/// "X,Y,DIR,FACTOR" — the parseable inverse of parse_link_override.
std::string to_string(const LinkOverride& o);

}  // namespace wsr
