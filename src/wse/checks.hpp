// Static validation of Schedules before simulation.
//
// The CS-2 routing fabric has sharp edges ("two wavelets on the same color in
// the same cycle is undefined behaviour", only 24 colors, ...). We cannot
// statically prove race freedom in general, but we can catch the common
// compilation bugs cheaply; the simulators catch the rest dynamically.
#pragma once

#include <string>
#include <vector>

#include "common/link_override.hpp"
#include "wse/schedule.hpp"

namespace wsr::wse {

/// Returns a list of human-readable problems; empty means the schedule passed
/// all static checks:
///   * grid/program/rule array sizes agree, and every result PE is on
///     the grid,
///   * every rule has count > 0 and a non-empty forward set,
///   * no rule forwards back into its accept direction,
///   * no rule accepts from or forwards beyond the grid boundary,
///   * op dependencies are in-range and acyclic,
///   * per-PE, the total wavelets each color's rules accept from the ramp
///     matches what the PE program sends on that color (and the mirror
///     condition for ramp-bound forwards vs receives),
///   * every rule and op color is one of the machine's ids (0..23), and
///     the number of distinct colors fits the machine (24).
std::vector<std::string> validate(const Schedule& s);

/// Asserts that validate() found no problems (test/bench convenience).
void check_valid(const Schedule& s);

/// True when any routing rule of `s` forwards traffic across a link that an
/// override marks failed (factor == 0). Such a schedule can never complete
/// on that machine: FabricSim refuses to construct it, and the planner
/// prices every algorithm on that fabric as unroutable. Overrides naming
/// links outside the schedule's grid are ignored.
bool schedule_crosses_failed_link(const Schedule& s,
                                  const std::vector<LinkOverride>& overrides);

}  // namespace wsr::wse
