// FlowSim: a flow-level simulator over the same Schedule IR as FabricSim.
//
// Instead of stepping cycles, FlowSim propagates *stream segments* (the
// contiguous wavelet runs emitted by each PE op) through the routing rules as
// a deterministic dataflow:
//
//   * every link moves 1 wavelet/cycle, so a segment is fully described by
//     its head-arrival time and length;
//   * only segment heads can stall: router rules serialize traffic, and the
//     per-(router, color) rule sequence defines a total order, so a segment's
//     constrained head time is max(arrival, rule availability) and the rule
//     becomes available again `len` cycles later;
//   * once a head is unblocked, the pipeline behind it drains at full rate
//     (link registers hold exactly one wavelet: there is no slack to absorb
//     a stall), so tails are head + len - 1 throughout.
//
// This makes the cost of simulating a collective proportional to
// (#segments x path length) ~= energy / B instead of (#PEs x #cycles),
// which is what lets us run the paper's 512x512 experiments (Fig. 13).
//
// Known approximation (documented in DESIGN.md): a Send op's completion time
// ignores back-pressure onto the sender. Completion of receives — which is
// what gates every dependency in the generated schedules — is exact. FlowSim
// is cross-validated against FabricSim cycle counts in tests/test_flowsim.cpp
// across all patterns.
#pragma once

#include <vector>

#include "common/link_override.hpp"
#include "common/types.hpp"
#include "wse/schedule.hpp"

namespace wsr::flowsim {

struct FlowOptions {
  u32 ramp_latency = 2;  ///< T_R, must match the FabricSim options.
  /// Degraded hardware (common/link_override.hpp). A segment crossing a
  /// throttled link is stretched to one wavelet per `factor` cycles — the
  /// stretch rides the segment downstream (a slow hop gates everything
  /// behind it, matching the cycle-level back-pressure to first order).
  /// Routing across a *failed* link asserts, exactly like FabricSim.
  /// Overrides naming links outside the schedule's grid are ignored.
  std::vector<LinkOverride> link_overrides;
};

struct FlowResult {
  i64 cycles = 0;
};

/// Runs the schedule at flow level and returns the completion time. An op
/// that never completes aborts (a flow-level deadlock or unmatched traffic),
/// as do stray traffic, a segment crossing a routing-rule boundary, traffic
/// after a lane's last rule retired and traffic routed across a failed link.
FlowResult run_flow(const wse::Schedule& schedule, FlowOptions options = {});

}  // namespace wsr::flowsim
