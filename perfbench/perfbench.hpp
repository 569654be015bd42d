// Entry points of the wsr_perfbench subcommands (main.cpp parses argv and
// requires every flag a subcommand takes, so none of these fields has a
// default that could silently apply).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

struct SweepArgs {
  std::string workload;  ///< sweep_wafer | sweep_fabric
  u64 seed = 0;
  double seconds = 0;
  u32 jobs = 0;
  bool trace = false;
  std::string cells_out;  ///< per-cell simulated cycles listing ("" = none)
};

/// Runs one sweep workload and prints its one-line JSON report.
int run_sweep(const SweepArgs& a);

struct ServeArgs {
  u64 seed = 0;
  std::string store;      ///< prepared disk store directory
  std::string socket;     ///< wsrd Unix socket (load only)
  long daemon_pid = 0;    ///< wsrd's pid, for its peak RSS (load only)
  u32 conns = 0;
  u32 max_entries = 0;    ///< memory tier bound, as given to wsrd
  double rate = 0;        ///< offered rate of the fixed-rate phase
  double seconds = 0;     ///< length of the fixed-rate phase
  double ladder_seconds = 0;
  double replay_seconds = 0;  ///< in-process replays (serve-load)
  double limit_ms = 0;    ///< tail-latency limit of a ladder rung
};

/// Plans the seed's warm keys into a fresh disk store at `store`.
int serve_prepare(const ServeArgs& a);
/// The fixed-phase stream served in process through serving::Core for
/// `replay_seconds` (the gated serving numbers), split around open-loop
/// load against a running wsrd; then the output checks.
int serve_load(const ServeArgs& a);
/// The in-process replay of the same stream (untraced, traced, and through
/// serving::Core::serve_batch), on fresh copies of the prepared store.
int serve_trace(const ServeArgs& a);

}  // namespace perfbench
