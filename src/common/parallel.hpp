// Minimal data-parallel primitive shared by the serving path
// (serving::Core::serve_batch) and the bench sweep engine
// (bench::SweepRunner).
//
// `parallel_for_index` runs fn(0..n-1) across `jobs` threads with dynamic
// (atomic-counter) scheduling. Determinism contract: which thread runs
// which index is *not* deterministic, so callers must make each index write
// only its own output slot — then results are identical at any thread
// count. Every caller follows that contract; tests pin it for the sweep
// engine and for batches planned through a PlanCache
// (tests/test_sweep_determinism.cpp, tests/test_plan_cache.cpp).
#pragma once

#include <cstddef>
#include <functional>

#include "common/types.hpp"

namespace wsr {

/// Number of workers to use when the caller asked for "all of them".
u32 hardware_jobs();

/// Runs fn(i) for every i in [0, n). `jobs` == 0 means hardware_jobs();
/// `jobs` is additionally capped by n. jobs <= 1 runs inline (no threads),
/// which is the reference behaviour parallel runs must reproduce.
void parallel_for_index(std::size_t n, u32 jobs,
                        const std::function<void(std::size_t)>& fn);

}  // namespace wsr
