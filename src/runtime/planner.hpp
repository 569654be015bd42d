// Runtime facade: unified prediction, algorithm selection and schedule
// construction for all collectives, including the DP-backed Auto-Gen.
//
// This is the "model-driven methodology" layer of the paper: given (grid, B),
// the planner predicts every registered candidate's runtime with the
// performance model, picks the best, and emits the corresponding Schedule.
//
// Enumeration and dispatch flow through the AlgorithmRegistry. The planner
// offers one priced candidate table per request (`candidates()`, one row per
// auto-selectable descriptor of the family), one named price (`predict()`),
// and one selection rule over the table (`best_candidate()`); `plan()` is
// the best row followed by its build, so what a figure or an explanation
// reads from the table is exactly what the planner selects on. The serving
// path plans through a shared PlanCache (runtime/plan_cache.hpp).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "autogen/dp.hpp"
#include "autogen/lower_bound.hpp"
#include "collectives/collectives.hpp"
#include "registry/algorithm_registry.hpp"

namespace wsr::runtime {

/// Which collective operation a plan implements. (The enum itself now lives
/// with the registry; this alias keeps the historical spelling working.)
using Collective = registry::Collective;
using registry::name;

/// A finished plan: the compiled schedule, the model prediction it was
/// selected on, and the chosen algorithm's display label. Plans are
/// immutable once built — every consumer (caches, the daemon, batch
/// callers) shares them as shared_ptr<const Plan> without copying, and
/// the persistent store serializes them bit-stably (the label rides
/// along; the *identity* that round-trips the registry is the request's
/// algorithm name, see persistent_plan_cache.hpp).
struct Plan {
  wse::Schedule schedule;
  Prediction prediction;
  std::string algorithm;
};

/// One planning request, the unit of plan() and PlanCache.
/// Equality is field-wise and is what cache keying builds on (plus the
/// planner's MachineParams, which live outside the request).
struct PlanRequest {
  Collective collective = Collective::Reduce;
  GridShape grid;
  u32 vec_len = 0;
  /// Registry algorithm name ("Tree+Bcast", "Snake", ...); empty selects
  /// the model-predicted best among the applicable candidates.
  std::string algorithm;

  friend bool operator==(const PlanRequest&, const PlanRequest&) = default;
};

/// One row of a candidate table: a descriptor of the request's family,
/// whether it can be built for (grid, vec_len), and its model prediction
/// priced for the machine's link overrides. Only applicable rows are
/// priced; an inapplicable row's prediction stays zero.
struct Candidate {
  const registry::AlgorithmDescriptor* desc = nullptr;
  bool applicable = false;
  Prediction prediction;
};

/// The one selection rule: the first applicable row with the fewest
/// predicted cycles, or null when no row applies. Over a name-ordered
/// table (Planner::candidates) ties go to the smallest name.
const Candidate* best_candidate(std::span<const Candidate> rows);

/// The planner: model-driven algorithm selection + schedule compilation
/// for one machine parameterization.
///
/// A plain value holding the machine and a size. The Auto-Gen and
/// lower-bound tables it reads are the process-wide ones
/// (autogen::shared_table), which never read the machine, so a planner per
/// request costs a copy of its MachineParams, and a const Planner is safe
/// to share across threads.
///
/// Determinism: planning is a pure function of (request, MachineParams).
/// Selection is best_candidate over the name-sorted candidate table, so
/// ties always break to the lexicographically smallest registration name;
/// schedule builders are deterministic, and every table size answers
/// exactly alike. Two planners with equal MachineParams therefore produce
/// byte-identical plans for the same request — the invariant that makes
/// plans cacheable across processes (PlanCache keys carry MachineParams but
/// not max_pes) and lets the wsrd daemon diff bit-exact against the
/// wsr_plan CLI.
class Planner {
 public:
  /// `max_pes` (>= 2, asserted) sizes what autogen_model() and
  /// lower_bound() return; planning sizes its Auto-Gen views by each
  /// request's own extent.
  explicit Planner(u32 max_pes, MachineParams mp = {});

  const MachineParams& machine() const { return mp_; }
  u32 max_pes() const { return max_pes_; }
  /// This machine's Auto-Gen model over rows of up to max_pes() PEs, a view
  /// on the process-wide table (the first call for a size fills it).
  autogen::AutoGenModel autogen_model() const;
  /// The process-wide lower-bound table covering max_pes().
  std::shared_ptr<const autogen::LowerBound> lower_bound() const;

  /// The registry context for this planner: its machine parameters.
  registry::PlanContext context() const { return {mp_}; }

  // --- the registry-driven core --------------------------------------------

  /// The cost of the algorithm `req` names, priced for the machine's link
  /// overrides (model/degraded.hpp; identity on a pristine machine).
  ///
  /// Contract: `req.algorithm` must be an exact registry name for the
  /// request's (collective, dims) family *and* applicable to
  /// (grid, vec_len) — both are asserted, so front ends validate first
  /// (wsr_plan and wsrd resolve/validate via runtime/plan_json.hpp).
  Prediction predict(const PlanRequest& req) const;

  /// The candidate table of one request family: one row per auto-selectable
  /// descriptor of (collective, dims_for(grid)), in name order. Rows are
  /// priced exactly as predict() would price them, and only when applicable.
  std::vector<Candidate> candidates(Collective collective, GridShape grid,
                                    u32 vec_len) const;

  /// Plans one request: the named algorithm when `req.algorithm` is set
  /// (same contract as predict()), otherwise
  /// best_candidate(candidates(...)), which asserts that some row applies.
  /// The returned Plan is self-contained and immutable-by-convention: safe
  /// to share, cache, and serialize (runtime/persistent_plan_cache.hpp).
  Plan plan(const PlanRequest& req) const;

  /// T*(P, B): the paper's 1D Reduce lower bound, in cycles.
  double reduce_1d_lower_bound(u32 num_pes, u32 vec_len) const;

 private:
  u32 max_pes_;
  MachineParams mp_;
};

}  // namespace wsr::runtime
