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
// reads from the table is exactly what the planner selects on. `plan_many()`
// plans a batch of independent requests on worker threads, optionally backed
// by a shared PlanCache (runtime/plan_cache.hpp) — the serving-path API.
#pragma once

#include <memory>
#include <mutex>
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
/// immutable once built — every consumer (caches, the daemon, callers of
/// plan_many) shares them as shared_ptr<const Plan> without copying, and
/// the persistent store serializes them bit-stably (the label rides
/// along; the *identity* that round-trips the registry is the request's
/// algorithm name, see persistent_plan_cache.hpp).
struct Plan {
  wse::Schedule schedule;
  Prediction prediction;
  std::string algorithm;
};

/// One planning request, the unit of plan() / plan_many() / PlanCache.
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

class PlanCache;
enum class PlanSource : u8;

/// The planner: model-driven algorithm selection + schedule compilation
/// for one machine parameterization.
///
/// Thread-safety: a const Planner is safe to share across threads —
/// plan()/predict()/candidates() are logically const, and the two lazy
/// singletons (Auto-Gen model, lower bound) are built once behind an
/// internal mutex. plan_many relies on exactly this. Copies (and
/// with_link_overrides planners) share the singletons.
///
/// Determinism: planning is a pure function of (max_pes-independent
/// request, MachineParams). Selection is best_candidate over the
/// name-sorted candidate table, so ties always break to the
/// lexicographically smallest registration name; schedule builders are
/// deterministic. Two planners with equal MachineParams therefore produce
/// byte-identical plans for the same request — the invariant that makes
/// plans cacheable across processes (PlanCache keys carry MachineParams but
/// not max_pes) and lets the wsrd daemon diff bit-exact against the
/// wsr_plan CLI.
class Planner {
 public:
  /// `max_pes` bounds the Auto-Gen DP table (use the largest row/column
  /// length you will plan for; >= 2 asserted). Tables build lazily on
  /// first Auto-Gen use — constructing planners is cheap.
  explicit Planner(u32 max_pes, MachineParams mp = {});

  /// This planner with `link_overrides` as the machine's degraded links.
  /// It shares this planner's Auto-Gen and lower-bound tables, which read
  /// only the pristine timing (MachineParams::per_depth_cycles): one set of
  /// tables serves every defect map of a machine, so a front end can make
  /// one of these per request at the cost of a copy.
  Planner with_link_overrides(std::vector<LinkOverride> link_overrides) const;

  const MachineParams& machine() const { return mp_; }
  u32 max_pes() const { return max_pes_; }
  const autogen::AutoGenModel& autogen_model() const;
  const autogen::LowerBound& lower_bound() const;

  /// The registry context for this planner: its machine parameters plus the
  /// shared lazily-built Auto-Gen model. The context refers to this
  /// planner, so the planner must outlive it.
  registry::PlanContext context() const;

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

  /// Plans a batch of independent requests in parallel with std::thread
  /// workers. With a `cache`, each request goes through
  /// PlanCache::get_or_plan, so repeated shapes are planned once and shared.
  /// `num_threads` = 0 uses the hardware concurrency (capped by the batch
  /// size). The planner is safe to share across the workers.
  ///
  /// `sources`, when non-null, is resized to the batch and slot i receives
  /// the cache tier that answered request i (PlanSource::Planned for every
  /// request when no cache is given) — the daemon's per-request provenance.
  /// Results are deterministic at any thread count (each worker writes only
  /// its own slots), except that racing identical requests may legitimately
  /// observe different tiers.
  std::vector<std::shared_ptr<const Plan>> plan_many(
      std::span<const PlanRequest> requests, PlanCache* cache = nullptr,
      u32 num_threads = 0, std::vector<PlanSource>* sources = nullptr) const;

  /// T*(P, B): the paper's 1D Reduce lower bound, in cycles.
  double reduce_1d_lower_bound(u32 num_pes, u32 vec_len) const;

 private:
  /// The lazy singletons; `mu` guards them, since plan_many workers share
  /// the planner.
  struct Tables {
    std::mutex mu;
    std::unique_ptr<autogen::AutoGenModel> autogen;
    std::unique_ptr<autogen::LowerBound> lb;
  };

  u32 max_pes_;
  MachineParams mp_;
  std::shared_ptr<Tables> tables_ = std::make_shared<Tables>();
};

}  // namespace wsr::runtime
