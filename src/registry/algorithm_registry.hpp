// The unified algorithm registry: the single extension point for collective
// algorithms across the model, the schedule builders and the runtime.
//
// Every algorithm registers ONE descriptor carrying its name, applicability
// predicate, cost model hook and schedule builder, following the pluggable
// cost-model idiom of the Halide autoscheduler. Selection, prediction and
// construction are registry queries: runtime::Planner::candidates() prices
// a family's descriptors into the one candidate table that selection, the
// figure benches and the tests read. Adding an algorithm means registering
// one descriptor, and it automatically appears in the planner's candidate
// table, every figure bench and the wsr_plan CLI.
//
// Layering (see DESIGN.md §1/§6): the registry sits above model/, autogen/
// and collectives/ (its builtin descriptors call into all three) and below
// runtime/, whose Planner hands the hooks their PlanContext. Nothing below it
// calls back up: collectives compose their lanes through
// collectives::build_reduce, and tools/check_layers.py pins the rule.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/grid.hpp"
#include "model/cost.hpp"
#include "model/params.hpp"
#include "wse/schedule.hpp"

namespace wsr::registry {

/// Which collective operation a descriptor implements. (Previously
/// runtime::Collective; moved here so every layer can key on it.)
/// Values are serialized in plan-store records — append only, never reorder.
enum class Collective : u8 { Broadcast, Reduce, AllReduce, AllGather, ReduceScatter };

const char* name(Collective c);

/// Grid dimensionality a descriptor serves. 1D algorithms run on a row
/// {P, 1}; 2D algorithms need a proper grid.
enum class Dims : u8 { OneD = 1, TwoD = 2 };

const char* name(Dims d);

constexpr Dims dims_for(GridShape grid) {
  return grid.is_row() ? Dims::OneD : Dims::TwoD;
}

/// Shared state handed to every descriptor hook: the machine parameters.
/// Auto-Gen hooks build their DP view sized by the request's own extent
/// (autogen::AutoGenModel over the process-wide table).
/// runtime::Planner::context() makes one.
struct PlanContext {
  MachineParams mp;
};

/// One registered algorithm. `name` is the stable identity within a
/// (collective, dims) family and doubles as the label shown in figures,
/// plans and the CLI (e.g. "Tree+Bcast", "X-Y TwoPhase", "Snake").
///
/// The name is a *serialization contract*: persisted plans and wire
/// requests reference algorithms by (collective, dims, name) only — never
/// by registration index or function identity — so renaming an algorithm
/// invalidates its cached plans (by design, a clean miss) while reordering
/// or adding registrations never can. Hooks must be pure functions of
/// their arguments: descriptors are shared across threads without
/// synchronization, and selection determinism (same inputs -> same chosen
/// algorithm -> same schedule, on every process) rests on it.
struct AlgorithmDescriptor {
  std::string name;
  Collective collective = Collective::Reduce;
  Dims dims = Dims::OneD;

  /// Worst-case number of distinct router colors the built schedule uses
  /// (the hardware provides 24; compositions must budget within that).
  u32 color_budget = 1;

  /// Participates in model-driven selection. Extensions kept out of the
  /// paper's selection story (MidRoot, X-Y Mixed, X-Y Ring) register with
  /// false: they are buildable on request and listed by introspection, but
  /// the default planner path ignores them so selection semantics stay
  /// pinned to the paper's candidate sets.
  bool auto_selectable = true;

  /// True for DP-generated entries (Auto-Gen based). The paper's Figures 8
  /// and 10 map the fixed algorithms only, so they skip these rows of the
  /// planner's candidate table.
  bool model_generated = false;

  /// Whether the algorithm can be *constructed* for (grid, vec_len) —
  /// e.g. Ring needs vec_len % P == 0. cost() stays callable regardless
  /// (the figures plot predictions outside the constructible region).
  std::function<bool(GridShape, u32)> applicable;

  /// Model prediction for (grid, vec_len).
  std::function<Prediction(GridShape, u32, const PlanContext&)> cost;

  /// Optional pure-Eq.(1) synthesis used for lower-bound comparisons
  /// (Fig. 1); defaults to `cost`. Only Star overrides it: its runtime
  /// prediction uses the sharper pipeline argument that dips below the
  /// model-level bound at tiny B.
  std::function<Prediction(GridShape, u32, const PlanContext&)> model_cost;

  /// Compiles the algorithm into a validated Schedule.
  std::function<wse::Schedule(GridShape, u32, const PlanContext&)> build;

  /// Optional human-facing label override for plans whose concrete shape is
  /// input-dependent (X-Y Mixed reports the chosen per-axis pair, e.g.
  /// "X-Y TwoPhase/Star"). Defaults to `name`.
  std::function<std::string(GridShape, u32, const PlanContext&)> display_label;

  /// Label for the plan this descriptor produces on (grid, vec_len).
  std::string label(GridShape grid, u32 vec_len, const PlanContext& ctx) const {
    return display_label ? display_label(grid, vec_len, ctx) : name;
  }

  /// cost() falling back through model_cost for Fig. 1-style comparisons.
  Prediction lower_bound_comparable_cost(GridShape grid, u32 vec_len,
                                         const PlanContext& ctx) const {
    return model_cost ? model_cost(grid, vec_len, ctx)
                      : cost(grid, vec_len, ctx);
  }
};

/// Process-wide registry. Built-in algorithms register on first access;
/// queries are read-only and thread-safe afterwards. Within a family,
/// descriptors are kept sorted by name, which fixes both enumeration order
/// and the deterministic tie-break of model-driven selection.
///
/// Thread-safety contract: instance() is safe from any thread (C++ static
/// initialization), and all query methods are const and lock-free over
/// immutable state. register_algorithm is the one mutator — call it during
/// startup (static registrars, main before serving), not concurrently
/// with queries; descriptor addresses are stable forever after
/// registration, so cached `const AlgorithmDescriptor*` never dangle.
class AlgorithmRegistry {
 public:
  static AlgorithmRegistry& instance();

  /// Registers a descriptor. The (collective, dims, name) triple must be
  /// unique; cost/build/applicable must be set (asserted). Registration
  /// order is irrelevant to behaviour: families re-sort by name, so two
  /// binaries registering the same algorithms in any order select and
  /// enumerate identically.
  void register_algorithm(AlgorithmDescriptor desc);

  /// Descriptors of one family, sorted by name — the selection candidate
  /// order (the planner's strict-min scan makes ties break to the first,
  /// i.e. lexicographically smallest, name). With `selectable_only`,
  /// restricted to auto-selectable entries.
  std::vector<const AlgorithmDescriptor*> query(Collective c, Dims d,
                                                bool selectable_only = false) const;

  /// Looks up one descriptor by name; nullptr if absent.
  const AlgorithmDescriptor* find(Collective c, Dims d,
                                  std::string_view name) const;

  /// Checked lookup: asserts the descriptor exists (use when the name is a
  /// compile-time constant the caller relies on).
  const AlgorithmDescriptor& at(Collective c, Dims d,
                                std::string_view name) const;

  /// Every registered descriptor (sorted by collective, dims, name).
  std::vector<const AlgorithmDescriptor*> all() const;

 private:
  AlgorithmRegistry();

  // Descriptors never move after registration (stable addresses).
  std::vector<std::unique_ptr<AlgorithmDescriptor>> entries_;
};

}  // namespace wsr::registry
