#include "runtime/planner.hpp"

#include "model/degraded.hpp"

namespace wsr::runtime {

namespace {

/// The descriptor `req.algorithm` names, with predict()'s asserts.
const registry::AlgorithmDescriptor& named_descriptor(const PlanRequest& req) {
  const registry::AlgorithmDescriptor* desc =
      registry::AlgorithmRegistry::instance().find(
          req.collective, registry::dims_for(req.grid), req.algorithm);
  WSR_ASSERT(desc != nullptr,
             "unknown algorithm for this collective/dimensionality");
  WSR_ASSERT(desc->applicable(req.grid, req.vec_len),
             "algorithm not applicable to this (grid, vec_len)");
  return *desc;
}

/// A descriptor's cost priced for the machine's degraded links
/// (model/degraded.hpp) — identity on pristine machines.
Prediction priced(const registry::AlgorithmDescriptor& desc, GridShape grid,
                  u32 vec_len, const registry::PlanContext& ctx) {
  return apply_link_overrides(desc.cost(grid, vec_len, ctx), grid, ctx.mp);
}

}  // namespace

const Candidate* best_candidate(std::span<const Candidate> rows) {
  const Candidate* best = nullptr;
  for (const Candidate& row : rows) {
    if (!row.applicable) continue;
    if (best == nullptr || row.prediction.cycles < best->prediction.cycles) {
      best = &row;
    }
  }
  return best;
}

Planner::Planner(u32 max_pes, MachineParams mp) : max_pes_(max_pes), mp_(mp) {
  WSR_ASSERT(max_pes_ >= 2, "planner needs max_pes >= 2");
}

autogen::AutoGenModel Planner::autogen_model() const {
  return autogen::AutoGenModel(max_pes_, mp_);
}

std::shared_ptr<const autogen::LowerBound> Planner::lower_bound() const {
  return autogen::shared_table<autogen::LowerBound>(max_pes_);
}

Prediction Planner::predict(const PlanRequest& req) const {
  return priced(named_descriptor(req), req.grid, req.vec_len, context());
}

std::vector<Candidate> Planner::candidates(Collective collective,
                                           GridShape grid, u32 vec_len) const {
  const registry::PlanContext ctx = context();
  const std::vector<const registry::AlgorithmDescriptor*> family =
      registry::AlgorithmRegistry::instance().query(
          collective, registry::dims_for(grid), /*selectable_only=*/true);
  std::vector<Candidate> rows;
  rows.reserve(family.size());
  for (const registry::AlgorithmDescriptor* d : family) {
    Candidate row{d, d->applicable(grid, vec_len), {}};
    if (row.applicable) row.prediction = priced(*d, grid, vec_len, ctx);
    rows.push_back(row);
  }
  return rows;
}

Plan Planner::plan(const PlanRequest& req) const {
  const registry::PlanContext ctx = context();
  const registry::AlgorithmDescriptor* desc = nullptr;
  Prediction pred;
  if (!req.algorithm.empty()) {
    desc = &named_descriptor(req);
    pred = priced(*desc, req.grid, req.vec_len, ctx);
  } else {
    const std::vector<Candidate> rows =
        candidates(req.collective, req.grid, req.vec_len);
    const Candidate* best = best_candidate(rows);
    WSR_ASSERT(best != nullptr, "no applicable algorithm registered");
    desc = best->desc;
    pred = best->prediction;
  }
  return {desc->build(req.grid, req.vec_len, ctx), pred,
          desc->label(req.grid, req.vec_len, ctx)};
}

double Planner::reduce_1d_lower_bound(u32 num_pes, u32 vec_len) const {
  return autogen::shared_table<autogen::LowerBound>(num_pes)->cycles(
      num_pes, vec_len, mp_);
}

}  // namespace wsr::runtime
