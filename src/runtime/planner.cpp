#include "runtime/planner.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "model/degraded.hpp"
#include "runtime/plan_cache.hpp"

namespace wsr::runtime {

namespace {

/// Registry name of a legacy (Reduce2DAlgo, ReduceAlgo) pair:
/// "Snake", or "X-Y <pattern>" for the per-axis compositions.
std::string reduce_2d_descriptor_name(Reduce2DAlgo algo2d, ReduceAlgo xy_algo) {
  std::string n = wsr::name(algo2d);
  if (algo2d == Reduce2DAlgo::XY) n += std::string(" ") + wsr::name(xy_algo);
  return n;
}

const registry::AlgorithmDescriptor& find_or_die(Collective c,
                                                 registry::Dims dims,
                                                 const std::string& name) {
  return registry::AlgorithmRegistry::instance().at(c, dims, name);
}

struct Selected {
  const registry::AlgorithmDescriptor* desc = nullptr;
  Prediction pred;
};

/// The one selection policy: applicability-gated strict-min scan over
/// name-sorted candidates, so ties break towards the lexicographically
/// smallest registration name. Predictions are priced for the machine's
/// degraded links (model/degraded.hpp) — identity on pristine machines.
Selected select_best(
    const std::vector<const registry::AlgorithmDescriptor*>& candidates,
    GridShape grid, u32 vec_len, const registry::PlanContext& ctx) {
  Selected best;
  for (const registry::AlgorithmDescriptor* d : candidates) {
    if (!d->applicable(grid, vec_len)) continue;
    const Prediction p =
        apply_link_overrides(d->cost(grid, vec_len, ctx), grid, ctx.mp);
    if (best.desc == nullptr || p.cycles < best.pred.cycles) best = {d, p};
  }
  return best;
}

}  // namespace

Planner::Planner(u32 max_pes, MachineParams mp) : max_pes_(max_pes), mp_(mp) {
  WSR_ASSERT(max_pes_ >= 2, "planner needs max_pes >= 2");
}

Planner Planner::with_link_overrides(
    std::vector<LinkOverride> link_overrides) const {
  Planner p = *this;
  p.mp_.link_overrides = std::move(link_overrides);
  return p;
}

const autogen::AutoGenModel& Planner::autogen_model() const {
  std::lock_guard<std::mutex> lock(tables_->mu);
  if (!tables_->autogen) {
    tables_->autogen = std::make_unique<autogen::AutoGenModel>(max_pes_, mp_);
  }
  return *tables_->autogen;
}

const autogen::LowerBound& Planner::lower_bound() const {
  std::lock_guard<std::mutex> lock(tables_->mu);
  if (!tables_->lb) {
    tables_->lb = std::make_unique<autogen::LowerBound>(max_pes_, mp_);
  }
  return *tables_->lb;
}

registry::PlanContext Planner::context() const {
  return {mp_, [this]() -> const autogen::AutoGenModel& {
            return autogen_model();
          }};
}

Plan Planner::plan(const PlanRequest& req) const {
  const registry::PlanContext ctx = context();
  const registry::Dims dims = registry::dims_for(req.grid);
  const registry::AlgorithmRegistry& reg = registry::AlgorithmRegistry::instance();

  Selected chosen;
  if (!req.algorithm.empty()) {
    chosen.desc = reg.find(req.collective, dims, req.algorithm);
    WSR_ASSERT(chosen.desc != nullptr,
               "unknown algorithm for this collective/dimensionality");
    WSR_ASSERT(chosen.desc->applicable(req.grid, req.vec_len),
               "algorithm not applicable to this (grid, vec_len)");
    chosen.pred = apply_link_overrides(
        chosen.desc->cost(req.grid, req.vec_len, ctx), req.grid, ctx.mp);
  } else {
    chosen = select_best(reg.query(req.collective, dims,
                                   /*selectable_only=*/true),
                         req.grid, req.vec_len, ctx);
    WSR_ASSERT(chosen.desc != nullptr, "no applicable algorithm registered");
  }
  return {chosen.desc->build(req.grid, req.vec_len, ctx), chosen.pred,
          chosen.desc->label(req.grid, req.vec_len, ctx)};
}

std::vector<std::shared_ptr<const Plan>> Planner::plan_many(
    std::span<const PlanRequest> requests, PlanCache* cache, u32 num_threads,
    std::vector<PlanSource>* sources) const {
  std::vector<std::shared_ptr<const Plan>> out(requests.size());
  if (sources != nullptr) {
    sources->assign(requests.size(), PlanSource::Planned);
  }
  if (requests.empty()) return out;

  // Slot-per-index writes keep the result deterministic at any thread count
  // (the shared pool contract, common/parallel.hpp).
  parallel_for_index(requests.size(), num_threads, [&](std::size_t i) {
    out[i] = cache != nullptr
                 ? cache->get_or_plan(
                       *this, requests[i],
                       sources != nullptr ? &(*sources)[i] : nullptr)
                 : std::make_shared<const Plan>(plan(requests[i]));
  });
  return out;
}

Prediction Planner::predict_reduce_1d(ReduceAlgo algo, u32 num_pes,
                                      u32 vec_len) const {
  return find_or_die(Collective::Reduce, registry::Dims::OneD, wsr::name(algo))
      .cost({num_pes, 1}, vec_len, context());
}

Prediction Planner::predict_allreduce_1d(ReduceAlgo algo, u32 num_pes,
                                         u32 vec_len) const {
  return find_or_die(Collective::AllReduce, registry::Dims::OneD,
                     std::string(wsr::name(algo)) + "+Bcast")
      .cost({num_pes, 1}, vec_len, context());
}

Prediction Planner::predict_reduce_2d(Reduce2DAlgo algo2d, ReduceAlgo xy_algo,
                                      GridShape grid, u32 vec_len) const {
  return find_or_die(Collective::Reduce, registry::Dims::TwoD,
                     reduce_2d_descriptor_name(algo2d, xy_algo))
      .cost(grid, vec_len, context());
}

Prediction Planner::predict_allreduce_2d_xy(ReduceAlgo algo, GridShape grid,
                                            u32 vec_len) const {
  return find_or_die(Collective::AllReduce, registry::Dims::TwoD,
                     std::string("X-Y ") + wsr::name(algo))
      .cost(grid, vec_len, context());
}

double Planner::reduce_1d_lower_bound(u32 num_pes, u32 vec_len) const {
  return lower_bound().cycles(num_pes, vec_len);
}

Plan Planner::plan_reduce_1d(u32 num_pes, u32 vec_len,
                             std::optional<ReduceAlgo> algo) const {
  return plan({Collective::Reduce,
               {num_pes, 1},
               vec_len,
               algo.has_value() ? wsr::name(*algo) : ""});
}

Plan Planner::plan_allreduce_1d(u32 num_pes, u32 vec_len,
                                std::optional<ReduceAlgo> algo) const {
  return plan({Collective::AllReduce,
               {num_pes, 1},
               vec_len,
               algo.has_value() ? std::string(wsr::name(*algo)) + "+Bcast"
                                : ""});
}

Plan Planner::plan_broadcast_1d(u32 num_pes, u32 vec_len) const {
  return plan({Collective::Broadcast, {num_pes, 1}, vec_len, ""});
}

Plan Planner::plan_reduce_2d(GridShape grid, u32 vec_len,
                             std::optional<Reduce2DAlgo> algo2d,
                             std::optional<ReduceAlgo> xy_algo) const {
  std::string algorithm;
  if (algo2d.has_value() || xy_algo.has_value()) {
    algorithm =
        reduce_2d_descriptor_name(algo2d.value_or(Reduce2DAlgo::XY),
                                  xy_algo.value_or(ReduceAlgo::AutoGen));
  }
  return plan({Collective::Reduce, grid, vec_len, std::move(algorithm)});
}

Plan Planner::plan_reduce_2d_mixed(GridShape grid, u32 vec_len) const {
  // The mixed-axis entry point considers the self-optimizing "X-Y Mixed"
  // descriptor (which subsumes every same-axis X-Y assignment) against the
  // Snake, which still owns the bandwidth-bound corner. Name order, as in
  // every registry query.
  const registry::PlanContext ctx = context();
  const Selected chosen = select_best(
      {&find_or_die(Collective::Reduce, registry::Dims::TwoD, "Snake"),
       &find_or_die(Collective::Reduce, registry::Dims::TwoD, "X-Y Mixed")},
      grid, vec_len, ctx);
  WSR_ASSERT(chosen.desc != nullptr, "no applicable mixed 2D reduce candidate");
  return {chosen.desc->build(grid, vec_len, ctx), chosen.pred,
          chosen.desc->label(grid, vec_len, ctx)};
}

Plan Planner::plan_allreduce_2d(GridShape grid, u32 vec_len,
                                std::optional<ReduceAlgo> xy_algo) const {
  return plan({Collective::AllReduce, grid, vec_len,
               xy_algo.has_value()
                   ? std::string("X-Y ") + wsr::name(*xy_algo)
                   : ""});
}

Plan Planner::plan_broadcast_2d(GridShape grid, u32 vec_len) const {
  return plan({Collective::Broadcast, grid, vec_len, ""});
}

}  // namespace wsr::runtime
