// 1D top-level constructors and build_reduce, the one lane dispatch that
// every Reduce, Reduce+Bcast AllReduce and 2D X-Y composition (twod.cpp)
// goes through. Adding a 1D reduce pattern means one ReduceAlgo value plus
// its case here and in predict_reduce_1d.
#include "collectives/collectives.hpp"
#include "wse/checks.hpp"

namespace wsr::collectives {

namespace {

GridShape row_grid(u32 num_pes) { return {num_pes, 1}; }

}  // namespace

Deps build_reduce(Schedule& s, const Lane& lane, ReduceAlgo algo,
                  const autogen::AutoGenModel* model, Color base,
                  const Deps& after, u32 two_phase_group) {
  switch (algo) {
    case ReduceAlgo::Star:
      return build_star_reduce(s, lane, base, after);
    case ReduceAlgo::Chain:
      return build_chain_reduce(s, lane, base, base + 1, after);
    case ReduceAlgo::Tree:
      return build_tree_reduce(s, lane, base, after);
    case ReduceAlgo::TwoPhase:
      return build_two_phase_reduce(
          s, lane,
          {base, static_cast<Color>(base + 1), static_cast<Color>(base + 2),
           static_cast<Color>(base + 3)},
          two_phase_group, after);
    case ReduceAlgo::AutoGen:
      WSR_ASSERT(model != nullptr, "Auto-Gen reduce needs the DP model");
      return build_autogen_reduce(s, lane, base, base + 1,
                                  model->build_tree(lane.size(), s.vec_len),
                                  after);
  }
  WSR_ASSERT(false, "unknown reduce algorithm");
  return {};
}

Schedule make_broadcast_1d(u32 num_pes, u32 vec_len) {
  Schedule s(row_grid(num_pes), vec_len, "broadcast-1d");
  build_broadcast(s, Lane::row(s.grid, 0), 0, no_deps(s));
  for (u32 pe = 0; pe < num_pes; ++pe) s.result_pes.push_back(pe);
  wse::check_valid(s);
  return s;
}

Schedule make_reduce_1d(ReduceAlgo algo, u32 num_pes, u32 vec_len,
                        const autogen::AutoGenModel* model,
                        u32 two_phase_group) {
  Schedule s(row_grid(num_pes), vec_len,
             std::string("reduce-1d-") + name(algo));
  build_reduce(s, Lane::row(s.grid, 0), algo, model, 0, no_deps(s),
               two_phase_group);
  s.result_pes.push_back(0);
  wse::check_valid(s);
  return s;
}

Schedule make_allreduce_1d(ReduceAlgo algo, u32 num_pes, u32 vec_len,
                           const autogen::AutoGenModel* model) {
  Schedule s(row_grid(num_pes), vec_len,
             std::string("allreduce-1d-") + name(algo) + "+bcast");
  const Lane lane = Lane::row(s.grid, 0);
  const Deps reduced = build_reduce(s, lane, algo, model, 0, no_deps(s));
  build_broadcast(s, lane, 4, reduced);
  for (u32 pe = 0; pe < num_pes; ++pe) s.result_pes.push_back(pe);
  wse::check_valid(s);
  return s;
}

Schedule make_ring_allreduce_1d(u32 num_pes, u32 vec_len, RingMapping mapping) {
  Schedule s(row_grid(num_pes), vec_len,
             std::string("allreduce-1d-ring-") + name(mapping));
  build_ring_allreduce(s, Lane::row(s.grid, 0), mapping, 0, no_deps(s));
  for (u32 pe = 0; pe < num_pes; ++pe) s.result_pes.push_back(pe);
  wse::check_valid(s);
  return s;
}

}  // namespace wsr::collectives
