// The differential conformance suite: every registered algorithm, swept
// over irregular shapes (primes, 1xN columns, rectangles) and degraded
// fabrics, cross-checked FabricSim vs FlowSim vs the analytic model and
// pinned against the collective's lower bound. See conformance.hpp for the
// case contract.
#include "conformance.hpp"

#include <gtest/gtest.h>

#include <map>

#include "registry/algorithm_registry.hpp"
#include "runtime/planner.hpp"

namespace wsr {
namespace {

using registry::AlgorithmDescriptor;
using registry::Dims;

constexpr u32 kMaxPes = 16;

const registry::PlanContext& shared_context() {
  static const runtime::Planner planner(kMaxPes);
  static const registry::PlanContext ctx = planner.context();
  return ctx;
}

TEST(Conformance, EveryRegisteredAlgorithmOnIrregularShapes) {
  const auto& ctx = shared_context();
  std::map<std::string, int> covered;
  for (const AlgorithmDescriptor* d : conformance::all_descriptors()) {
    for (GridShape g : conformance::shapes_for(d->dims)) {
      for (u32 B : conformance::vec_lens_for(g)) {
        if (!d->applicable(g, B)) continue;
        const auto rep = conformance::run_case(*d, g, B, ctx);
        EXPECT_TRUE(rep.ran);
        ++covered[d->name];
        if (::testing::Test::HasFailure()) {
          FAIL() << "first failure: " << d->name << " on " << g.width << "x"
                 << g.height << " B=" << B;
        }
      }
    }
    // Descriptor-driven sweeps only help if the sweep actually reaches
    // every algorithm: an always-inapplicable descriptor is a bug in the
    // sweep (or the descriptor), not a silent skip.
    EXPECT_GE(covered[d->name], 2)
        << d->name << " was not exercised by the conformance sweep";
  }
}

TEST(Conformance, ThrottledLinksOnlySlowThingsDown) {
  const auto& ctx = shared_context();
  const u32 factor = 3;
  for (const AlgorithmDescriptor* d : conformance::all_descriptors()) {
    // One representative clean case per descriptor: the first applicable
    // (shape, B) of the sweep.
    GridShape g{0, 0};
    u32 B = 0;
    for (GridShape cand : conformance::shapes_for(d->dims)) {
      for (u32 b : conformance::vec_lens_for(cand)) {
        if (d->applicable(cand, b)) {
          g = cand;
          B = b;
          break;
        }
      }
      if (B != 0) break;
    }
    ASSERT_NE(B, 0u) << d->name;

    const auto clean = conformance::run_case(*d, g, B, ctx);
    ASSERT_TRUE(clean.ran) << d->name;

    // Throttle the first link of the grid (east when the grid has a row
    // dimension, south on a 1xH column) — on-path for every 1D pattern and
    // the 2D compositions' first row; harmless (equal cycles) otherwise.
    LinkOverride o;
    o.x = 0;
    o.y = 0;
    o.dir = g.width > 1 ? Dir::East : Dir::South;
    o.factor = factor;
    const auto degraded = conformance::run_case(*d, g, B, ctx, {o});
    ASSERT_TRUE(degraded.ran) << d->name;
    EXPECT_GE(degraded.fabric_cycles, clean.fabric_cycles)
        << d->name << ": a throttled link made the schedule faster";
    // A link at 1/factor rate can stretch the run at most factor-fold;
    // latency terms don't stretch at all, hence the constant slack.
    EXPECT_LE(degraded.fabric_cycles,
              factor * clean.fabric_cycles + conformance::kBandSlack)
        << d->name;
    EXPECT_GE(degraded.flow_cycles, clean.flow_cycles) << d->name;
  }
}

TEST(Conformance, FailedLinksAreDetectedExactlyWhenRoutedAcross) {
  // A one-directional schedule (Chain reduce on a row) uses exactly one
  // direction of each interior link: failing the used direction must trip
  // schedule_crosses_failed_link, failing the unused direction must not —
  // and the surviving case must simulate to the clean cycle count.
  const auto& ctx = shared_context();
  const auto* chain = registry::AlgorithmRegistry::instance().find(
      registry::Collective::Reduce, Dims::OneD, "Chain");
  ASSERT_NE(chain, nullptr);
  const GridShape g{6, 1};
  const u32 B = 12;
  const wse::Schedule s = chain->build(g, B, ctx);

  LinkOverride east, west;
  east.x = 2;
  east.y = 0;
  east.dir = Dir::East;
  east.factor = 0;
  west = east;
  west.dir = Dir::West;
  const bool crosses_east = wse::schedule_crosses_failed_link(s, {east});
  const bool crosses_west = wse::schedule_crosses_failed_link(s, {west});
  EXPECT_NE(crosses_east, crosses_west)
      << "a chain uses exactly one direction of the interior link";

  const auto clean = conformance::run_case(*chain, g, B, ctx);
  const auto& off_path = crosses_east ? west : east;
  const auto survived = conformance::run_case(*chain, g, B, ctx, {off_path});
  ASSERT_TRUE(survived.ran);
  EXPECT_EQ(survived.fabric_cycles, clean.fabric_cycles)
      << "a failed link the schedule never touches must not change timing";

  const auto& on_path = crosses_east ? east : west;
  const auto refused = conformance::run_case(*chain, g, B, ctx, {on_path});
  EXPECT_FALSE(refused.ran)
      << "run_case must refuse to simulate across a failed link";
}

TEST(Conformance, LowerBoundsAreNotVacuous) {
  // The bound must bite: for the bandwidth-dominated cases it should sit
  // within the model band of the actual measurement, not orders below it.
  const auto& ctx = shared_context();
  const auto* flood = registry::AlgorithmRegistry::instance().find(
      registry::Collective::AllGather, Dims::OneD, "Flood");
  ASSERT_NE(flood, nullptr);
  const GridShape g{8, 1};
  const u32 B = 48;
  const auto rep = conformance::run_case(*flood, g, B, ctx);
  ASSERT_TRUE(rep.ran);
  const i64 lb = conformance::lower_bound_cycles(runtime::Semantic::AllGather,
                                                 g, B);
  EXPECT_GE(lb, (8 - 1) * 48);
  EXPECT_LE(rep.fabric_cycles,
            static_cast<i64>(1.5 * static_cast<double>(lb)) +
                conformance::kBandSlack)
      << "flood allgather should run close to the ingress bound";
}

}  // namespace
}  // namespace wsr
