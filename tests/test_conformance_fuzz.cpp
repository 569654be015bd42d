// Seed-deterministic property-based fuzzing over the conformance harness:
// random (algorithm, shape, vec_len, degradation) tuples run through the
// full differential check of conformance.hpp. The default seed is fixed so
// CI is reproducible; set WSR_FUZZ_SEED to explore (the active seed is in
// the failure trace, so any red run can be replayed exactly).
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "conformance.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/planner.hpp"

namespace wsr {
namespace {

constexpr u32 kIterations = 48;
constexpr u32 kMaxPes = 32;

u64 fuzz_seed() {
  if (const char* env = std::getenv("WSR_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC01FEED5;
}

TEST(ConformanceFuzz, RandomShapesAndDegradations) {
  const u64 seed = fuzz_seed();
  SCOPED_TRACE("replay with WSR_FUZZ_SEED=" + std::to_string(seed));
  std::mt19937 rng(static_cast<u32>(seed ^ (seed >> 32)));

  const auto descriptors = conformance::all_descriptors();
  ASSERT_FALSE(descriptors.empty());
  const runtime::Planner planner(kMaxPes);
  const registry::PlanContext ctx = planner.context();

  u32 ran = 0;
  for (u32 iter = 0; iter < kIterations; ++iter) {
    // Sample until the tuple is applicable (a bounded number of tries:
    // divisibility-gated algorithms reject most raw draws).
    for (u32 attempt = 0; attempt < 64; ++attempt) {
      const auto* d =
          descriptors[rng() % static_cast<u32>(descriptors.size())];
      GridShape g{1, 1};
      if (d->dims == registry::Dims::OneD) {
        g = {2 + rng() % (kMaxPes - 1), 1};
      } else {
        g = {1 + rng() % 6, 1 + rng() % 6};
        if (g.num_pes() < 2) continue;
      }
      // Half the draws are multiples of the PE count so divisibility gates
      // pass often enough to matter.
      const u32 P = static_cast<u32>(g.num_pes());
      const u32 B = (rng() & 1) ? P * (1 + rng() % 6) : 1 + rng() % 96;
      if (!d->applicable(g, B)) continue;

      std::vector<LinkOverride> overrides;
      if (rng() & 1) {
        LinkOverride o;
        o.x = rng() % g.width;
        o.y = rng() % g.height;
        o.dir = (g.width > 1 && (g.height == 1 || (rng() & 1)))
                    ? ((rng() & 1) ? Dir::East : Dir::West)
                    : ((rng() & 1) ? Dir::South : Dir::North);
        o.factor = 2 + rng() % 3;
        if (override_in_grid(o, g)) overrides.push_back(o);
      }

      SCOPED_TRACE("iter " + std::to_string(iter) + " seed " +
                   std::to_string(seed));
      const auto rep = conformance::run_case(*d, g, B, ctx, overrides);
      EXPECT_TRUE(rep.ran);  // throttles never make a schedule unroutable
      if (rep.ran) ++ran;
      break;
    }
    if (::testing::Test::HasFailure()) break;  // first failure names its case
  }
  // The sampler must actually exercise the space — if applicability
  // rejections eat the iteration budget, the fuzzer is vacuous.
  EXPECT_GE(ran, kIterations / 2);
}

}  // namespace
}  // namespace wsr
