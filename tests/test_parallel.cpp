// Unit tests for common/parallel.hpp's parallel_for_index, the primitive
// behind serving::Core::serve_batch and the bench sweep engine. The suite is
// intentionally thread-heavy — CI runs it under TSan, together with the
// sweep-determinism and plan-cache suites that drive it from real callers.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace wsr {
namespace {

TEST(ParallelForIndex, CoversEveryIndexExactlyOnce) {
  for (u32 jobs : {0u, 1u, 2u, 4u}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for_index(hits.size(), jobs,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelForIndex, ZeroItemsIsANoOp) {
  parallel_for_index(0, 4, [](std::size_t) { FAIL() << "fn ran for n=0"; });
}

}  // namespace
}  // namespace wsr
