// LazyFifo is load-bearing in FabricSim (processor ingress queues and
// up-ramp pipelines, two per PE) but is otherwise only exercised
// indirectly through it. This suite pins its contract directly: FIFO
// order, the empty-reset and lazy compaction behaviours that bound memory
// under streaming, zero allocation before first use, and move-only payload
// support.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/lazy_fifo.hpp"

namespace wsr {
namespace {

TEST(LazyFifo, StartsEmptyWithoutAllocating) {
  LazyFifo<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // "Allocate nothing until the first push" is the property FabricSim
  // relies on when constructing two queues per PE, most of them idle.
  EXPECT_EQ(q.buf.capacity(), 0u);
}

TEST(LazyFifo, FifoOrder) {
  LazyFifo<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_EQ(q.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front(), i);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(LazyFifo, DrainToEmptyResetsHead) {
  // Popping the last element clears the buffer outright, so the next fill
  // reuses the vector from index 0 (wraparound without a ring buffer).
  LazyFifo<int> q;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) q.push(round * 10 + i);
    for (int i = 0; i < 10; ++i) q.pop();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.head, 0u);
    EXPECT_EQ(q.buf.size(), 0u);
  }
  // The storage itself is retained across rounds — no churn under
  // steady drain/refill cycles.
  EXPECT_GE(q.buf.capacity(), 10u);
}

TEST(LazyFifo, LazyCompactionBounds) {
  // The dead prefix is erased only once it reaches 32 elements AND at least
  // half the buffer; check both trigger conditions precisely.
  LazyFifo<int> q;
  for (int i = 0; i < 200; ++i) q.push(i);

  // 31 pops: below the 32-element floor, no compaction yet.
  for (int i = 0; i < 31; ++i) q.pop();
  EXPECT_EQ(q.head, 31u);
  EXPECT_EQ(q.buf.size(), 200u);

  // 32nd pop: head = 32 but 32*2 < 200, still no compaction.
  q.pop();
  EXPECT_EQ(q.head, 32u);
  EXPECT_EQ(q.buf.size(), 200u);

  // Pop until head*2 >= buf.size() first holds: at head 100 of 200.
  while (q.head < 99) q.pop();
  EXPECT_EQ(q.buf.size(), 200u);  // 99*2 < 200: not yet
  q.pop();                        // head hits 100 -> erase the dead prefix
  EXPECT_EQ(q.head, 0u);
  EXPECT_EQ(q.buf.size(), 100u);
  EXPECT_EQ(q.front(), 100);  // contents survive compaction in order

  for (int i = 100; i < 200; ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front(), i);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(LazyFifo, SteadyStreamingStaysBounded) {
  // Push/pop in lockstep forever: compaction must keep the buffer from
  // growing without bound (this is FabricSim's steady-state shape).
  LazyFifo<int> q;
  for (int i = 0; i < 64; ++i) q.push(i);
  for (int i = 64; i < 100'000; ++i) {
    q.push(i);
    EXPECT_EQ(q.front(), i - 64);
    q.pop();
    ASSERT_LE(q.buf.size(), 2 * 64 + 64u) << "buffer grew without bound";
  }
  EXPECT_EQ(q.size(), 64u);
}

TEST(LazyFifo, MoveOnlyPayload) {
  LazyFifo<std::unique_ptr<std::string>> q;
  for (int i = 0; i < 40; ++i) {
    q.push(std::make_unique<std::string>("item-" + std::to_string(i)));
  }
  // Mutable front() allows moving the payload out before pop.
  for (int i = 0; i < 40; ++i) {
    ASSERT_FALSE(q.empty());
    std::unique_ptr<std::string> taken = std::move(q.front());
    q.pop();
    ASSERT_NE(taken, nullptr);
    EXPECT_EQ(*taken, "item-" + std::to_string(i));
  }
  EXPECT_TRUE(q.empty());
}

TEST(LazyFifo, MovedFromElementsSurviveCompaction) {
  // Compaction move-erases the live suffix; moved-out (null) and live
  // pointers must both relocate correctly.
  LazyFifo<std::unique_ptr<int>> q;
  for (int i = 0; i < 200; ++i) q.push(std::make_unique<int>(i));
  for (int i = 0; i < 100; ++i) q.pop();  // triggers compaction at 100
  EXPECT_EQ(q.head, 0u);
  EXPECT_EQ(q.size(), 100u);
  for (int i = 100; i < 200; ++i) {
    ASSERT_NE(q.front(), nullptr);
    EXPECT_EQ(*q.front(), i);
    q.pop();
  }
}

}  // namespace
}  // namespace wsr
