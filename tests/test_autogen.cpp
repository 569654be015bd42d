// Tests of the Auto-Gen DP (paper Section 5.5): exactness against explicit
// tree enumeration, pruning losslessness, reconstruction consistency, the
// "generalizes every fixed pattern" property, and the exactness of the
// process-wide shared tables.
#include "autogen/dp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "autogen/lower_bound.hpp"
#include "autogen/tree.hpp"
#include "common/math.hpp"
#include "model/costs1d.hpp"

namespace wsr::autogen {
namespace {

const MachineParams kMp{};

// --- explicit enumeration of all pre-order trees (independent oracle) ------

/// All rooted ordered trees with `p` vertices, as ReduceTree objects.
std::vector<ReduceTree> all_trees(u32 p) {
  // Enumerate recursively: the root's last child subtree has size s in
  // [1, p-1]; the rest is a tree on p - s vertices.
  std::function<std::vector<ReduceTree>(u32)> gen = [&](u32 n) {
    std::vector<ReduceTree> out;
    if (n == 1) {
      ReduceTree t;
      t.children.resize(1);
      out.push_back(t);
      return out;
    }
    for (u32 s = 1; s < n; ++s) {
      for (const ReduceTree& head : gen(n - s)) {
        for (const ReduceTree& tail : gen(s)) {
          ReduceTree t;
          t.children.resize(n);
          for (u32 v = 0; v < n - s; ++v) t.children[v] = head.children[v];
          t.children[0].push_back(n - s);
          for (u32 v = 0; v < s; ++v) {
            for (u32 c : tail.children[v]) {
              t.children[v + (n - s)].push_back(c + (n - s));
            }
          }
          out.push_back(std::move(t));
        }
      }
    }
    return out;
  };
  return gen(p);
}

TEST(ReduceTree, CanonicalShapes) {
  const ReduceTree star = ReduceTree::star(6);
  EXPECT_TRUE(star.is_valid_preorder());
  EXPECT_EQ(star.depth(), 1u);
  EXPECT_EQ(star.max_fanout(), 5u);
  EXPECT_EQ(star.energy(), 1 + 2 + 3 + 4 + 5);

  const ReduceTree chain = ReduceTree::chain(6);
  EXPECT_TRUE(chain.is_valid_preorder());
  EXPECT_EQ(chain.depth(), 5u);
  EXPECT_EQ(chain.max_fanout(), 1u);
  EXPECT_EQ(chain.energy(), 5);
}

TEST(ReduceTree, InvalidTreesRejected) {
  ReduceTree t;
  t.children.resize(3);
  t.children[0] = {2};  // skips vertex 1
  EXPECT_FALSE(t.is_valid_preorder());

  ReduceTree u;
  u.children.resize(3);
  u.children[0] = {1};
  u.children[1] = {2};
  EXPECT_TRUE(u.is_valid_preorder());
  u.children[1] = {};  // vertex 2 unreachable
  EXPECT_FALSE(u.is_valid_preorder());
}

TEST(ReduceTree, EnumerationCountsAreCatalan) {
  // #ordered rooted trees with n vertices = Catalan(n-1).
  EXPECT_EQ(all_trees(1).size(), 1u);
  EXPECT_EQ(all_trees(4).size(), 5u);
  EXPECT_EQ(all_trees(6).size(), 42u);
  for (const ReduceTree& t : all_trees(5)) {
    EXPECT_TRUE(t.is_valid_preorder());
  }
}

/// The contention budget a tree needs under the paper's DP discipline: a
/// vertex's last child subtree inherits the full budget, everything before
/// it one less (Section 5.5's recursion). This is slightly stricter than
/// "max fanout <= C": with j children still to account for, the budget must
/// cover need(part) + 1 per later sibling.
u32 discipline_need(const ReduceTree& t, u32 v) {
  u32 need = 0;
  for (u32 c : t.children[v]) {
    need = std::max(need + 1, discipline_need(t, c));
  }
  return need;
}

TEST(AutoGenDP, EnergyMatchesExplicitEnumeration) {
  constexpr u32 kMaxP = 9;
  const EnergyTable table(kMaxP);
  for (u32 p = 2; p <= kMaxP; ++p) {
    const auto trees = all_trees(p);
    for (u32 d = 1; d < p; ++d) {
      for (u32 c = 1; c < p; ++c) {
        i64 best = INT64_MAX;
        for (const ReduceTree& t : trees) {
          if (t.depth() <= d && discipline_need(t, 0) <= c) {
            best = std::min(best, t.energy());
          }
        }
        if (best == INT64_MAX) {
          EXPECT_GE(table.energy(p, d, c), kInfEnergy)
              << "p=" << p << " d=" << d << " c=" << c;
        } else {
          EXPECT_EQ(table.energy(p, d, c), best)
              << "p=" << p << " d=" << d << " c=" << c;
        }
      }
    }
  }
}

TEST(AutoGenDP, DisciplineIsAtMostOneLooserThanMaxFanout) {
  // Sanity on the semantics gap: need >= max_fanout always, and a tree with
  // max fanout f is representable with budget f + depth slack; here we just
  // pin the canonical shapes.
  EXPECT_EQ(discipline_need(ReduceTree::star(6), 0), 5u);
  EXPECT_EQ(discipline_need(ReduceTree::chain(6), 0), 1u);
  for (const ReduceTree& t : all_trees(7)) {
    EXPECT_GE(discipline_need(t, 0), t.max_fanout());
  }
}

TEST(AutoGenDP, EnergyMonotoneInBudgets) {
  const EnergyTable table(64);
  for (u32 p = 2; p <= 64; p += 7) {
    for (u32 d = 1; d + 1 < p; ++d) {
      for (u32 c = 1; c + 1 < p; ++c) {
        EXPECT_LE(table.energy(p, d + 1, c), table.energy(p, d, c));
        EXPECT_LE(table.energy(p, d, c + 1), table.energy(p, d, c));
      }
    }
  }
}

TEST(AutoGenDP, ChainAndStarAreExtremePoints) {
  const EnergyTable table(48);
  for (u32 p : {2u, 7u, 16u, 48u}) {
    // Fanout 1 forces the chain: energy p-1, needs depth p-1.
    EXPECT_EQ(table.energy(p, p - 1, 1), i64{p} - 1);
    if (p > 2) {
      EXPECT_GE(table.energy(p, p - 2, 1), kInfEnergy);
    }
    // Depth 1 forces the star: energy p(p-1)/2, needs fanout p-1.
    EXPECT_EQ(table.energy(p, 1, p - 1), i64{p} * (p - 1) / 2);
    if (p > 2) {
      EXPECT_GE(table.energy(p, 1, p - 2), kInfEnergy);
    }
  }
}

TEST(AutoGenDP, PruningIsLosslessUpTo96) {
  DpLimits exact;
  exact.c_small = 95;  // everything exact
  exact.c_cap = 95;
  exact.d_cap = 95;
  const AutoGenModel full(std::make_shared<const EnergyTable>(96, exact), kMp);
  const AutoGenModel pruned(96, kMp);  // default limits
  for (u32 p = 2; p <= 96; ++p) {
    for (u32 b : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u, 8192u}) {
      EXPECT_EQ(full.best_choice(p, b).cycles, pruned.best_choice(p, b).cycles)
          << "p=" << p << " B=" << b;
    }
  }
}

TEST(AutoGenDP, PredictionNeverWorseThanFixedPatternsUnderEq1) {
  // Star and Chain are pre-order trees, so the DP must match or beat their
  // Eq. (1) synthesis (the Star row uses its tree terms, not the sharper
  // pipeline bound).
  const AutoGenModel model(128, kMp);
  for (u32 p : {4u, 16u, 64u, 128u}) {
    for (u32 b : {1u, 32u, 1024u, 8192u}) {
      const i64 ag = model.predict(p, b).cycles;
      EXPECT_LE(ag, predict_chain_reduce(p, b, kMp).cycles);
      // Star via Eq. (1) tree terms:
      const i64 star_eq1 =
          std::max<i64>(i64{b} * (p - 1),
                        ceil_div(i64{b} * p * (p - 1) / 2, p - 1) + p - 1) +
          5;
      EXPECT_LE(ag, star_eq1);
    }
  }
}

TEST(AutoGenTree, ReconstructionMatchesChoice) {
  const AutoGenModel model(128, kMp);
  for (u32 p : {2u, 3u, 9u, 32u, 77u, 128u}) {
    for (u32 b : {1u, 16u, 256u, 4096u}) {
      const auto choice = model.best_choice(p, b);
      const ReduceTree t = model.build_tree(p, b);
      ASSERT_EQ(t.size(), p);
      EXPECT_TRUE(t.is_valid_preorder()) << "p=" << p << " B=" << b;
      EXPECT_LE(t.depth(), choice.depth);
      EXPECT_LE(t.max_fanout(), choice.fanout);
      EXPECT_EQ(t.energy(), choice.energy) << "p=" << p << " B=" << b;
    }
  }
}

TEST(AutoGenTree, BudgetedReconstructionIsFeasible) {
  const EnergyTable table(64);
  for (u32 p : {5u, 17u, 64u}) {
    for (u32 d : {2u, 4u, 16u}) {
      for (u32 c : {1u, 2u, 5u}) {
        if (table.energy(p, d, c) >= kInfEnergy) continue;
        const ReduceTree t = table.build_tree_for_budget(p, d, c);
        EXPECT_TRUE(t.is_valid_preorder());
        EXPECT_LE(t.depth(), d);
        EXPECT_LE(t.max_fanout(), c);
        EXPECT_EQ(t.energy(), table.energy(p, d, c));
      }
    }
  }
}

TEST(AutoGenDP, TrivialSizes) {
  const AutoGenModel model(8, kMp);
  EXPECT_EQ(model.predict(1, 100).cycles, 0);
  EXPECT_EQ(model.build_tree(1, 4).size(), 1u);
  // P = 2: one message of B wavelets, one hop.
  const auto choice = model.best_choice(2, 8);
  EXPECT_EQ(choice.depth, 1u);
  EXPECT_EQ(choice.fanout, 1u);
  EXPECT_EQ(choice.energy, 1);
}

// The shared tables never read the machine and are prefix-closed in P: once
// a 512-PE view exists, a view of n PEs reads the 512-PE table and answers
// exactly like a model over a private n-PE table, at every T_R. The same
// holds for the lower bound.
TEST(SharedTables, ViewsAnswerLikePrivateTables) {
  const AutoGenModel big(512, kMp);
  const std::shared_ptr<const LowerBound> shared_lb =
      shared_table<LowerBound>(512);
  ASSERT_GE(big.max_pes(), 512u);
  ASSERT_GE(shared_lb->max_pes(), 512u);
  for (u32 n : {2u, 3u, 17u, 96u, 129u, 300u}) {
    const auto own = std::make_shared<const EnergyTable>(n);
    const LowerBound own_lb(n);
    for (u32 tr : {0u, 2u, 5u}) {
      MachineParams mp;
      mp.ramp_latency = tr;
      const AutoGenModel shared(n, mp), priv(own, mp);
      EXPECT_EQ(&shared.table(), &big.table());
      for (u32 p = 1; p <= n; ++p) {
        for (u32 b : {1u, 64u, 4096u}) {
          const auto got = shared.best_choice(p, b);
          const auto want = priv.best_choice(p, b);
          EXPECT_EQ(got.depth, want.depth) << "n=" << n << " p=" << p;
          EXPECT_EQ(got.fanout, want.fanout) << "n=" << n << " p=" << p;
          EXPECT_EQ(got.energy, want.energy) << "n=" << n << " p=" << p;
          EXPECT_EQ(got.cycles, want.cycles) << "n=" << n << " p=" << p;
          EXPECT_EQ(shared.build_tree(p, b).children,
                    priv.build_tree(p, b).children)
              << "n=" << n << " p=" << p << " B=" << b << " T_R=" << tr;
          EXPECT_EQ(shared_lb->cycles(p, b, mp), own_lb.cycles(p, b, mp));
          if (p >= 2) {
            EXPECT_EQ(shared_lb->best_depth(p, b, mp),
                      own_lb.best_depth(p, b, mp));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wsr::autogen
