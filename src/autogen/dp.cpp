#include "autogen/dp.hpp"

#include <algorithm>
#include <mutex>

#include "autogen/lower_bound.hpp"
#include "common/math.hpp"

namespace wsr::autogen {

EnergyTable::EnergyTable(u32 max_pes, DpLimits limits)
    : max_pes_(max_pes), limits_(limits) {
  WSR_ASSERT(max_pes_ >= 1 && max_pes_ <= 65534, "max_pes out of range");
  d_small_max_ = std::max<u32>(1, max_pes_ - 1);
  limits_.c_small = std::max<u32>(1, std::min(limits_.c_small, max_pes_));
  limits_.c_cap = std::max(limits_.c_small, std::min(limits_.c_cap, max_pes_));
  limits_.d_cap = std::max<u32>(1, std::min(limits_.d_cap, d_small_max_));

  const std::size_t row = max_pes_ + 1;
  small_energy_.assign(std::size_t{limits_.c_small} * d_small_max_ * row, kInfEnergy);
  small_split_.assign(small_energy_.size(), 0);
  const u32 cap_c = limits_.c_cap - limits_.c_small;  // block for c in (c_small, c_cap]
  cap_energy_.assign(std::size_t{cap_c} * limits_.d_cap * row, kInfEnergy);
  cap_split_.assign(cap_energy_.size(), 0);
  fill_tables();
}

i32& EnergyTable::small_at(u32 c, u32 d, u32 p) {
  const std::size_t row = max_pes_ + 1;
  return small_energy_[((std::size_t{c - 1} * d_small_max_) + (d - 1)) * row + p];
}
i32 EnergyTable::small_at(u32 c, u32 d, u32 p) const {
  const std::size_t row = max_pes_ + 1;
  return small_energy_[((std::size_t{c - 1} * d_small_max_) + (d - 1)) * row + p];
}
i32& EnergyTable::cap_at(u32 c, u32 d, u32 p) {
  const std::size_t row = max_pes_ + 1;
  const u32 ci = c - limits_.c_small - 1;
  return cap_energy_[((std::size_t{ci} * limits_.d_cap) + (d - 1)) * row + p];
}
i32 EnergyTable::cap_at(u32 c, u32 d, u32 p) const {
  const std::size_t row = max_pes_ + 1;
  const u32 ci = c - limits_.c_small - 1;
  return cap_energy_[((std::size_t{ci} * limits_.d_cap) + (d - 1)) * row + p];
}
u16 EnergyTable::argmin_small(u32 c, u32 d, u32 p) const {
  const std::size_t row = max_pes_ + 1;
  return small_split_[((std::size_t{c - 1} * d_small_max_) + (d - 1)) * row + p];
}
u16 EnergyTable::argmin_cap(u32 c, u32 d, u32 p) const {
  const std::size_t row = max_pes_ + 1;
  const u32 ci = c - limits_.c_small - 1;
  return cap_split_[((std::size_t{ci} * limits_.d_cap) + (d - 1)) * row + p];
}

void EnergyTable::fill_tables() {
  const u32 P = max_pes_;
  const std::size_t row = P + 1;

  // Finite frontier per filled state: largest p with E(p, d, c) < INF (1 if
  // none). Rows are finite on a prefix of p — more PEs need at least as much
  // budget — which bounds the split scan below to feasible candidates only.
  std::vector<u32> small_fin(std::size_t{limits_.c_small} * d_small_max_, 1);
  const u32 cap_c = limits_.c_cap - limits_.c_small;
  std::vector<u32> cap_fin(std::size_t{cap_c} * limits_.d_cap, 1);

  // Row of E(*, d, c) plus its finite frontier; {nullptr, 1} encodes the
  // base-case-only row (E(1) = 0, everything else INF) used for c == 0 or
  // d == 0.
  struct RowRef {
    const i32* e = nullptr;
    u32 fin = 1;
  };
  auto row_of = [&](u32 c, u32 d) -> RowRef {
    if (c == 0 || d == 0) return {};
    if (c <= limits_.c_small) {
      const std::size_t st = std::size_t{c - 1} * d_small_max_ + (d - 1);
      return {small_energy_.data() + st * row, small_fin[st]};
    }
    const std::size_t st =
        std::size_t{c - limits_.c_small - 1} * limits_.d_cap + (d - 1);
    return {cap_energy_.data() + st * row, cap_fin[st]};
  };

  // Scratch: rrev[k] = rrow.e[P - k], rebuilt per state, so the split scan
  // reads E(p-i, d-1, c) as rrev[(P-p) + i] — a forward-strided stream the
  // vectorizer accepts (the natural re[p-i] walks backwards and GCC refuses
  // to vectorize the mixed-direction min-reduction).
  std::vector<i32> rrev(row);

  // One state: E(p, d, c) = min_i E(i, d, c-1) + E(p-i, d-1, c) + i over the
  // feasible split range only. Candidate order is ascending i (i = 1, the
  // interior, i = p-1), preserving the original first-strict-min tie-break,
  // so the split table — and every reconstructed tree — is unchanged.
  auto fill_state = [&](u32 c, u32 d, i32* erow, u16* srow) -> u32 {
    const RowRef lrow = row_of(c - 1, d);   // E(i, d, c-1)
    const RowRef rrow = row_of(c, d - 1);   // E(j, d-1, c)
    if (rrow.e != nullptr) {
      for (u32 k = 0; k <= P; ++k) rrev[k] = rrow.e[P - k];
    }
    u32 fin = 1;
    for (u32 p = 2; p <= P; ++p) {
      i32 best = kInfEnergy;
      u16 best_i = 0;
      // i = 1 (left side is the bare root): right side must be feasible.
      if (p - 1 == 1) {
        best = 0 + 0 + 1;
        best_i = 1;
      } else if (rrow.e != nullptr && p - 1 <= rrow.fin) {
        const i32 b = rrow.e[p - 1];
        if (b < kInfEnergy) {
          best = b + 1;
          best_i = 1;
        }
      }
      // Interior splits: both sides >= 2 PEs, both within their frontiers.
      // The scan is a branchless min-reduction the compiler can vectorize:
      // an infeasible side contributes kInfEnergy (= INT32_MAX / 4, so the
      // sum cannot overflow or beat a real candidate), and the first index
      // attaining the minimum — found in a second, early-exiting pass — is
      // exactly the first-strict-min the branchy scan picked.
      if (lrow.e != nullptr && rrow.e != nullptr) {
        const i32 lo =
            static_cast<i32>(std::max<u32>(p > rrow.fin ? p - rrow.fin : 2, 2));
        const i32 hi = static_cast<i32>(std::min(lrow.fin, p - 2));
        const i32* le = lrow.e;
        const i32* rv = rrev.data() + (P - p);  // rv[i] == rrow.e[p - i]
        i32 m = kInfEnergy;
        for (i32 i = lo; i <= hi; ++i) {
          m = std::min(m, le[i] + rv[i] + i);
        }
        if (m < best) {
          for (i32 i = lo; i <= hi; ++i) {
            if (le[i] + rv[i] + i == m) {
              best = m;
              best_i = static_cast<u16>(i);
              break;
            }
          }
        }
      }
      // i = p - 1 (right side is a single leaf; only relevant for p >= 3).
      if (p >= 3 && lrow.e != nullptr && p - 1 <= lrow.fin) {
        const i32 a = lrow.e[p - 1];
        if (a < kInfEnergy) {
          const i32 cand = a + static_cast<i32>(p - 1);
          if (cand < best) {
            best = cand;
            best_i = static_cast<u16>(p - 1);
          }
        }
      }
      erow[p] = best;
      srow[p] = best_i;
      if (best < kInfEnergy) fin = p;
    }
    return fin;
  };

  for (u32 c = 1; c <= limits_.c_small; ++c) {
    for (u32 d = 1; d <= d_small_max_; ++d) {
      const std::size_t st = std::size_t{c - 1} * d_small_max_ + (d - 1);
      small_fin[st] = fill_state(c, d, small_energy_.data() + st * row,
                                 small_split_.data() + st * row);
    }
  }
  for (u32 c = limits_.c_small + 1; c <= limits_.c_cap; ++c) {
    for (u32 d = 1; d <= limits_.d_cap; ++d) {
      const std::size_t st =
          std::size_t{c - limits_.c_small - 1} * limits_.d_cap + (d - 1);
      cap_fin[st] = fill_state(c, d, cap_energy_.data() + st * row,
                               cap_split_.data() + st * row);
    }
  }
}

i32 EnergyTable::energy(u32 p, u32 d, u32 c) const {
  WSR_ASSERT(p >= 1 && p <= max_pes_, "p out of range");
  if (p == 1) return 0;
  if (d == 0 || c == 0) return kInfEnergy;
  d = std::min(d, p - 1);
  c = std::min(c, p - 1);
  if (c <= limits_.c_small) return small_at(c, d, p);
  const u32 cc = std::min(c, limits_.c_cap);
  if (d <= limits_.d_cap) return cap_at(cc, d, p);
  // Clamped corner: both projections are feasible trees, take the better.
  return std::min(cap_at(cc, limits_.d_cap, p), small_at(limits_.c_small, d, p));
}

template <class T>
std::shared_ptr<const T> shared_table(u32 pes) {
  // `mu` guards the published table; `fill_mu` serializes fills, so a
  // reader the current table covers never waits on a larger fill.
  static std::mutex mu, fill_mu;
  static std::shared_ptr<const T> current;
  const auto covering = [&]() -> std::shared_ptr<const T> {
    std::lock_guard<std::mutex> lock(mu);
    return current && current->max_pes() >= pes ? current : nullptr;
  };
  if (std::shared_ptr<const T> t = covering()) return t;
  std::lock_guard<std::mutex> fill(fill_mu);
  if (std::shared_ptr<const T> t = covering()) return t;  // filled meanwhile
  auto t = std::make_shared<const T>(pes);
  std::lock_guard<std::mutex> lock(mu);
  current = t;
  return t;
}

template std::shared_ptr<const EnergyTable> shared_table(u32);
template std::shared_ptr<const LowerBound> shared_table(u32);

AutoGenModel::Choice AutoGenModel::best_choice(u32 num_pes, u32 vec_len) const {
  WSR_ASSERT(num_pes >= 1 && num_pes <= max_pes(), "num_pes out of range");
  WSR_ASSERT(vec_len >= 1, "vec_len must be >= 1");
  Choice best;
  best.cycles = INT64_MAX;
  if (num_pes == 1) return {0, 0, 0, 0};
  const DpLimits& lim = table_->limits();
  const i64 P = num_pes, B = vec_len;
  const i64 per_depth = mp_.per_depth_cycles();
  auto consider = [&](u32 d, u32 c) {
    const i32 e = table_->energy(num_pes, d, c);
    if (e >= kInfEnergy) return;
    const i64 bw = ceil_div(B * e, P - 1) + (P - 1);
    const i64 cyc = std::max(B * c, bw) + per_depth * d;
    if (cyc < best.cycles) best = {d, c, e, cyc};
  };
  const u32 c_max = std::min<u32>(lim.c_cap, num_pes - 1);
  for (u32 c = 1; c <= c_max; ++c) {
    const u32 d_max = c <= lim.c_small
                          ? num_pes - 1
                          : std::min<u32>(lim.d_cap, num_pes - 1);
    for (u32 d = 1; d <= d_max; ++d) consider(d, c);
  }
  WSR_ASSERT(best.cycles != INT64_MAX, "no feasible Auto-Gen state");
  return best;
}

wsr::Prediction AutoGenModel::predict(u32 num_pes, u32 vec_len) const {
  const Choice ch = best_choice(num_pes, vec_len);
  wsr::CostTerms t;
  t.energy = i64{vec_len} * ch.energy;
  t.distance = num_pes >= 1 ? num_pes - 1 : 0;
  t.depth = ch.depth;
  t.contention = i64{vec_len} * ch.fanout;
  t.links = std::max<i64>(1, i64{num_pes} - 1);
  return wsr::Prediction(t, ch.cycles);
}

u32 EnergyTable::split_for(u32 p, u32 d, u32 c) const {
  WSR_ASSERT(p >= 2, "split_for needs p >= 2");
  d = std::min(d, p - 1);
  c = std::min(c, p - 1);
  WSR_ASSERT(d >= 1 && c >= 1, "infeasible budget");
  if (c <= limits_.c_small) return argmin_small(c, d, p);
  const u32 cc = std::min(c, limits_.c_cap);
  if (d <= limits_.d_cap) return argmin_cap(cc, d, p);
  if (cap_at(cc, limits_.d_cap, p) <= small_at(limits_.c_small, d, p)) {
    return argmin_cap(cc, limits_.d_cap, p);
  }
  return argmin_small(limits_.c_small, d, p);
}

void EnergyTable::build_rec(u32 p, u32 d, u32 c, u32 base,
                            ReduceTree& tree) const {
  if (p == 1) return;
  // Mirror the clamping used by energy() so the stored split matches.
  d = std::min(d, p - 1);
  c = std::min(c, p - 1);
  u32 de = d, ce = c;
  if (c > limits_.c_small) {
    ce = std::min(c, limits_.c_cap);
    if (d > limits_.d_cap) {
      if (cap_at(ce, limits_.d_cap, p) <= small_at(limits_.c_small, d, p)) {
        de = limits_.d_cap;
      } else {
        ce = limits_.c_small;
      }
    }
  }
  const u32 i = split_for(p, de, ce);
  WSR_ASSERT(i >= 1 && i < p, "corrupt split table");
  // First i vertices (root included) with fanout budget ce - 1 ...
  build_rec(i, de, ce - 1, base, tree);
  // ... then the last child subtree of p - i vertices at offset i.
  tree.children[base].push_back(base + i);
  build_rec(p - i, de - 1, ce, base + i, tree);
}

ReduceTree EnergyTable::build_tree_for_budget(u32 num_pes, u32 depth,
                                              u32 fanout) const {
  WSR_ASSERT(num_pes >= 1 && num_pes <= max_pes_, "num_pes out of range");
  ReduceTree tree;
  tree.children.resize(num_pes);
  if (num_pes >= 2) {
    WSR_ASSERT(energy(num_pes, depth, fanout) < kInfEnergy, "infeasible budget");
    build_rec(num_pes, depth, fanout, 0, tree);
  }
  return tree;
}

ReduceTree AutoGenModel::build_tree(u32 num_pes, u32 vec_len) const {
  if (num_pes <= 1) {
    ReduceTree t;
    t.children.resize(num_pes);
    return t;
  }
  const Choice ch = best_choice(num_pes, vec_len);
  return table_->build_tree_for_budget(num_pes, ch.depth, ch.fanout);
}

}  // namespace wsr::autogen
