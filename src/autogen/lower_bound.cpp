#include "autogen/lower_bound.hpp"

#include <algorithm>
#include <limits>

#include "autogen/dp.hpp"  // for kInfEnergy
#include "common/math.hpp"

namespace wsr::autogen {

LowerBound::LowerBound(u32 max_pes) : max_pes_(max_pes) {
  WSR_ASSERT(max_pes_ >= 1, "max_pes must be >= 1");
  d_max_ = std::max<u32>(1, max_pes_ - 1);
  const std::size_t row = max_pes_ + 1;
  table_.assign(std::size_t{d_max_} * row, kInfEnergy);

  // E*(1, d) = 0 for all d; E*(p >= 2, 0) = infeasible.
  auto prev_row_val = [&](u32 d, u32 p) -> i32 {
    if (p == 1) return 0;
    if (d == 0) return kInfEnergy;
    return at(d, p);
  };
  for (u32 d = 1; d <= d_max_; ++d) {
    at(d, 1) = 0;
    for (u32 p = 2; p <= max_pes_; ++p) {
      i32 best = kInfEnergy;
      for (u32 i = 1; i < p; ++i) {
        const i32 a = prev_row_val(d, i);       // E*(i, D): same row, i < p.
        const i32 b = prev_row_val(d - 1, p - i);  // E*(P-i, D-1).
        if (a >= kInfEnergy || b >= kInfEnergy) continue;
        const i32 cand = a + b + static_cast<i32>(std::min(i, p - i + 1));
        best = std::min(best, cand);
      }
      at(d, p) = best;
    }
  }
}

i64 LowerBound::energy(u32 p, u32 d) const {
  WSR_ASSERT(p >= 1 && p <= max_pes_, "p out of range");
  if (p == 1) return 0;
  if (d == 0) return kInfEnergy;
  return at(std::min(d, p - 1), p);
}

double LowerBound::cycles(u32 num_pes, u32 vec_len,
                          const wsr::MachineParams& mp) const {
  WSR_ASSERT(num_pes >= 1 && num_pes <= max_pes_, "num_pes out of range");
  WSR_ASSERT(vec_len >= 1, "vec_len must be >= 1");
  if (num_pes == 1) return 0.0;
  const double B = vec_len;
  const double Pm1 = num_pes - 1;
  double best = std::numeric_limits<double>::infinity();
  for (u32 d = 1; d < num_pes; ++d) {
    const double t =
        B * static_cast<double>(energy(num_pes, d)) / Pm1 + Pm1 +
        static_cast<double>(mp.per_depth_cycles()) * d;
    best = std::min(best, t);
  }
  return best;
}

u32 LowerBound::best_depth(u32 num_pes, u32 vec_len,
                           const wsr::MachineParams& mp) const {
  WSR_ASSERT(num_pes >= 2 && num_pes <= max_pes_, "num_pes out of range");
  const double B = vec_len;
  const double Pm1 = num_pes - 1;
  double best = std::numeric_limits<double>::infinity();
  u32 best_d = 1;
  for (u32 d = 1; d < num_pes; ++d) {
    const double t =
        B * static_cast<double>(energy(num_pes, d)) / Pm1 + Pm1 +
        static_cast<double>(mp.per_depth_cycles()) * d;
    if (t < best) {
      best = t;
      best_d = d;
    }
  }
  return best_d;
}

}  // namespace wsr::autogen
