#include "store/plan_store.hpp"

#include <algorithm>

namespace wsr::store {

const char* name(StoreStatus s) {
  switch (s) {
    case StoreStatus::Hit: return "hit";
    case StoreStatus::Miss: return "miss";
    case StoreStatus::Error: return "error";
    case StoreStatus::Timeout: return "timeout";
  }
  return "?";
}

void HotTracker::note(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = counts_.try_emplace(key);
  if (inserted) it->second.order = next_order_++;
  ++it->second.uses;
}

void HotTracker::seed(const PlanKey& key, u64 uses) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = counts_.try_emplace(key);
  if (inserted) it->second.order = next_order_++;
  it->second.uses += uses;
}

std::vector<HotShape> HotTracker::top(std::size_t max) const {
  struct Ranked {
    HotShape shape;
    u64 order;
  };
  std::vector<Ranked> ranked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ranked.reserve(counts_.size());
    for (const auto& [key, slot] : counts_) {
      ranked.push_back({{key, slot.uses}, slot.order});
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.shape.uses != b.shape.uses) return a.shape.uses > b.shape.uses;
    return a.order < b.order;
  });
  if (max != 0 && ranked.size() > max) ranked.resize(max);
  std::vector<HotShape> out;
  out.reserve(ranked.size());
  for (Ranked& r : ranked) out.push_back(std::move(r.shape));
  return out;
}

u64 HotTracker::tracked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_.size();
}

}  // namespace wsr::store
