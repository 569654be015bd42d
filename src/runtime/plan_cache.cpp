#include "runtime/plan_cache.hpp"

#include <algorithm>
#include <cstring>

#include "store/plan_store.hpp"
#include "wse/checks.hpp"

namespace wsr::runtime {

const char* name(PlanSource s) {
  switch (s) {
    case PlanSource::MemoryHit: return "memory";
    case PlanSource::DiskHit: return "disk";
    case PlanSource::PeerHit: return "peer";
    case PlanSource::Planned: return "planned";
  }
  return "?";
}

namespace {

constexpr u64 kFnvOffset = 1469598103934665603ull;
constexpr u64 kFnvPrime = 1099511628211ull;

u64 fnv_mix(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

bool servable(const Plan& plan, const MachineParams& mp) {
  return wse::validate(plan.schedule).empty() &&
         !wse::schedule_crosses_failed_link(plan.schedule, mp.link_overrides);
}

u64 machine_params_hash(const MachineParams& mp) {
  u64 clock_bits = 0;
  static_assert(sizeof clock_bits == sizeof mp.clock_mhz);
  std::memcpy(&clock_bits, &mp.clock_mhz, sizeof clock_bits);
  u64 h = kFnvOffset;
  h = fnv_mix(h, mp.ramp_latency);
  h = fnv_mix(h, clock_bits);
  h = fnv_mix(h, mp.sram_bytes);
  h = fnv_mix(h, mp.num_colors);
  for (const LinkOverride& o : mp.link_overrides) {
    h = fnv_mix(h, (u64{o.x} << 32) | o.y);
    h = fnv_mix(h, (u64{static_cast<u8>(o.dir)} << 32) | o.factor);
  }
  return h;
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  u64 h = kFnvOffset;
  h = fnv_mix(h, static_cast<u64>(k.collective));
  h = fnv_mix(h, (u64{k.grid.width} << 32) | k.grid.height);
  h = fnv_mix(h, k.vec_len);
  h = fnv_mix(h, machine_params_hash(k.machine));
  for (char c : k.algorithm) h = fnv_mix(h, static_cast<unsigned char>(c));
  return static_cast<std::size_t>(h);
}

PlanCache::PlanCache(u32 num_shards, std::size_t max_entries)
    : num_shards_(std::max<u32>(1, num_shards)),
      max_entries_(max_entries),
      // ceil-divide so the total stays >= max_entries; each shard holds at
      // least one entry so a tiny bound cannot wedge a shard at zero.
      shard_capacity_(max_entries == 0
                          ? 0
                          : std::max<std::size_t>(
                                1, (max_entries + num_shards_ - 1) /
                                       num_shards_)),
      shards_(std::make_unique<Shard[]>(num_shards_)) {}

PlanCache::~PlanCache() = default;

PlanKey PlanCache::key_for(const Planner& planner, const PlanRequest& req) {
  return {req.collective, req.grid, req.vec_len, planner.machine(),
          req.algorithm};
}

void PlanCache::attach_disk_store(store::PlanStore* disk) {
  file_tier_ = disk;
  // The local disk tier always resolves (and receives write-backs) before
  // any network tier.
  tiers_.insert(tiers_.begin(), disk);
}

void PlanCache::attach_tier(store::PlanStore* tier) {
  tiers_.push_back(tier);
}

PlanCache::Shard& PlanCache::shard_for(const PlanKey& key) const {
  return shards_[PlanKeyHash{}(key) % num_shards_];
}

std::shared_ptr<const Plan> PlanCache::touch(
    Shard& shard,
    std::unordered_map<PlanKey, Entry, PlanKeyHash>::iterator it) const {
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  return it->second.plan;
}

std::shared_ptr<const Plan> PlanCache::find(const PlanKey& key) const {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : touch(shard, it);
}

std::shared_ptr<const Plan> PlanCache::insert(
    const PlanKey& key, std::shared_ptr<const Plan> plan) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.map.try_emplace(key, Entry{std::move(plan), {}});
  if (!inserted) return touch(shard, it);  // first writer wins

  shard.lru.push_front(&it->first);
  it->second.lru_pos = shard.lru.begin();
  if (shard_capacity_ != 0 && shard.map.size() > shard_capacity_) {
    const PlanKey* victim = shard.lru.back();
    shard.lru.pop_back();
    // Erase via iterator: the key reference lives inside the node.
    shard.map.erase(shard.map.find(*victim));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second.plan;
}

std::shared_ptr<const Plan> PlanCache::get_or_plan(const Planner& planner,
                                                   const PlanRequest& req,
                                                   PlanSource* source) {
  const PlanKey key = key_for(planner, req);
  // Hot-shape demand is counted per request, whichever tier answers —
  // prefetch ranking must reflect what is asked for, not what misses.
  for (store::PlanStore* tier : tiers_) tier->note_use(key);
  if (std::shared_ptr<const Plan> cached = find(key)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (source != nullptr) *source = PlanSource::MemoryHit;
    return cached;
  }
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    store::GetResult got = tiers_[i]->get(key);
    // Strict fall-through: Error and Timeout are the tier's problem, not
    // this request's — anything that is not a servable Hit walks on to the
    // next tier and ultimately a fresh plan.
    if (got.status != store::StoreStatus::Hit) continue;
    if (!servable(*got.plan, key.machine)) {
      invalid_plans_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const PlanSource tag = tiers_[i]->source_tag();
    if (tag == PlanSource::PeerHit) {
      peer_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      disk_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    // Write back to the tiers that missed before this one (best-effort),
    // so e.g. a peer hit lands in the local disk store too.
    for (std::size_t j = 0; j < i; ++j) tiers_[j]->put(key, got.plan);
    if (source != nullptr) *source = tag;
    return insert(key, std::move(got.plan));  // promote into the memory tier
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Plan> planned =
      std::make_shared<const Plan>(planner.plan(req));
  std::shared_ptr<const Plan> winner = insert(key, planned);
  // Only the race winner persists its plan; losers' redundant plans are
  // dropped, so the store never holds two records for one key from one
  // process (cross-process duplicates are resolved first-wins on load).
  if (winner.get() == planned.get()) {
    for (store::PlanStore* tier : tiers_) tier->put(key, winner);
  }
  if (source != nullptr) *source = PlanSource::Planned;
  return winner;
}

std::size_t PlanCache::size() const {
  std::size_t n = 0;
  for (u32 i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    n += shards_[i].map.size();
  }
  return n;
}

void PlanCache::clear() {
  for (u32 i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].map.clear();
    shards_[i].lru.clear();
  }
  evictions_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  disk_hits_.store(0, std::memory_order_relaxed);
  peer_hits_.store(0, std::memory_order_relaxed);
  invalid_plans_.store(0, std::memory_order_relaxed);
}

}  // namespace wsr::runtime
