// PlanCache: a thread-safe, mutex-sharded cache of finished plans.
//
// Planning is expensive relative to serving: a cold plan evaluates every
// registered candidate's cost model and compiles + validates the winning
// Schedule (and the first Auto-Gen plan fills a DP table). Under the
// ROADMAP's heavy-traffic serving story the same (collective, grid, B)
// shapes repeat constantly — a data-parallel training job asks for the
// identical gradient AllReduce every step — so plans are cached behind a
// key of (collective, grid, vec_len, MachineParams, forced algorithm)
// and shared as shared_ptr<const Plan> (plans are immutable once built).
//
// Sharding: the map is split over `num_shards` independently locked shards
// (key-hash modulo), so concurrent planners hitting different shapes do not
// serialize on one mutex. bench/abl_plan_cache.cpp measures the hit path at
// >= 10x over cold planning; tests/test_plan_cache.cpp hammers one cache
// from 8 threads.
//
// Eviction: `max_entries` bounds the cache (0 = unbounded). The bound is
// split evenly across shards and each shard runs an intrusive LRU list
// under its own mutex: find/get refresh recency, insert evicts the shard's
// least-recently-used entry once the shard is full. Evicted plans stay
// alive for holders of the shared_ptr — eviction only drops the cache's
// reference.
//
// Tiering: under the memory tier sits an ordered chain of pluggable
// store::PlanStore backends (src/store/plan_store.hpp) — in production
// wiring the local file store (PersistentPlanCache) and optionally a
// fault-wrapped PeerStore. get_or_plan walks memory -> tiers in order ->
// plan: the first servable tier Hit wins, is promoted into the memory tier,
// and is written back to every earlier tier; a planned miss is put to every
// tier. A tier Hit that fails servable() is a miss (counted in
// invalid_plans()): stores outlive builds and peers may be misconfigured or
// corrupt, so no restored record is promoted or copied unchecked.
// The caller observes which tier answered via the PlanSource out-parameter
// (the daemon reports it as per-request provenance). Tier durability is
// best-effort and tier *failures* are invisible: a tier reporting
// Error/Timeout is treated exactly like a miss (strict fall-through), so a
// dead peer degrades to disk and ultimately a fresh plan.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/planner.hpp"

namespace wsr {
namespace store {
class PlanStore;
}  // namespace store

namespace runtime {

/// Which tier answered a get_or_plan call (serving provenance).
enum class PlanSource : u8 {
  MemoryHit,  ///< resolved in the sharded in-memory tier
  DiskHit,    ///< restored from the persistent store (now promoted to memory)
  PeerHit,    ///< fetched from a peer daemon's cache (now promoted to memory)
  Planned,    ///< planned from scratch (a true miss of every tier)
};

const char* name(PlanSource s);

/// Flow-level validation of a plan restored from an untrusted tier (disk
/// file, peer daemon): the schedule passes the structural validator and
/// does not route across a link `mp` reports failed. A freshly planned
/// schedule is validated by its builder.
bool servable(const Plan& plan, const MachineParams& mp);

/// Stable hash of the machine parameterization (used for shard/bucket
/// placement; key equality compares the full struct, so hash collisions
/// between machine configurations can never serve a wrong plan).
u64 machine_params_hash(const MachineParams& mp);

struct PlanKey {
  Collective collective = Collective::Reduce;
  GridShape grid;
  u32 vec_len = 0;
  /// Planners with different MachineParams produce different plans for the
  /// same request, so the machine is part of the key (one cache can serve
  /// many machines).
  MachineParams machine;
  std::string algorithm;  ///< forced algorithm; empty = model-driven

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

/// Thread-safety: every method is safe to call concurrently (per-shard
/// mutexes; counters are relaxed atomics, so cross-counter reads are
/// individually exact but not a consistent snapshot). The attach_* calls
/// are the exception — wire the tiers before serving starts.
class PlanCache {
 public:
  /// `max_entries` == 0 means unbounded; otherwise the bound is rounded up
  /// to whole shards: each shard holds at most
  /// max(1, ceil(max_entries / num_shards)) plans, so the cache holds at
  /// most num_shards * that (e.g. (16, 24) -> 2 per shard, 32 total).
  explicit PlanCache(u32 num_shards = 16, std::size_t max_entries = 0);
  ~PlanCache();

  /// The cache key of a request as planned by `planner`.
  static PlanKey key_for(const Planner& planner, const PlanRequest& req);

  /// Layers the local disk store (not owned; must outlive this cache) at
  /// the front of the tier chain. Misses then fall through to the store
  /// and planned results are appended to it. Attach at most once, before
  /// serving begins — the chain is not synchronized.
  void attach_disk_store(store::PlanStore* disk);
  /// The attach_disk_store tier (nullptr until then). The daemon resolves
  /// peering lookups and boot prefetch against it directly, never through
  /// the network tiers; plan_cache_counters_json reads its ledger.
  store::PlanStore* file_tier() const { return file_tier_; }

  /// Appends a backend tier (not owned; must outlive this cache) to the
  /// chain — e.g. a fault-wrapped PeerStore after the disk tier. Attach
  /// before serving begins.
  void attach_tier(store::PlanStore* tier);

  /// nullptr on miss. Memory tier only; refreshes LRU recency but does not
  /// update hit/miss counters (those describe the get_or_plan serving path).
  std::shared_ptr<const Plan> find(const PlanKey& key) const;

  /// Inserts if absent; returns the cached entry (first writer wins, so
  /// concurrent planners of the same shape converge on one plan).
  std::shared_ptr<const Plan> insert(const PlanKey& key,
                                     std::shared_ptr<const Plan> plan);

  /// The serving path: memory hit, else servable tier hit (promoted to
  /// memory), else plan-and-cache (put to every tier).
  /// Safe to call from many threads; a racing miss may plan redundantly,
  /// but all callers receive the single first-inserted plan. When `source`
  /// is non-null it receives the answering tier; under races the reported
  /// tier reflects this caller's path, not the winning inserter's.
  std::shared_ptr<const Plan> get_or_plan(const Planner& planner,
                                          const PlanRequest& req,
                                          PlanSource* source = nullptr);

  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 misses() const { return misses_.load(std::memory_order_relaxed); }
  u64 evictions() const { return evictions_.load(std::memory_order_relaxed); }
  /// Misses of the memory tier answered by a DiskHit-tagged tier. Tier
  /// hits are counted separately from hits()/misses(): hits() is
  /// memory-tier only and misses() counts requests that were actually
  /// planned.
  u64 disk_hits() const { return disk_hits_.load(std::memory_order_relaxed); }
  /// Misses of the memory tier answered by a PeerHit-tagged tier.
  u64 peer_hits() const { return peer_hits_.load(std::memory_order_relaxed); }
  /// Tier hits refused by servable() (and walked past as misses).
  u64 invalid_plans() const {
    return invalid_plans_.load(std::memory_order_relaxed);
  }
  std::size_t max_entries() const { return max_entries_; }
  std::size_t size() const;
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const Plan> plan;
    /// Position in the shard's LRU list (most-recent at front).
    std::list<const PlanKey*>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<PlanKey, Entry, PlanKeyHash> map;
    /// Recency order over the map's keys (pointers into the map's nodes,
    /// which are stable under unordered_map insert/erase).
    std::list<const PlanKey*> lru;
  };

  Shard& shard_for(const PlanKey& key) const;

  /// Marks `it` most recently used; returns its plan. Caller holds the lock.
  std::shared_ptr<const Plan> touch(
      Shard& shard,
      std::unordered_map<PlanKey, Entry, PlanKeyHash>::iterator it) const;

  u32 num_shards_;
  std::size_t max_entries_;
  std::size_t shard_capacity_;  ///< 0 = unbounded
  std::unique_ptr<Shard[]> shards_;
  /// Ordered backend chain walked on memory misses. The attach_disk_store
  /// tier always sits first; attach_tier appends.
  std::vector<store::PlanStore*> tiers_;
  store::PlanStore* file_tier_ = nullptr;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<u64> disk_hits_{0};
  std::atomic<u64> peer_hits_{0};
  std::atomic<u64> invalid_plans_{0};
};

}  // namespace runtime
}  // namespace wsr
