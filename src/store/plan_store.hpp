// PlanStore: the pluggable backend interface of the plan cache hierarchy.
//
// The tier chain under the sharded in-memory PlanCache is pluggable in the
// style of dovecot's lib-dict — one API, two drivers and one policy wrapper:
//
//   PersistentPlanCache  the flock'd on-disk store, kind "file"
//                        (runtime/persistent_plan_cache.hpp)
//   PeerStore            another wsrd daemon over cache_get/cache_put NDJSON
//   FaultTolerantStore   policy wrapper: deadlines, retries, circuit breaker
//
// The test doubles (a plain map and a fault injector) live with the tests
// in tests/store_fakes.hpp.
//
// PlanCache walks an ordered chain of these on a memory miss (runtime/
// plan_cache.hpp): the first Hit wins, is promoted into memory, and is
// written back to every earlier tier; a planned miss is put to every tier.
//
// The contract every driver must honor (the LZ-style degradation rule):
// a backend failure is NEVER the caller's problem. get() reports Error or
// Timeout in its status — so ledgers and breakers can count it — but the
// caller treats anything that is not a Hit as a clean miss and falls
// through to the next tier, ultimately to a fresh plan. No driver may
// throw, block indefinitely, or return a plan that did not decode and
// checksum bit-exactly.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/plan_cache.hpp"

namespace wsr::store {

using runtime::Plan;
using runtime::PlanKey;
using runtime::PlanKeyHash;

/// How a get() resolved. Miss is authoritative ("the backend looked and
/// does not have it"); Error and Timeout are backend failures (connection
/// refused, garbage reply, checksum mismatch, deadline blown) — the caller
/// treats all three as a miss, the policy layer's breaker counts only the
/// failures.
enum class StoreStatus : u8 { Hit, Miss, Error, Timeout };

const char* name(StoreStatus s);

struct GetResult {
  StoreStatus status = StoreStatus::Miss;
  std::shared_ptr<const Plan> plan;  ///< non-null exactly when status == Hit
};

/// Per-tier serving ledger: a consistent-enough snapshot of relaxed
/// counters (each value is individually exact). The breaker_* fields are
/// only maintained by FaultTolerantStore and the disk fields only by the
/// file driver; other drivers leave them zero and breaker_state empty.
struct StoreLedger {
  u64 gets = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 errors = 0;    ///< backend failures other than deadline blows
  u64 timeouts = 0;  ///< per-op deadline failures
  u64 puts = 0;
  u64 put_errors = 0;
  u64 retries = 0;            ///< extra attempts after a failed one
  u64 breaker_trips = 0;      ///< closed/half-open -> open transitions
  u64 breaker_fastfails = 0;  ///< ops answered without touching the backend
  u64 hot_tracked = 0;        ///< distinct keys with use counters
  std::string breaker_state;  ///< "closed" | "open" | "half_open"; "" = none

  // Disk fields (the file driver).
  u64 entries = 0;      ///< plans in the store's index
  u64 loaded = 0;       ///< records restored at construction
  u64 load_errors = 0;  ///< records dropped (checksum/decode/unknown algo)
  u64 appended = 0;     ///< records written by this process
  u64 compactions = 0;  ///< load-time store rewrites
  /// Appends served memory-only because a fatal I/O errno (ENOSPC, EIO,
  /// ...) degraded the store; includes the append that hit the errno.
  u64 store_degraded = 0;
  bool degraded = false;  ///< memory-only mode is permanently engaged
  double load_seconds = 0;
  u64 file_bytes = 0;  ///< store size at load time (post-compaction)
};

/// One entry of a hot-shape scan: a key and how often this process (plus,
/// for the file driver, prior processes via the persisted sidecar) asked
/// for it.
struct HotShape {
  PlanKey key;
  u64 uses = 0;
};

class PlanStore {
 public:
  virtual ~PlanStore() = default;

  /// Driver name for ledgers and logs ("file", "peer", ...).
  virtual const char* kind() const = 0;

  /// The provenance value a hit in this store reports (PlanSource::DiskHit
  /// for the file driver, PlanSource::PeerHit for the peer driver).
  virtual runtime::PlanSource source_tag() const = 0;

  virtual GetResult get(const PlanKey& key) = 0;

  /// Best-effort durability: false on failure, which the caller ignores
  /// beyond its own accounting (a failed put never fails a request).
  virtual bool put(const PlanKey& key, std::shared_ptr<const Plan> plan) = 0;

  /// Hot-shape tracking: the serving path calls this once per request that
  /// reaches the tier chain (whichever tier answers), so the counters rank
  /// true demand, not just this tier's hits. Default: not tracked.
  virtual void note_use(const PlanKey& key) { (void)key; }

  /// Enumerates up to `max` known shapes, hottest first (0 = all). Drivers
  /// without an enumerable index (the peer) return empty.
  virtual std::vector<HotShape> scan(std::size_t max) = 0;

  virtual StoreLedger stats() const = 0;
};

/// Use-count tracking shared by drivers that implement note_use/scan.
/// Thread-safe; ranking is (uses desc, first-seen asc) so a boot-time scan
/// — before any request has been counted — still yields a deterministic
/// order (the file driver seeds first-seen from the store-file load order).
class HotTracker {
 public:
  void note(const PlanKey& key);
  /// Seeds a key at zero uses (insertion order = rank tiebreak).
  void seed(const PlanKey& key, u64 uses = 0);
  std::vector<HotShape> top(std::size_t max) const;
  u64 tracked() const;

 private:
  struct Slot {
    u64 uses = 0;
    u64 order = 0;
  };
  mutable std::mutex mu_;
  std::unordered_map<PlanKey, Slot, PlanKeyHash> counts_;
  u64 next_order_ = 0;
};

}  // namespace wsr::store
