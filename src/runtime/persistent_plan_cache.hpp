// PersistentPlanCache: a checksummed, versioned on-disk plan store — the
// "file" driver of the store::PlanStore tier chain (src/store/plan_store.hpp)
// and the disk tier under the sharded in-memory PlanCache.
//
// Planning is the expensive step of the serving path (a cold plan evaluates
// every candidate's cost model and compiles + validates the winning
// Schedule; the first Auto-Gen plan fills a ~1 s DP table), while a plan is
// a small immutable artifact that replays for free. This store makes plans
// survive process restarts and lets independent processes (wsr_plan
// one-shots, wsrd daemons) share one warm cache directory: load-on-start,
// append-on-miss, and every record independently checksummed so no torn or
// corrupted byte can ever surface as a wrong plan — corruption degrades to
// a clean miss and a re-plan.
//
// The record codec (header/frame layout, payload serialization, checksums)
// lives in store/record.hpp — it is shared with the peer cache tier, whose
// wire payloads are these exact record bytes. File layout:
//
//   <dir>/plans.wsrpc
//   header : magic "WSRPLANC" (8 bytes) | u32 endian tag 0x01020304
//          | u32 schema version (store::kSchemaVersion)
//   record : u32 record magic | u64 payload size | u64 FNV-1a checksum
//          | payload
//   payload: serialized (PlanKey, Plan) — length-prefixed strings,
//            fixed-width little-endian integers, f64 as bit pattern.
//
// Hot-shape use counters (note_use/scan, which order wsrd's boot prefetch)
// persist across restarts in a human-greppable sidecar next to the store:
//
//   <dir>/hot.wsrh       one line per shape: "<uses> <base64(key)>\n"
//
// The sidecar is advisory, so its failure modes are all benign: a
// missing/garbled file or undecodable line is skipped, and it is rewritten
// whole via temp file + rename on destruction.
//
// Recovery rules (tests/test_persistent_cache.cpp pins each one):
//   * header magic/endian/version mismatch -> the whole file is ignored
//     (clean miss for everything) and the next append atomically rewrites
//     it under the current schema via temp file + rename;
//   * a record whose frame is damaged (bad magic / truncated) ends the
//     scan — the valid prefix is kept, the tail is dropped;
//   * a record whose frame is intact but whose checksum or payload decode
//     fails is skipped individually;
//   * a record naming an algorithm the registry no longer knows is skipped
//     (plans round-trip algorithm descriptors by stable name, so a renamed
//     or removed algorithm invalidates exactly its own records).
//
// Write failures (tests/test_plan_store.cpp pins the degradation): a fatal
// append errno — ENOSPC, EDQUOT, EIO, EROFS — first truncates the store
// back to its pre-append size (a torn half-record must not poison later
// appends), then flips this process into memory-only operation: every
// subsequent append is served from the index and counted in
// stats().store_degraded, never silently dropped and never a crash.
// Transient failures (e.g. a lost flock race) stay per-record best-effort.
//
// Concurrency: one process serializes appends behind a mutex; across
// processes every append takes an exclusive flock on the store file, so
// concurrent writers interleave whole records. Duplicate keys (two racing
// processes planning the same shape) are benign: the first record wins on
// load, exactly the in-memory cache's first-writer-wins rule.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/plan_store.hpp"

namespace wsr::runtime {

class PersistentPlanCache : public store::PlanStore {
 public:
  /// Opens (creating if needed) the store directory and loads every valid
  /// record into the in-memory index. Never throws on a damaged store —
  /// damage is counted in stats().load_errors and degrades to misses. The
  /// hot-shape ranking is seeded from the sidecar, then from the store's
  /// load order (so a fresh boot with no counters still prefetches in a
  /// deterministic order: the order plans were first planned).
  ///
  /// Compaction: the store file is append-only, so dead bytes accumulate —
  /// duplicate keys from racing writers, records invalidated by renamed or
  /// removed algorithms, bit-rotted payloads. When the dead bytes exceed
  /// half the file at load, the store is rewritten in place (the same
  /// temp-file + atomic-rename path header recovery uses, under the store
  /// flock) keeping the first decodable record per key. Records naming
  /// algorithms *this* registry cannot resolve are preserved: they are a
  /// per-process miss, not corruption — a process sharing the store may
  /// still serve them.
  explicit PersistentPlanCache(std::string dir);
  /// Flushes the hot sidecar (best-effort: an I/O failure costs only
  /// warm-up ordering).
  ~PersistentPlanCache() override;
  PersistentPlanCache(const PersistentPlanCache&) = delete;
  PersistentPlanCache& operator=(const PersistentPlanCache&) = delete;

  const char* kind() const override { return "file"; }
  PlanSource source_tag() const override { return PlanSource::DiskHit; }

  /// Index lookup: Hit or Miss, never Error/Timeout. Thread-safe; does not
  /// touch the disk (the index is loaded once at construction, and disk
  /// damage already degraded to misses there).
  store::GetResult get(const PlanKey& key) override;

  bool put(const PlanKey& key, std::shared_ptr<const Plan> plan) override {
    return append(key, std::move(plan));
  }

  /// Adds the plan to the index and appends its record to the store file
  /// (flock-serialized; creation and header-recovery rewrites go through a
  /// temp file + atomic rename). First writer wins on a duplicate key.
  /// Returns true when the record is durable on disk (or the key was
  /// already present); false when the write failed or the store is
  /// degraded — the plan is still served from the index either way.
  bool append(const PlanKey& key, std::shared_ptr<const Plan> plan);

  void note_use(const PlanKey& key) override { hot_.note(key); }
  std::vector<store::HotShape> scan(std::size_t max) override {
    return hot_.top(max);
  }

  /// The tier ledger plus the disk fields: entries, the load_* and
  /// file_bytes figures of the load at construction, and the append-side
  /// counters (appended, compactions, store_degraded, degraded).
  store::StoreLedger stats() const override;

  const std::string& dir() const { return dir_; }
  std::string store_path() const;

  /// Test hook: the next `times` physical appends fail as-if with `err`
  /// (before touching the file), so tests can pin the ENOSPC/EIO
  /// degradation path without filling a filesystem.
  void inject_append_errno_for_tests(int err, u32 times);

 private:
  void load();
  void load_hot();
  /// Rewrites the hot sidecar via temp file + rename (best-effort).
  void flush_hot();
  /// Appends `record` under the store flock. On failure the file is
  /// truncated back to its pre-append size (no torn tail) and *err_out
  /// carries the classifying errno (0 if unknown).
  bool append_record(const std::string& record, int* err_out);
  bool recover_store(const std::string& record);
  /// Rewrites the store to its live record set (first valid record per
  /// key, parsed fresh under the store flock so concurrent appends are
  /// kept) via temp file + atomic rename. Returns the resulting file
  /// size — unchanged, without rewriting, when no bytes can be reclaimed
  /// — or nullopt on I/O failure or a foreign/mismatched header (another
  /// schema's store is never ours to rewrite). Caller holds io_mu_.
  std::optional<u64> compact_store();

  std::string dir_;

  /// `mu_` guards the in-memory index (lookups stay lock-cheap); `io_mu_`
  /// serializes this process's file writes. Ordering: io_mu_ may take mu_
  /// (for the recovery snapshot), never the reverse.
  mutable std::mutex mu_;
  std::unordered_map<PlanKey, std::shared_ptr<const Plan>, PlanKeyHash> index_;
  /// loaded, load_errors, load_seconds and file_bytes; written only by
  /// load() during construction, so stats() reads them unlocked.
  store::StoreLedger load_;
  store::HotTracker hot_;

  /// Ledger counters: relaxed atomics, so get() stays lock-cheap and
  /// stats() never waits behind a compaction or a cross-process flock —
  /// wsrd renders these counters into every response.
  std::atomic<u64> gets_{0}, hits_{0}, misses_{0};
  std::atomic<u64> puts_{0}, put_errors_{0};
  mutable std::mutex io_mu_;
  std::atomic<u64> appended_{0};
  std::atomic<u64> compactions_{0};  ///< rewrites that actually shrank it
  std::atomic<u64> store_degraded_{0};
  std::atomic<bool> degraded_{false};
  /// Test fault injection (guarded by io_mu_).
  int inject_errno_ = 0;
  u32 inject_errno_times_ = 0;
  /// Set when load() found a header from another schema (or no valid
  /// header): the next append rewrites the whole store atomically instead
  /// of appending after unparseable bytes.
  bool rewrite_on_next_append_ = false;
};

}  // namespace wsr::runtime
