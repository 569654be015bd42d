// The transport-independent half of wsrd: shared caches, serving metrics,
// and batch planning.
//
// Core::serve_batch turns a vector of parsed Requests into response bytes —
// it never touches a socket, so the same code serves the blocking --pipe
// stream and the epoll daemon (which completes the returned bytes
// asynchronously on writability). Thread-safety: one Core is shared by
// every connection and dispatcher thread; serve_batch may run concurrently
// (PlanCache is sharded, planners are per-line values, all counters are
// atomic).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "runtime/persistent_plan_cache.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/planner.hpp"
#include "serving/histogram.hpp"
#include "serving/request.hpp"
#include "store/fault_tolerant_store.hpp"
#include "store/peer_store.hpp"

namespace wsr::serving {

/// Robustness counters for the stats verb's "serving" section. Every value
/// is monotone except open_conns (a gauge) — all updated lock-free from the
/// event loop and dispatcher threads.
struct Metrics {
  std::atomic<u64> accepted{0};        ///< connections accepted
  std::atomic<u64> open_conns{0};      ///< currently open connections
  std::atomic<u64> shed_conns{0};      ///< closed at accept: over --max-conns
  std::atomic<u64> shed_requests{0};   ///< answered "overloaded" in-band
  std::atomic<u64> too_large{0};       ///< lines over --max-line-bytes
  std::atomic<u64> evicted_idle{0};    ///< idle-timeout closes
  std::atomic<u64> evicted_timeout{0}; ///< request-deadline closes (slow-loris)
  std::atomic<u64> evicted_slow{0};    ///< write-stall closes (slow readers)
  std::atomic<u64> accept_retries{0};  ///< transient accept(2) errors survived
  std::atomic<u64> responses{0};       ///< response lines emitted
  std::atomic<u64> inflight{0};        ///< requests dispatched, not yet served
  LatencyHistogram latency;            ///< service latency per response line
  i64 start_us = now_us();
};

/// Shared serving state: one memory cache, one optional disk store and an
/// optional fault-wrapped peer tier. Each line plans through a Planner of
/// its own machine; a plan depends only on the request and the machine, so
/// plans (and therefore cache keys and responses) are identical between the
/// daemon and the one-shot CLI. Planners share the process-wide Auto-Gen
/// tables, so no `tr`, defect map or extent adds one.
class Core {
 public:
  struct Options {
    std::size_t max_entries = 0;
    std::string cache_dir;  ///< "" = no persistent tier
    u32 jobs = 0;
    /// Peer daemon to consult on local misses: "unix:PATH", "/abs/path",
    /// "host:port" or a bare port ("" = no peer tier). The peer is wrapped
    /// in a FaultTolerantStore, so every peer failure mode degrades
    /// silently to the local tiers and a fresh plan.
    std::string peer;
    u32 peer_timeout_ms = 250;  ///< per-op deadline on the peer socket
    u32 peer_retries = 1;       ///< extra attempts per op (with backoff)
    /// Answer cache_get / cache_put from other daemons (off = those verbs
    /// error "cache_disabled"). Peering lookups resolve against the memory
    /// and file tiers only — never cascaded to this daemon's own peer.
    bool serve_cache = false;
    std::size_t prefetch = 0;  ///< warm the top-K hottest shapes on boot
  };

  explicit Core(const Options& opts);

  /// Plans one batch of parsed requests and returns the response bytes in
  /// input order (one '\n'-terminated JSON object per line), each written
  /// once, straight into the returned buffer. The batch's
  /// plannable lines go through PlanCache::get_or_plan on `jobs` workers,
  /// each for its own machine (requests may override it via "tr" and
  /// "link_overrides"). Lines carrying a preset error (parse failures, shed
  /// "overloaded" markers) are answered without planning. Consumes `batch`.
  std::string serve_batch(std::vector<Request>& batch);

  /// The stats verb's payload (no trailing newline).
  std::string stats_json();

  Metrics& metrics() { return metrics_; }
  const runtime::PersistentPlanCache* disk() const { return disk_.get(); }
  std::size_t prefetched() const { return prefetched_; }

 private:
  /// Answers one cache_get / cache_put line (including the serve_cache
  /// gate); returns the full response line with trailing newline.
  std::string serve_cache_op(const Request& line, const std::string& id_field);

  runtime::PlanCache cache_;
  std::unique_ptr<runtime::PersistentPlanCache> disk_;
  std::unique_ptr<store::PeerStore> peer_raw_;
  std::unique_ptr<store::FaultTolerantStore> peer_;
  u32 jobs_ = 0;
  bool serve_cache_ = false;
  std::size_t prefetched_ = 0;  ///< shapes warmed at boot (immutable after)

  std::atomic<u64> requests_{0};
  std::atomic<u64> request_errors_{0};
  std::atomic<u64> cache_gets_{0};      ///< cache_get lines served
  std::atomic<u64> cache_get_hits_{0};  ///< ... answered with a record
  std::atomic<u64> cache_puts_{0};      ///< cache_put lines served
  /// Prefetched or cache_put plans that failed runtime::servable (tier
  /// restores are counted by the cache).
  std::atomic<u64> invalid_plans_{0};
  Metrics metrics_;
};

}  // namespace wsr::serving
