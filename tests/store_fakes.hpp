// Test doubles of the PlanStore interface (src/store/plan_store.hpp):
//
//   MemoryStore  a mutex-guarded map — the reference backend under
//                FlakyStore, and the smallest example of the interface
//   FlakyStore   deterministic fault injection around any PlanStore
//
// FlakyStore has three fault shapes, mirroring what a real peer does under
// chaos:
//
//   fail-N        the next N ops report a chosen failure class before
//                 touching the backend (connect refused / deadline blown)
//   seeded rate   every op fails with probability rate/256, decided by a
//                 seeded splitmix64 stream — reproducible for a given seed,
//                 independent of thread timing or wall clock
//   torn payload  the backend is consulted, but a would-be Hit comes back
//                 as Error — modeling a reply whose record failed the
//                 checksum/decode (the plan exists, the bytes were torn)
//
// tests/test_plan_store.cpp drives FaultTolerantStore through every breaker
// transition with fail_next_* and validates strict fall-through under the
// seeded rate.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "store/plan_store.hpp"

namespace wsr::store {

class MemoryStore : public PlanStore {
 public:
  const char* kind() const override { return "memory"; }
  runtime::PlanSource source_tag() const override {
    return runtime::PlanSource::DiskHit;
  }

  GetResult get(const PlanKey& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++gets_;
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return {StoreStatus::Miss, nullptr};
    }
    ++hits_;
    return {StoreStatus::Hit, it->second};
  }

  bool put(const PlanKey& key, std::shared_ptr<const Plan> plan) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++puts_;
    map_.try_emplace(key, std::move(plan));  // first writer wins, like the file
    return true;
  }

  void note_use(const PlanKey& key) override { hot_.note(key); }
  std::vector<HotShape> scan(std::size_t max) override { return hot_.top(max); }

  StoreLedger stats() const override {
    StoreLedger ledger;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ledger.gets = gets_;
      ledger.hits = hits_;
      ledger.misses = misses_;
      ledger.puts = puts_;
    }
    ledger.hot_tracked = hot_.tracked();
    return ledger;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<PlanKey, std::shared_ptr<const Plan>, PlanKeyHash> map_;
  HotTracker hot_;
  u64 gets_ = 0, hits_ = 0, misses_ = 0, puts_ = 0;
};

class FlakyStore : public PlanStore {
 public:
  /// `inner` is not owned and must outlive this wrapper.
  explicit FlakyStore(PlanStore& inner, u64 seed = 0)
      : inner_(inner), rng_state_(seed) {}

  const char* kind() const override { return "flaky"; }
  runtime::PlanSource source_tag() const override {
    return inner_.source_tag();
  }

  GetResult get(const PlanKey& key) override {
    StoreStatus inject = StoreStatus::Hit;  // Hit = no injection
    bool tear = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fail_gets_ > 0) {
        --fail_gets_;
        inject = fail_gets_status_;
      } else if (roll(failure_rate_)) {
        inject = failure_rate_status_;
      } else {
        tear = roll(torn_rate_);
      }
      if (inject != StoreStatus::Hit) ++injected_;
    }
    if (inject != StoreStatus::Hit) return {inject, nullptr};
    GetResult r = inner_.get(key);
    if (tear && r.status == StoreStatus::Hit) {
      std::lock_guard<std::mutex> lock(mu_);
      ++injected_;
      return {StoreStatus::Error, nullptr};
    }
    return r;
  }

  bool put(const PlanKey& key, std::shared_ptr<const Plan> plan) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fail_puts_ > 0) {
        --fail_puts_;
        ++injected_;
        return false;
      }
      if (roll(failure_rate_)) {
        ++injected_;
        return false;
      }
    }
    return inner_.put(key, std::move(plan));
  }

  void note_use(const PlanKey& key) override { inner_.note_use(key); }
  std::vector<HotShape> scan(std::size_t max) override {
    return inner_.scan(max);
  }
  StoreLedger stats() const override { return inner_.stats(); }

  /// The next `n` gets fail with `status` (Error or Timeout) without
  /// reaching the backend.
  void fail_next_gets(u32 n, StoreStatus status = StoreStatus::Error) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_gets_ = n;
    fail_gets_status_ = status;
  }
  /// The next `n` puts fail without reaching the backend.
  void fail_next_puts(u32 n) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_puts_ = n;
  }
  /// Every op additionally fails with probability `rate`/256 (0 = off),
  /// drawn from the seeded stream.
  void set_failure_rate(u32 rate_per_256, StoreStatus status) {
    std::lock_guard<std::mutex> lock(mu_);
    failure_rate_ = rate_per_256;
    failure_rate_status_ = status;
  }
  /// Every would-be get Hit decays to Error with probability `rate`/256
  /// (torn payload); fail_next_gets(n) + set_torn_rate(256) tears
  /// deterministically.
  void set_torn_rate(u32 rate_per_256) {
    std::lock_guard<std::mutex> lock(mu_);
    torn_rate_ = rate_per_256;
  }

  u64 injected_failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_;
  }

 private:
  /// Advances the seeded splitmix64 stream and draws against
  /// `rate_per_256`. Caller holds mu_.
  bool roll(u32 rate_per_256) {
    if (rate_per_256 == 0) return false;
    u64 x = rng_state_ + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    rng_state_ = x ^ (x >> 31);
    return rng_state_ % 256 < rate_per_256;
  }

  PlanStore& inner_;
  mutable std::mutex mu_;
  u64 rng_state_;
  u32 fail_gets_ = 0;
  StoreStatus fail_gets_status_ = StoreStatus::Error;
  u32 fail_puts_ = 0;
  u32 failure_rate_ = 0;
  StoreStatus failure_rate_status_ = StoreStatus::Error;
  u32 torn_rate_ = 0;
  u64 injected_ = 0;
};

}  // namespace wsr::store
