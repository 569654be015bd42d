#include "serving/core.hpp"

#include <cstdio>

#include "common/minijson.hpp"
#include "common/parallel.hpp"
#include "runtime/plan_json.hpp"
#include "store/record.hpp"

namespace wsr::serving {

Core::Core(const Options& opts)
    : cache_(16, opts.max_entries),
      jobs_(opts.jobs),
      serve_cache_(opts.serve_cache) {
  if (!opts.cache_dir.empty()) {
    disk_ = std::make_unique<runtime::PersistentPlanCache>(opts.cache_dir);
    cache_.attach_disk_store(disk_.get());
  }
  if (!opts.peer.empty()) {
    store::PeerStore::Options po;
    po.target = opts.peer;
    po.timeout_ms = opts.peer_timeout_ms;
    peer_raw_ = std::make_unique<store::PeerStore>(po);
    store::FaultTolerantStore::Policy policy;
    policy.retries = opts.peer_retries;
    peer_ = std::make_unique<store::FaultTolerantStore>(*peer_raw_, policy);
    cache_.attach_tier(peer_.get());
  }
  if (opts.prefetch > 0 && disk_) {
    // Warm-up: promote the historically hottest shapes (persisted use
    // counters, then store-file order) into the memory tier before the
    // first request lands. Local tiers only — booting must not depend on
    // a peer.
    for (const store::HotShape& hot : disk_->scan(opts.prefetch)) {
      store::GetResult got = disk_->get(hot.key);
      if (got.status != store::StoreStatus::Hit) continue;
      if (!runtime::servable(*got.plan, hot.key.machine)) {
        invalid_plans_.fetch_add(1);
        continue;
      }
      cache_.insert(hot.key, std::move(got.plan));
      ++prefetched_;
    }
  }
}

std::string Core::serve_batch(std::vector<Request>& batch) {
  std::vector<std::size_t> plannable;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].is_plan()) plannable.push_back(i);
  }
  std::vector<std::shared_ptr<const runtime::Plan>> plans(batch.size());
  std::vector<runtime::PlanSource> tiers(batch.size());
  parallel_for_index(plannable.size(), jobs_, [&](std::size_t k) {
    const std::size_t i = plannable[k];
    // max_pes sizes only autogen_model() and lower_bound(), which serving
    // never calls; plan() sizes its tables by the request.
    const runtime::Planner planner(runtime::kMaxGridExtent, batch[i].mp);
    plans[i] = cache_.get_or_plan(planner, batch[i].req, &tiers[i]);
  });

  std::string out;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& line = batch[i];
    requests_.fetch_add(1);
    const std::string id_field =
        line.id_json.empty() ? "" : "\"id\":" + line.id_json + ",";
    if (!line.error.empty()) {
      request_errors_.fetch_add(1);
      out += "{" + id_field + "\"error\":\"" + json::escape(line.error) +
             "\"}\n";
    } else if (line.stats) {
      out += stats_json() + "\n";
    } else if (line.is_cache()) {
      out += serve_cache_op(line, id_field);
    } else {
      std::string extras = id_field;
      extras += "\"cache_tier\":\"";
      extras += runtime::name(tiers[i]);
      extras += "\",";
      extras += runtime::plan_cache_counters_json(cache_);
      runtime::append_plan_response_json(out, line.req, *plans[i], line.mp,
                                         extras);
      out += '\n';
    }
    metrics_.responses.fetch_add(1);
    const i64 dt = now_us() - line.t_enqueue_us;
    metrics_.latency.record(dt > 0 ? static_cast<u64>(dt) : 0);
  }
  batch.clear();
  return out;
}

std::string Core::serve_cache_op(const Request& line,
                                 const std::string& id_field) {
  if (!serve_cache_) {
    request_errors_.fetch_add(1);
    return "{" + id_field + "\"error\":\"cache_disabled\"}\n";
  }
  if (line.cache_get) {
    cache_gets_.fetch_add(1);
    // A schema the daemon does not speak is a clean miss, not an error:
    // mixed-version fleets degrade to local planning.
    if (line.cache_schema != store::kSchemaVersion) {
      return "{" + id_field + "\"hit\":false}\n";
    }
    const auto raw = store::base64_decode(line.cache_payload);
    std::optional<runtime::PlanKey> key;
    if (raw.has_value()) key = store::parse_plan_key(*raw);
    if (!key.has_value()) {
      request_errors_.fetch_add(1);
      return "{" + id_field + "\"error\":\"bad_cache_key\"}\n";
    }
    // Resolve against the local memory and file tiers only — never this
    // daemon's own peer, so lookups cannot cascade around a fleet.
    std::shared_ptr<const runtime::Plan> plan = cache_.find(*key);
    if (plan == nullptr && disk_) {
      store::GetResult got = disk_->get(*key);
      if (got.status == store::StoreStatus::Hit) plan = std::move(got.plan);
    }
    if (plan == nullptr) return "{" + id_field + "\"hit\":false}\n";
    cache_get_hits_.fetch_add(1);
    std::string out = "{" + id_field + "\"hit\":true,\"schema\":" +
                      std::to_string(store::kSchemaVersion) + ",\"record\":\"";
    out += store::base64_encode(store::serialize_plan_record(*key, *plan));
    out += "\"}\n";
    return out;
  }
  cache_puts_.fetch_add(1);
  if (line.cache_schema != store::kSchemaVersion) {
    return "{" + id_field + "\"ok\":false}\n";
  }
  const auto raw = store::base64_decode(line.cache_payload);
  runtime::PlanKey key;
  runtime::Plan plan;
  if (!raw.has_value() || !store::parse_plan_record(*raw, &key, &plan)) {
    request_errors_.fetch_add(1);
    return "{" + id_field + "\"error\":\"bad_cache_record\"}\n";
  }
  if (!store::record_algorithm_resolves(key, plan)) {
    // Decodes fine but names an algorithm this build does not have: accept
    // nothing we could never serve.
    return "{" + id_field + "\"ok\":false}\n";
  }
  if (!runtime::servable(plan, key.machine)) {
    // A well-formed record carrying an unservable schedule (fails the
    // structural validator, or routes across a link its own machine key
    // reports failed): refuse at the door instead of poisoning the tiers.
    invalid_plans_.fetch_add(1);
    return "{" + id_field + "\"ok\":false}\n";
  }
  auto shared = std::make_shared<const runtime::Plan>(std::move(plan));
  std::shared_ptr<const runtime::Plan> winner = cache_.insert(key, shared);
  if (winner.get() == shared.get() && disk_) disk_->put(key, winner);
  return "{" + id_field + "\"ok\":true}\n";
}

namespace {

/// One tier's entry in the stats verb's "store" ledger array.
std::string ledger_json(const char* kind, const store::StoreLedger& l) {
  std::string out = "{\"kind\":\"";
  out += kind;
  out += "\"";
  out += ",\"gets\":" + std::to_string(l.gets);
  out += ",\"hits\":" + std::to_string(l.hits);
  out += ",\"misses\":" + std::to_string(l.misses);
  out += ",\"errors\":" + std::to_string(l.errors);
  out += ",\"timeouts\":" + std::to_string(l.timeouts);
  out += ",\"puts\":" + std::to_string(l.puts);
  out += ",\"put_errors\":" + std::to_string(l.put_errors);
  out += ",\"retries\":" + std::to_string(l.retries);
  out += ",\"breaker_trips\":" + std::to_string(l.breaker_trips);
  out += ",\"breaker_fastfails\":" + std::to_string(l.breaker_fastfails);
  out += ",\"hot_tracked\":" + std::to_string(l.hot_tracked);
  if (!l.breaker_state.empty()) {
    out += ",\"breaker_state\":\"" + l.breaker_state + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string Core::stats_json() {
  std::string out = "{\"stats\":{";
  out += "\"requests\":" + std::to_string(requests_.load());
  out += ",\"request_errors\":" + std::to_string(request_errors_.load());
  out += ",\"memory_hits\":" + std::to_string(cache_.hits());
  out += ",\"disk_hits\":" + std::to_string(cache_.disk_hits());
  out += ",\"peer_hits\":" + std::to_string(cache_.peer_hits());
  out += ",\"planned\":" + std::to_string(cache_.misses());
  out += ",\"evictions\":" + std::to_string(cache_.evictions());
  out += ",\"memory_entries\":" + std::to_string(cache_.size());
  out += ",\"memory_max_entries\":" + std::to_string(cache_.max_entries());

  // The robustness section: connection lifecycle, shedding, eviction, and
  // the service-latency percentiles the load harness cross-checks.
  const Metrics& m = metrics_;
  const double uptime_s =
      static_cast<double>(now_us() - m.start_us) / 1e6;
  const u64 responses = m.responses.load();
  char buf[64];
  out += ",\"serving\":{";
  out += "\"open_conns\":" + std::to_string(m.open_conns.load());
  out += ",\"accepted\":" + std::to_string(m.accepted.load());
  out += ",\"shed_conns\":" + std::to_string(m.shed_conns.load());
  out += ",\"shed_requests\":" + std::to_string(m.shed_requests.load());
  out += ",\"too_large\":" + std::to_string(m.too_large.load());
  out += ",\"evicted_idle\":" + std::to_string(m.evicted_idle.load());
  out += ",\"evicted_timeout\":" + std::to_string(m.evicted_timeout.load());
  out += ",\"evicted_slow_reader\":" + std::to_string(m.evicted_slow.load());
  out += ",\"accept_retries\":" + std::to_string(m.accept_retries.load());
  out += ",\"inflight\":" + std::to_string(m.inflight.load());
  out += ",\"responses\":" + std::to_string(responses);
  std::snprintf(buf, sizeof buf, "%.3f", uptime_s);
  out += ",\"uptime_s\":";
  out += buf;
  std::snprintf(buf, sizeof buf, "%.1f",
                uptime_s > 0 ? static_cast<double>(responses) / uptime_s : 0.0);
  out += ",\"throughput_rps\":";
  out += buf;
  out += ",\"latency_us\":{\"count\":" + std::to_string(m.latency.count());
  out += ",\"p50\":" + std::to_string(m.latency.percentile(0.50));
  out += ",\"p90\":" + std::to_string(m.latency.percentile(0.90));
  out += ",\"p99\":" + std::to_string(m.latency.percentile(0.99));
  out += ",\"max\":" + std::to_string(m.latency.max_us());
  out += "}}";

  // One snapshot of the disk tier's ledger feeds both the "disk" section
  // and the tier's entry below, so their hits/misses always agree.
  const store::StoreLedger s = disk_ ? disk_->stats() : store::StoreLedger{};
  if (disk_) {
    out += ",\"disk\":{\"dir\":\"" + json::escape(disk_->dir()) + "\"";
    out += ",\"entries\":" + std::to_string(s.entries);
    out += ",\"loaded\":" + std::to_string(s.loaded);
    out += ",\"load_errors\":" + std::to_string(s.load_errors);
    out += ",\"hits\":" + std::to_string(s.hits);
    out += ",\"misses\":" + std::to_string(s.misses);
    out += ",\"appended\":" + std::to_string(s.appended);
    out += ",\"compactions\":" + std::to_string(s.compactions);
    std::snprintf(buf, sizeof buf, "%.6f", s.load_seconds);
    out += ",\"load_seconds\":";
    out += buf;
    out += ",\"file_bytes\":" + std::to_string(s.file_bytes) + "}";
  }

  // The tier-chain section: peering counters and one ledger per backend.
  out += ",\"store\":{";
  out += std::string("\"serve_cache\":") + (serve_cache_ ? "true" : "false");
  out += ",\"prefetched\":" + std::to_string(prefetched_);
  out += ",\"cache_gets\":" + std::to_string(cache_gets_.load());
  out += ",\"cache_get_hits\":" + std::to_string(cache_get_hits_.load());
  out += ",\"cache_puts\":" + std::to_string(cache_puts_.load());
  out += ",\"invalid_plans\":" +
         std::to_string(cache_.invalid_plans() + invalid_plans_.load());
  out += ",\"tiers\":[";
  if (disk_) out += ledger_json(disk_->kind(), s);
  if (peer_) {
    if (disk_) out += ",";
    out += ledger_json(peer_->kind(), peer_->stats());
  }
  out += "]}";
  out += "}}";
  return out;
}

}  // namespace wsr::serving
