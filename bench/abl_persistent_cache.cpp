// Ablation A7 (extension): warm-start serving from the persistent plan
// store vs cold planning.
//
// The disk tier's reason to exist is restart amortization: a serving
// process (wsrd, or a fleet of wsr_plan one-shots) should pay full
// planning cost for a shape once *ever per cache directory*, not once per
// process. This bench measures exactly that:
//
//   cold    - every request planned from scratch (and appended to a fresh
//             store, i.e. the daemon's first boot);
//   restart - new cache objects on the same directory (the daemon's second
//             boot): every request must come back as a disk hit, with
//             bit-identical response JSON (the acceptance criterion the CI
//             smoke test also checks end-to-end through the binaries);
//   memory  - steady-state hits for scale.
//
// Two acceptance bars, because the warm path has a fixed and a marginal
// cost: the restart *boot* (one store load + first serve of the whole mix)
// must beat the cold boot >= 2x, and the marginal disk-hit serve — what
// every request after boot costs, a hash lookup against full model
// evaluation + schedule compilation + validation — must win >= 10x. The
// load is a one-time cost a daemon amortizes over its lifetime, so it is
// reported separately rather than smeared into the per-request number.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "harness.hpp"
#include "runtime/persistent_plan_cache.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_json.hpp"

using namespace wsr;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "abl_persistent_cache");
  const runtime::Planner planner(128);
  planner.autogen_model();  // steady state: exclude the one-time DP fill

  // The abl_plan_cache serving mix: repeated 1D/2D shapes.
  std::vector<runtime::PlanRequest> requests;
  for (u32 p : {16u, 32u, 64u, 128u}) {
    for (u32 b : {16u, 256u, 1024u, 4096u}) {
      requests.push_back({runtime::Collective::Reduce, {p, 1}, b, ""});
      requests.push_back({runtime::Collective::AllReduce, {p, 1}, b, ""});
      requests.push_back({runtime::Collective::AllReduce, {p / 2, p / 2}, b, ""});
      requests.push_back({runtime::Collective::Broadcast, {p, 1}, b, ""});
    }
  }

  std::string dir_template =
      (std::filesystem::temp_directory_path() / "wsr_abl_pcache_XXXXXX")
          .string();
  if (::mkdtemp(dir_template.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string dir = dir_template;

  // --- cold boot: plan + append everything -----------------------------------
  // (Response JSON for the bit-identical check is rendered outside the
  // timed regions — both boots would pay it equally, and it would only
  // dilute the planning-vs-loading comparison this bench is about.)
  std::vector<std::shared_ptr<const runtime::Plan>> cold_plans(requests.size());
  const auto cold_start = Clock::now();
  {
    runtime::PersistentPlanCache disk(dir);
    runtime::PlanCache memory;
    memory.attach_disk_store(&disk);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      cold_plans[i] = memory.get_or_plan(planner, requests[i]);
    }
  }
  const double cold_s = seconds_since(cold_start);

  // --- restart: fresh cache objects, same directory --------------------------
  std::vector<std::shared_ptr<const runtime::Plan>> warm_plans(requests.size());
  u64 disk_hits = 0;
  const auto warm_start = Clock::now();
  runtime::PersistentPlanCache disk(dir);
  runtime::PlanCache memory;
  memory.attach_disk_store(&disk);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    runtime::PlanSource source = runtime::PlanSource::Planned;
    warm_plans[i] = memory.get_or_plan(planner, requests[i], &source);
    disk_hits += source == runtime::PlanSource::DiskHit;
  }
  const double warm_s = seconds_since(warm_start);

  u64 identical = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    identical += runtime::plan_response_json(requests[i], *cold_plans[i],
                                             planner.machine()) ==
                 runtime::plan_response_json(requests[i], *warm_plans[i],
                                             planner.machine());
  }

  // --- steady state: memory hits ---------------------------------------------
  constexpr u32 kHitRounds = 50;
  const auto hit_start = Clock::now();
  i64 sink = 0;
  for (u32 r = 0; r < kHitRounds; ++r) {
    for (const auto& req : requests) {
      sink += memory.get_or_plan(planner, req)->prediction.cycles;
    }
  }
  const double hit_s = seconds_since(hit_start);

  const auto stats = disk.stats();
  const double boot_speedup = cold_s / warm_s;
  const double cold_per_request = cold_s / static_cast<double>(requests.size());
  const double disk_hit_per_request =
      (warm_s - stats.load_seconds) / static_cast<double>(requests.size());
  const double serve_speedup = cold_per_request / disk_hit_per_request;
  std::printf("=== Ablation: persistent plan cache warm start ===\n");
  std::printf("store                  : %s (%llu bytes, %llu plans)\n",
              disk.store_path().c_str(),
              static_cast<unsigned long long>(stats.file_bytes),
              static_cast<unsigned long long>(stats.entries));
  std::printf("cold boot (plan+append): %9.1f ms  (%zu requests, %.0f us "
              "per plan)\n",
              cold_s * 1e3, requests.size(), cold_per_request * 1e6);
  std::printf("restart (load+serve)   : %9.1f ms  (one-time load %.1f ms, "
              "%llu/%zu disk hits)\n",
              warm_s * 1e3, stats.load_seconds * 1e3,
              static_cast<unsigned long long>(disk_hits), requests.size());
  std::printf("disk-hit serve         : %9.1f us/request after boot\n",
              disk_hit_per_request * 1e6);
  std::printf("steady state           : %9.1f ns/request (memory hits)\n",
              hit_s * 1e9 / (kHitRounds * requests.size()));
  std::printf("bit-identical responses: %llu/%zu\n",
              static_cast<unsigned long long>(identical), requests.size());
  std::printf("boot speedup           : %9.1fx  (acceptance bar: >= 2x)\n",
              boot_speedup);
  std::printf("disk-hit serve speedup : %9.1fx  (acceptance bar: >= 10x)\n",
              serve_speedup);
  std::printf("checksum               : %lld\n", static_cast<long long>(sink));

  std::filesystem::remove_all(dir);

  bench.metric("persistent-cache warm boot over cold boot (acceptance bar 2x)",
               boot_speedup);
  bench.metric("disk-hit serve over cold planning (acceptance bar 10x)",
               serve_speedup);
  bool ok = true;
  if (disk_hits != requests.size()) {
    std::printf("FAILED: every restart request must be a disk hit\n");
    ok = false;
  }
  if (identical != requests.size()) {
    std::printf("FAILED: restart responses must be bit-identical to cold\n");
    ok = false;
  }
  if (boot_speedup < 2.0) {
    std::printf("FAILED: warm boot must be >= 2x faster than cold boot\n");
    ok = false;
  }
  if (serve_speedup < 10.0) {
    std::printf("FAILED: disk-hit serve must be >= 10x faster than cold "
                "planning\n");
    ok = false;
  }
  if (ok) std::printf("OK\n");
  const int rc = bench.finish();
  return ok ? rc : 1;
}
