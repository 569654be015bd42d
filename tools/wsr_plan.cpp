// wsr_plan: command-line front end to the planner.
//
//   wsr_plan <collective> <grid> <bytes> [--algo=NAME] [--simulate]
//            [--json] [--dump] [--tr=N] [--cache-dir=DIR]
//            [--failed-link=X,Y,DIR]... [--slow-link=X,Y,DIR,FACTOR]...
//   wsr_plan --list-algorithms [--json]
//
//   collective: reduce | allreduce | broadcast | allgather | reducescatter
//   grid:       P (a 1D row) or WxH (a 2D grid); each extent at most 1024
//   bytes:      per-PE vector size in bytes (4 bytes per f32 wavelet)
//   --tr=N:     ramp latency T_R, an integer in 0..1024 (default 2)
//
// Algorithm names come from the registry (see --list-algorithms); short
// forms are accepted where unambiguous ("Chain" resolves to "Chain+Bcast"
// for an AllReduce and to "X-Y Chain" on a 2D grid).
//
// --cache-dir=DIR serves through the same persistent plan store the wsrd
// daemon uses (docs/serving.md): a shape this directory has seen before —
// from any process — is answered from disk instead of planned.
//
// --failed-link / --slow-link describe the machine, not the request: each
// names a directed link leaving PE (X,Y) towards DIR (E/W/N/S) that is
// failed resp. throttled to one wavelet per FACTOR cycles. The model prices
// the degradation (a failed link in the grid makes every plan unroutable),
// --simulate runs the fabric with it, and distinct override sets are
// distinct plan-cache keys.
//
// Examples:
//   wsr_plan reduce 512 1024                # model-selected 1D reduce
//   wsr_plan allreduce 64x64 4096 --simulate
//   wsr_plan reduce 512 64 --algo=TwoPhase --dump
//   wsr_plan allgather 16 4096 --simulate
//   wsr_plan reducescatter 8 4096 --algo=Halving
//   wsr_plan reduce 16 256 --algo=AutoGen --json > plan.json
//   wsr_plan reduce 8 1024 --slow-link=3,0,E,4 --simulate
//   wsr_plan reduce 128 4096 --cache-dir=/var/tmp/wsr-plans
//   wsr_plan --list-algorithms --json
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/link_override.hpp"
#include "flowsim/flowsim.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/persistent_plan_cache.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_json.hpp"
#include "runtime/planner.hpp"
#include "runtime/verify.hpp"
#include "wse/checks.hpp"
#include "wse/export.hpp"

namespace {

using namespace wsr;

int usage() {
  std::fprintf(
      stderr,
      "usage: wsr_plan "
      "<reduce|allreduce|broadcast|allgather|reducescatter> <P|WxH> <bytes>\n"
      "                [--algo=NAME] [--simulate] [--json] [--dump]\n"
      "                [--tr=N] [--cache-dir=DIR]\n"
      "                [--failed-link=X,Y,DIR]... "
      "[--slow-link=X,Y,DIR,FACTOR]...\n"
      "       wsr_plan --list-algorithms [--json]\n"
      "NAME is a registry algorithm name (see --list-algorithms).\n"
      "DIR is a persistent plan store shared with wsrd (docs/serving.md).\n"
      "--failed-link/--slow-link mark the directed link leaving PE (X,Y)\n"
      "towards E/W/N/S as failed resp. throttled to 1 wavelet per FACTOR\n"
      "cycles (FACTOR >= 2); repeat per degraded link.\n");
  return 2;
}

int list_algorithms(bool json) {
  const auto all = registry::AlgorithmRegistry::instance().all();
  if (json) {
    std::printf("[");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& d = *all[i];
      std::printf(
          "%s\n  {\"name\":\"%s\",\"collective\":\"%s\",\"dims\":\"%s\","
          "\"color_budget\":%u,\"auto_selectable\":%s,\"model_generated\":%s}",
          i == 0 ? "" : ",", d.name.c_str(), registry::name(d.collective),
          registry::name(d.dims), d.color_budget,
          d.auto_selectable ? "true" : "false",
          d.model_generated ? "true" : "false");
    }
    std::printf("\n]\n");
    return 0;
  }
  std::printf("%-16s %-10s %-4s %-7s %-11s %s\n", "name", "collective", "dims",
              "colors", "selectable", "generated");
  for (const auto* d : all) {
    std::printf("%-16s %-10s %-4s %-7u %-11s %s\n", d->name.c_str(),
                registry::name(d->collective), registry::name(d->dims),
                d->color_budget, d->auto_selectable ? "yes" : "no",
                d->model_generated ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--list-algorithms") == 0) {
    const bool json = argc >= 3 && std::strcmp(argv[2], "--json") == 0;
    return list_algorithms(json);
  }
  if (argc < 4) return usage();
  const std::string collective_arg = argv[1];
  const std::string grid_arg = argv[2];
  const auto words = runtime::parse_bytes(argv[3]);
  if (!words.has_value()) {
    std::fprintf(stderr, "bytes must be a positive multiple of 4\n");
    return 2;
  }
  const u32 vec_len = *words;
  const u64 bytes = u64{vec_len} * 4;

  std::string algo, cache_dir;
  bool simulate = false, json = false, dump = false;
  MachineParams mp;
  for (int i = 4; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--algo=", 0) == 0) {
      algo = a.substr(7);
      if (algo.empty()) return usage();
    } else if (a == "--simulate") {
      simulate = true;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--dump") {
      dump = true;
    } else if (a.rfind("--tr=", 0) == 0) {
      const auto tr = runtime::parse_ramp_latency(a.substr(5));
      if (!tr.has_value()) {
        std::fprintf(stderr, "--tr wants an integer ramp latency in 0..%u\n",
                     runtime::kMaxRampLatency);
        return 2;
      }
      mp.ramp_latency = *tr;
    } else if (a.rfind("--failed-link=", 0) == 0 ||
               a.rfind("--slow-link=", 0) == 0) {
      const bool failed = a[2] == 'f';
      const auto o = parse_link_override(a.substr(a.find('=') + 1));
      if (!o.has_value() || o->failed() != failed) {
        std::fprintf(stderr,
                     failed ? "--failed-link wants X,Y,DIR (no factor)\n"
                            : "--slow-link wants X,Y,DIR,FACTOR with "
                              "FACTOR >= 2\n");
        return 2;
      }
      mp.link_overrides.push_back(*o);
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      cache_dir = a.substr(12);
      if (cache_dir.empty()) return usage();
    } else {
      return usage();
    }
  }

  const auto parsed_grid = runtime::parse_grid(grid_arg);
  if (!parsed_grid.has_value()) {
    std::fprintf(stderr, "grid must be P or WxH\n");
    return 2;
  }
  const GridShape grid = *parsed_grid;
  if (const std::string why = runtime::grid_error(grid); !why.empty()) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }

  runtime::PlanRequest request;
  request.grid = grid;
  request.vec_len = vec_len;
  if (collective_arg == "reduce") {
    request.collective = runtime::Collective::Reduce;
  } else if (collective_arg == "allreduce") {
    request.collective = runtime::Collective::AllReduce;
  } else if (collective_arg == "broadcast") {
    request.collective = runtime::Collective::Broadcast;
  } else if (collective_arg == "allgather") {
    request.collective = runtime::Collective::AllGather;
  } else if (collective_arg == "reducescatter" ||
             collective_arg == "reduce-scatter") {
    request.collective = runtime::Collective::ReduceScatter;
  } else {
    return usage();
  }
  if (!algo.empty()) {
    request.algorithm = runtime::resolve_algorithm_name(
        request.collective, registry::dims_for(grid), algo);
    if (request.algorithm.empty()) {
      std::fprintf(stderr,
                   "unknown algorithm '%s' for this collective/grid; see "
                   "--list-algorithms\n",
                   algo.c_str());
      return 2;
    }
    const registry::AlgorithmDescriptor* desc =
        registry::AlgorithmRegistry::instance().find(
            request.collective, registry::dims_for(grid), request.algorithm);
    if (!desc->applicable(grid, vec_len)) {
      std::fprintf(stderr,
                   "algorithm '%s' is not applicable to %ux%u PEs with %llu "
                   "bytes/PE (e.g. Ring needs bytes divisible by 4*P)\n",
                   request.algorithm.c_str(), grid.width, grid.height,
                   static_cast<unsigned long long>(bytes));
      return 2;
    }
  } else if (!runtime::any_applicable_algorithm(request.collective, grid,
                                                vec_len)) {
    // e.g. a 1xH column grid: dims-wise 2D, but no 2D algorithm builds on
    // width 1. The planner asserts on empty selection; fail cleanly here.
    std::fprintf(stderr,
                 "no applicable algorithm for %s on %ux%u PEs with %llu "
                 "bytes/PE\n",
                 collective_arg.c_str(), grid.width, grid.height,
                 static_cast<unsigned long long>(bytes));
    return 2;
  }

  // Plan through the serving-path cache (get_or_plan) so --json can report
  // the same hit/miss/eviction counters a long-lived server would expose; a
  // one-shot CLI run records exactly one miss — unless --cache-dir attaches
  // the persistent store, in which case a shape this directory has seen
  // before (from any process) is a disk hit instead of a plan.
  const runtime::Planner planner(std::max(grid.width, grid.height), mp);
  runtime::PlanCache cache;
  std::unique_ptr<runtime::PersistentPlanCache> disk;
  if (!cache_dir.empty()) {
    disk = std::make_unique<runtime::PersistentPlanCache>(cache_dir);
    cache.attach_disk_store(disk.get());
  }
  runtime::PlanSource tier = runtime::PlanSource::Planned;
  const std::shared_ptr<const runtime::Plan> plan_ptr =
      cache.get_or_plan(planner, request, &tier);
  const runtime::Plan& plan = *plan_ptr;

  if (json) {
    // Registry-introspected plan JSON (runtime/plan_json.cpp, the exact
    // object wsrd serves): selection metadata, serving counters, model
    // terms, and the schedule.
    std::string extras;
    if (disk != nullptr) {
      extras += std::string("\"cache_tier\":\"") + runtime::name(tier) + "\",";
    }
    extras += runtime::plan_cache_counters_json(cache);
    std::printf("%s\n",
                runtime::plan_response_json(request, plan, mp, extras).c_str());
    return 0;
  }
  std::fprintf(stderr, "collective : %s on %ux%u PEs, %llu bytes/PE\n",
               collective_arg.c_str(), grid.width, grid.height,
               static_cast<unsigned long long>(bytes));
  std::fprintf(stderr, "algorithm  : %s\n", plan.algorithm.c_str());
  if (disk != nullptr) {
    std::fprintf(stderr, "cache tier : %s (%s: %llu plans)\n",
                 runtime::name(tier), disk->store_path().c_str(),
                 static_cast<unsigned long long>(disk->stats().entries));
  }
  std::fprintf(stderr, "predicted  : %lld cycles (%.3f us at %.0f MHz)\n",
               static_cast<long long>(plan.prediction.cycles),
               mp.cycles_to_us(plan.prediction.cycles), mp.clock_mhz);
  std::fprintf(stderr, "model terms: %s\n",
               to_string(plan.prediction.terms).c_str());
  if (request.collective == runtime::Collective::Reduce && grid.is_row()) {
    std::fprintf(stderr, "lower bound: %.0f cycles\n",
                 planner.reduce_1d_lower_bound(grid.width, vec_len));
  }
  if (dump) std::printf("%s", plan.schedule.dump().c_str());
  if (simulate) {
    // Both simulators run the planned machine's ramp latency and link
    // overrides; a schedule that routes across a *failed* link cannot run
    // at all.
    if (wse::schedule_crosses_failed_link(plan.schedule, mp.link_overrides)) {
      std::fprintf(stderr,
                   "fabric sim : schedule routes across a failed link; "
                   "nothing to simulate\n");
      return 1;
    }
    if (grid.num_pes() <= 4096 && plan.prediction.cycles <= 200000) {
      wse::FabricOptions fo;
      fo.ramp_latency = mp.ramp_latency;
      fo.link_overrides = mp.link_overrides;
      const auto r = runtime::verify_collective(
          plan.schedule, runtime::semantic_for(request.collective), fo);
      std::fprintf(stderr, "fabric sim : %lld cycles, results %s\n",
                   static_cast<long long>(r.cycles),
                   r.ok ? "verified" : "WRONG");
      if (!r.ok) {
        std::fprintf(stderr, "  %s\n", r.error.c_str());
        return 1;
      }
    } else {
      flowsim::FlowOptions fo;
      fo.ramp_latency = mp.ramp_latency;
      fo.link_overrides = mp.link_overrides;
      const auto r = flowsim::run_flow(plan.schedule, fo);
      std::fprintf(stderr, "flow sim   : %lld cycles (grid too large for "
                   "cycle-level simulation)\n",
                   static_cast<long long>(r.cycles));
    }
  }
  return 0;
}
