// Google-benchmark microbenchmarks of the library machinery itself: the
// Auto-Gen DP table fill (the paper's O(P^4)-with-pruning claim), the
// lower-bound DP (O(P^3)), schedule compilation, the plan JSON writers, and
// the throughput of both simulators — including the FullScan-vs-Simd
// FabricSim cells and an allocation-counting harness over the simulator hot
// loops.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "autogen/dp.hpp"
#include "autogen/lower_bound.hpp"
#include "collectives/collectives.hpp"
#include "flowsim/flowsim.hpp"
#include "harness.hpp"
#include "runtime/plan_json.hpp"
#include "runtime/planner.hpp"
#include "runtime/verify.hpp"
#include "wse/export.hpp"
#include "wse/fabric.hpp"

using namespace wsr;

// --- allocation-counting harness ---------------------------------------------
// Global operator new/delete overrides counting every heap allocation in the
// process. The simulator benches snapshot the counter around run() so the
// reported counters separate one-time construction cost from the per-step
// hot loops (which are required to allocate nothing beyond amortized vector
// growth — see DESIGN.md §3).
namespace {
std::atomic<unsigned long long> g_allocs{0};
std::atomic<unsigned long long> g_alloc_bytes{0};

unsigned long long alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}
unsigned long long alloc_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}
}  // namespace

// GCC pairs new-expressions against the replaced global delete below and
// flags the malloc/free crossing; the pairing is in fact consistent (both
// sides are replaced here).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

static void BM_AutoGenTableFill(benchmark::State& state) {
  const u32 p = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    autogen::EnergyTable table(p);
    benchmark::DoNotOptimize(table.energy(p, 1, p - 1));
  }
  state.SetLabel("pruned DP table, all P' <= P");
}
BENCHMARK(BM_AutoGenTableFill)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

static void BM_LowerBoundTableFill(benchmark::State& state) {
  const u32 p = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    autogen::LowerBound lb(p);
    benchmark::DoNotOptimize(lb.energy(p, 1));
  }
}
BENCHMARK(BM_LowerBoundTableFill)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

static void BM_AutoGenTreeReconstruction(benchmark::State& state) {
  static const autogen::AutoGenModel model(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.build_tree(512, static_cast<u32>(state.range(0))));
  }
}
BENCHMARK(BM_AutoGenTreeReconstruction)->Arg(1)->Arg(256)->Arg(8192);

static void BM_ScheduleCompile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        collectives::make_reduce_1d(ReduceAlgo::TwoPhase, 512, 256));
  }
}
BENCHMARK(BM_ScheduleCompile);

// The plan JSON writers, in bytes written per second: a wafer-scale
// schedule (512x512 Snake+Bcast, about 100 MB of JSON), the 128x128 X-Y
// AllReduce the planner selects at 16 KiB per PE (about 12 MB), and the
// full plan response around that schedule.
static void BM_ScheduleToJsonCell(benchmark::State& state,
                                  const wse::Schedule& s) {
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = wse::to_json(s);
    bytes = json.size();
    benchmark::DoNotOptimize(json.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * bytes));
}

static void BM_ScheduleToJsonSnakeBcast(benchmark::State& state) {
  BM_ScheduleToJsonCell(
      state, collectives::make_allreduce_2d_snake_bcast({512, 512}, 64));
}
BENCHMARK(BM_ScheduleToJsonSnakeBcast)->Unit(benchmark::kMillisecond);

const runtime::PlanRequest kXyAllReduce{runtime::Collective::AllReduce,
                                        {128, 128}, 4096, ""};

static void BM_ScheduleToJsonXyAllReduce(benchmark::State& state) {
  const runtime::Planner planner(128);
  BM_ScheduleToJsonCell(state, planner.plan(kXyAllReduce).schedule);
}
BENCHMARK(BM_ScheduleToJsonXyAllReduce)->Unit(benchmark::kMillisecond);

static void BM_PlanResponseJson(benchmark::State& state) {
  const runtime::Planner planner(128);
  const runtime::Plan plan = planner.plan(kXyAllReduce);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string json = runtime::plan_response_json(
        kXyAllReduce, plan, planner.machine(), "\"id\":1,");
    bytes = json.size();
    benchmark::DoNotOptimize(json.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * bytes));
  state.SetLabel(plan.algorithm);
}
BENCHMARK(BM_PlanResponseJson)->Unit(benchmark::kMillisecond);

static void BM_FabricSimChain(benchmark::State& state) {
  const u32 p = static_cast<u32>(state.range(0));
  const wse::Schedule s = collectives::make_reduce_1d(ReduceAlgo::Chain, p, 256);
  const auto inputs = wse::make_inputs(s, runtime::canonical_input);
  i64 hops = 0;
  for (auto _ : state) {
    const auto r = wse::run_fabric(s, inputs);
    hops = r.wavelet_hops;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["wavelet_hops"] = static_cast<double>(hops);
}
BENCHMARK(BM_FabricSimChain)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The two stepping modes on the same schedules (results are bit-identical;
// tests/test_fabric_parity.cpp pins that). Arg pair: (PEs, vec_len). Small B
// is latency-bound — most PEs idle most cycles — which is where Simd's
// active sets win an order of magnitude over the full-scan reference. Runs
// additionally report run-phase heap allocations per simulated cycle: the
// hot loops are required to stay allocation-free in steady state (amortized
// vector growth only), and this counter is how a regression shows up.
static void BM_FabricSteppingCell(benchmark::State& state,
                                  wse::SteppingMode mode,
                                  const wse::Schedule& s) {
  const auto inputs = wse::make_inputs(s, runtime::canonical_input);
  wse::FabricOptions opt;
  opt.stepping = mode;
  i64 cycles = 1;
  unsigned long long run_allocs = 0;
  for (auto _ : state) {
    wse::FabricSim sim(s, opt);
    for (u32 pe = 0; pe < inputs.size(); ++pe) {
      sim.set_memory(pe, inputs[pe]);
    }
    const unsigned long long before = alloc_count();
    const auto r = sim.run();
    run_allocs = alloc_count() - before;
    cycles = r.cycles;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  state.counters["run_allocs"] = static_cast<double>(run_allocs);
  state.counters["allocs_per_kcycle"] =
      1000.0 * static_cast<double>(run_allocs) / static_cast<double>(cycles);
}

static void BM_FabricSimStepping(benchmark::State& state,
                                 wse::SteppingMode mode, ReduceAlgo algo) {
  const u32 p = static_cast<u32>(state.range(0));
  const u32 b = static_cast<u32>(state.range(1));
  BM_FabricSteppingCell(state, mode,
                        collectives::make_reduce_1d(algo, p, b));
}
static void BM_FabricReferenceChain(benchmark::State& state) {
  BM_FabricSimStepping(state, wse::SteppingMode::FullScan, ReduceAlgo::Chain);
}
static void BM_FabricReferenceTree(benchmark::State& state) {
  BM_FabricSimStepping(state, wse::SteppingMode::FullScan, ReduceAlgo::Tree);
}
// The latency-bound chain/tree cells guard against plane-walk overhead
// regressing the sparse regime; the contention cells below are where the
// 64-registers-per-word sweep must win. The planes themselves are
// constructor-allocated; allocs_per_kcycle holds the hot loop to amortized
// vector growth only.
static void BM_FabricSimdChain(benchmark::State& state) {
  BM_FabricSimStepping(state, wse::SteppingMode::Simd, ReduceAlgo::Chain);
}
static void BM_FabricSimdTree(benchmark::State& state) {
  BM_FabricSimStepping(state, wse::SteppingMode::Simd, ReduceAlgo::Tree);
}
BENCHMARK(BM_FabricReferenceChain)
    ->Args({512, 1})->Args({512, 64})->Args({512, 256})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricReferenceTree)
    ->Args({512, 1})->Args({512, 64})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricSimdChain)
    ->Args({512, 1})->Args({512, 64})->Args({512, 256})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FabricSimdTree)
    ->Args({512, 1})->Args({512, 64})->Unit(benchmark::kMillisecond);

// Contention-bound cells: a 512-PE Star is a deep incast whose occupied
// registers are mostly *stalled* (waiting for a downstream PE to finish its
// own send phase), which Simd parks until the blocking resource changes.
static void BM_FabricSimdStar(benchmark::State& state) {
  const u32 p = static_cast<u32>(state.range(0));
  const u32 b = static_cast<u32>(state.range(1));
  BM_FabricSteppingCell(state, wse::SteppingMode::Simd,
                        collectives::make_reduce_1d(ReduceAlgo::Star, p, b));
}
BENCHMARK(BM_FabricSimdStar)
    ->Args({512, 64})->Args({512, 256})->Unit(benchmark::kMillisecond);

// A 512-PE Star incast whose root is still streaming a previous result out
// (bench::make_busy_root_star — the back-to-back shape of pipelined
// collectives on a serving system, plan N's broadcast egress overlapping
// plan N+1's inbound reduce). While the root's egress runs, all 511 senders
// are backed up into ~1000 occupied-but-immovable registers, which Simd
// parks, touching only the 3-register outbound stream. Parity on exactly
// this shape is pinned by tests/test_fabric_parity.cpp (BusyRootIncast).
static void BM_FabricSimdBusyRootStar(benchmark::State& state) {
  const u32 p = static_cast<u32>(state.range(0));
  const u32 b = static_cast<u32>(state.range(1));
  const u32 busy_sends = static_cast<u32>(state.range(2));
  const wse::Schedule s = bench::make_busy_root_star(p, b, busy_sends);
  const auto inputs = bench::busy_root_star_inputs(s, b, busy_sends);
  i64 cycles = 1;
  for (auto _ : state) {
    const auto r = wse::run_fabric(s, inputs);
    cycles = r.cycles;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_FabricSimdBusyRootStar)
    ->Args({512, 16, 2048})->Unit(benchmark::kMillisecond);

// Dense 2D phase at 512 PEs: every row runs a Star incast concurrently, then
// the column does — the per-cycle stalled-register population is ~the whole
// grid during the row phase.
static void BM_FabricSimd2DStar(benchmark::State& state) {
  const u32 b = static_cast<u32>(state.range(0));
  BM_FabricSteppingCell(
      state, wse::SteppingMode::Simd,
      collectives::make_reduce_2d_xy(ReduceAlgo::Star, {32, 16}, b));
}
BENCHMARK(BM_FabricSimd2DStar)
    ->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

static void BM_FlowSimChain(benchmark::State& state) {
  const u32 p = static_cast<u32>(state.range(0));
  const wse::Schedule s = collectives::make_reduce_1d(ReduceAlgo::Chain, p, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowsim::run_flow(s).cycles);
  }
}
BENCHMARK(BM_FlowSimChain)->Arg(64)->Arg(256)->Arg(512);

// One wafer-scale run_flow call per iteration, engine construction
// included. `allocs` and `alloc_mb` (MiB, bytes / 2^20) count the heap
// allocations of the last call: the engine's lane, op and segment storage
// is what sets a wafer sweep's resident memory, one engine per worker.
static void BM_FlowSimWaferScaleCell(benchmark::State& state,
                                     const wse::Schedule& s) {
  unsigned long long run_allocs = 0;
  unsigned long long run_bytes = 0;
  for (auto _ : state) {
    const unsigned long long allocs_before = alloc_count();
    const unsigned long long bytes_before = alloc_bytes();
    benchmark::DoNotOptimize(flowsim::run_flow(s).cycles);
    run_allocs = alloc_count() - allocs_before;
    run_bytes = alloc_bytes() - bytes_before;
  }
  state.counters["allocs"] = static_cast<double>(run_allocs);
  state.counters["alloc_mb"] =
      static_cast<double>(run_bytes) / (1024.0 * 1024.0);
  state.SetLabel("262,144 PEs");
}

static void BM_FlowSimWaferScaleSnake(benchmark::State& state) {
  BM_FlowSimWaferScaleCell(state,
                           collectives::make_reduce_2d_snake({512, 512}, 64));
}
BENCHMARK(BM_FlowSimWaferScaleSnake)->Unit(benchmark::kMillisecond);

// The fig13b hot cell: snake reduce + full-grid broadcast at wafer scale.
// Dominated by segment propagation through 262,144 routers; the lazy
// vector-FIFO rewrite of FlowSim cut it ~10x.
static void BM_FlowSimWaferScaleSnakeBcast(benchmark::State& state) {
  BM_FlowSimWaferScaleCell(
      state, collectives::make_allreduce_2d_snake_bcast(
                 {512, 512}, static_cast<u32>(state.range(0))));
}
BENCHMARK(BM_FlowSimWaferScaleSnakeBcast)
    ->Arg(64)->Arg(4096)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
