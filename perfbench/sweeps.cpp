// The two simulator-bound workloads.
//
// sweep_wafer: every (collective, grid, B) cell of wafer-scale 2D Reduce and
//   AllReduce is planned twice over (model-selected, then every applicable
//   2D candidate) and run on FlowSim. X-Y compositions run as one row lane
//   plus one column lane (T = T_row + T_col, the identity the figure
//   benches use and tests/test_flowsim.cpp validates); Snake runs on the
//   full grid. FlowSim does nearly all the work.
// sweep_fabric: every cell of 1D rows (64-512 PEs) and 2D grids (up to
//   32x32) across the five collectives and the B axis is planned by the
//   model and verified on FabricSim with canonical inputs. Star-incast,
//   busy-root and degraded-fabric cells (a throttled link on the plan's
//   path, a failed link off it) ride along. FabricSim does nearly all the
//   work.
//
// Both keep their cell list fixed and run it longest first; the seed picks
// the rectangular wafer grid's orientation and places the failed links.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "flowsim/flowsim.hpp"
#include "harness.hpp"
#include "perfbench.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/plan_json.hpp"
#include "runtime/planner.hpp"
#include "runtime/verify.hpp"
#include "wse/checks.hpp"

namespace perfbench {

namespace {

using wsr::GridShape;
using wsr::LinkOverride;
using wsr::MachineParams;
using wsr::registry::Collective;
using wsr::registry::Dims;

/// The paper's vector-length axis: 4 B .. 16 KB = 1 .. 4096 wavelets.
std::vector<u32> b_axis() {
  std::vector<u32> out;
  for (u32 b = 1; b <= 4096; b *= 2) out.push_back(b);
  return out;
}

/// Largest predicted (PEs x cycles) product simulated on FabricSim; larger
/// cells are left to FlowSim, like the figure harness's fabric budget.
constexpr double kFabricBudgetPeCycles = 2e6;

/// Timed set-ups per untraced run (at least); setup_s is their median.
constexpr u32 kSetupReps = 7;

i64 schedule_ops(const wsr::wse::Schedule& s) {
  i64 n = 0;
  for (const auto& p : s.programs) n += static_cast<i64>(p.ops.size());
  return n;
}

std::string grid_label(GridShape g) {
  return g.is_row() ? std::to_string(g.width)
                    : std::to_string(g.width) + "x" + std::to_string(g.height);
}

/// One simulated plan of a cell: what the report lists per line.
struct SimLine {
  std::string label;
  i64 predicted = 0;
  i64 simulated = 0;
  bool pristine = true;  ///< counts toward model_err_mean
  double lb = 0;         ///< lower bound in cycles (0 = not applicable)
};

struct CellResult {
  std::vector<SimLine> lines;
  bool ok = true;
  std::string error;
};

/// Per-worker layer accounting, merged after the sweep.
struct LayerTotals {
  double flow_s = 0;
  double flow_kops = 0;
  double fabric_s = 0;
  double fabric_degraded_s = 0;
  double fabric_mpe_cycles = 0;
  std::vector<double> build_ms, select_us, candidates, plan_ms;
  void merge(const LayerTotals& o) {
    flow_s += o.flow_s;
    flow_kops += o.flow_kops;
    fabric_s += o.fabric_s;
    fabric_degraded_s += o.fabric_degraded_s;
    fabric_mpe_cycles += o.fabric_mpe_cycles;
    for (auto [dst, src] : {std::pair{&build_ms, &o.build_ms},
                            std::pair{&select_us, &o.select_us},
                            std::pair{&candidates, &o.candidates},
                            std::pair{&plan_ms, &o.plan_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }
};

/// Context handed to a cell: the worker's tracer and layer totals.
struct Worker {
  Tracer tracer;
  LayerTotals layers;
  double shadow_s = 0;  ///< time spent in shadow (duplicate) layer calls
  explicit Worker(bool trace) : tracer(trace) {}
};

// --- timed layer calls ---------------------------------------------------

wsr::wse::Schedule timed_build(Worker& w, u64 cell,
                               const wsr::registry::AlgorithmDescriptor& d,
                               GridShape g, u32 b,
                               const wsr::registry::PlanContext& ctx) {
  Scope span(w.tracer, "collectives.build", cell);
  const double t0 = now_s();
  wsr::wse::Schedule s = d.build(g, b, ctx);
  w.layers.build_ms.push_back((now_s() - t0) * 1e3);
  return s;
}

i64 timed_flow(Worker& w, u64 cell, const wsr::wse::Schedule& s, u32 tr) {
  Scope span(w.tracer, "flowsim.run_flow", cell);
  wsr::flowsim::FlowOptions fo;
  fo.ramp_latency = tr;
  const double t0 = now_s();
  const i64 cycles = wsr::flowsim::run_flow(s, fo).cycles;
  w.layers.flow_s += now_s() - t0;
  w.layers.flow_kops += static_cast<double>(schedule_ops(s)) / 1e3;
  return cycles;
}

wsr::runtime::VerifyResult timed_verify(Worker& w, u64 cell,
                                        const wsr::wse::Schedule& s,
                                        Collective c,
                                        const std::vector<LinkOverride>& links) {
  Scope span(w.tracer, "wse.verify_collective", cell);
  wsr::wse::FabricOptions fo;
  fo.link_overrides = links;
  const double t0 = now_s();
  wsr::runtime::VerifyResult r =
      wsr::runtime::verify_collective(s, wsr::runtime::semantic_for(c), fo);
  const double dt = now_s() - t0;
  w.layers.fabric_s += dt;
  if (!links.empty()) w.layers.fabric_degraded_s += dt;
  w.layers.fabric_mpe_cycles +=
      static_cast<double>(r.cycles) * s.grid.num_pes() / 1e6;
  return r;
}

/// Model-driven selection as the planner does it: the applicable
/// auto-selectable candidates in name order, strict minimum of cost.
const wsr::registry::AlgorithmDescriptor* timed_select(
    Worker& w, u64 cell, Collective c, GridShape g, u32 b,
    const wsr::registry::PlanContext& ctx, wsr::Prediction* pred) {
  Scope span(w.tracer, "registry.select", cell);
  const double t0 = now_s();
  const wsr::registry::AlgorithmDescriptor* best = nullptr;
  double applicable = 0;
  for (const auto* d : wsr::registry::AlgorithmRegistry::instance().query(
           c, wsr::registry::dims_for(g), true)) {
    if (!d->applicable(g, b)) continue;
    ++applicable;
    const wsr::Prediction p = d->cost(g, b, ctx);
    if (best == nullptr || p.cycles < pred->cycles) {
      best = d;
      *pred = p;
    }
  }
  w.layers.select_us.push_back((now_s() - t0) * 1e6);
  w.layers.candidates.push_back(applicable);
  return best;
}

// --- sweep_wafer -----------------------------------------------------------

struct WaferCell {
  Collective coll;
  GridShape grid;
  u32 b;
};

/// The 1D lane descriptor an "X-Y <pattern>" composition runs on each axis
/// (nullptr for full-grid algorithms such as Snake).
const wsr::registry::AlgorithmDescriptor* lane_of(
    const wsr::registry::AlgorithmDescriptor& d) {
  if (d.name.rfind("X-Y ", 0) != 0) return nullptr;
  std::string lane = d.name.substr(4);
  if (d.collective == Collective::AllReduce) lane += "+Bcast";
  return wsr::registry::AlgorithmRegistry::instance().find(d.collective,
                                                           Dims::OneD, lane);
}

/// Simulated cycles of one 2D candidate: lanes for X-Y, full grid else.
i64 simulate_wafer(Worker& w, u64 cell, const wsr::registry::AlgorithmDescriptor& d,
                   GridShape g, u32 b, const wsr::registry::PlanContext& ctx,
                   bool* ok) {
  if (const auto* lane = lane_of(d)) {
    if (!lane->applicable({g.width, 1}, b) || !lane->applicable({g.height, 1}, b)) {
      *ok = false;
      return 0;
    }
    const i64 row = timed_flow(w, cell, timed_build(w, cell, *lane, {g.width, 1}, b, ctx),
                               ctx.mp.ramp_latency);
    const i64 col =
        g.height == g.width
            ? row
            : timed_flow(w, cell, timed_build(w, cell, *lane, {g.height, 1}, b, ctx),
                         ctx.mp.ramp_latency);
    return row + col;
  }
  return timed_flow(w, cell, timed_build(w, cell, d, g, b, ctx), ctx.mp.ramp_latency);
}

CellResult run_wafer_cell(Worker& w, u64 id, const WaferCell& c,
                          const wsr::runtime::Planner& planner) {
  Scope span(w.tracer, "cell", id);
  const wsr::registry::PlanContext ctx = planner.context();
  CellResult out;
  const std::string key = std::string(wsr::registry::name(c.coll)) + " " +
                          grid_label(c.grid) + " B=" + std::to_string(c.b);

  // Model-selected plan.
  wsr::Prediction pred;
  const auto* chosen = timed_select(w, id, c.coll, c.grid, c.b, ctx, &pred);
  if (chosen == nullptr) {
    out.ok = false;
    out.error = key + ": no applicable candidate";
    return out;
  }
  bool ok = true;
  SimLine sel{key + " selected:" + chosen->name, pred.cycles,
              simulate_wafer(w, id, *chosen, c.grid, c.b, ctx, &ok), true, 0};
  // X-Y lower bound for the selected Reduce: each axis phase is a 1D Reduce.
  if (c.coll == Collective::Reduce && lane_of(*chosen) != nullptr) {
    sel.lb = planner.reduce_1d_lower_bound(c.grid.width, c.b) +
             planner.reduce_1d_lower_bound(c.grid.height, c.b);
  }
  out.lines.push_back(sel);

  // Every applicable 2D candidate.
  for (const auto* d : wsr::registry::AlgorithmRegistry::instance().query(
           c.coll, Dims::TwoD, true)) {
    if (!d->applicable(c.grid, c.b)) continue;
    const i64 p = d->cost(c.grid, c.b, ctx).cycles;
    out.lines.push_back({key + " " + d->name, p,
                         simulate_wafer(w, id, *d, c.grid, c.b, ctx, &ok), true, 0});
  }
  if (!ok) {
    out.ok = false;
    out.error = key + ": a lane was not constructible";
  }
  for (const SimLine& l : out.lines) {
    if (l.simulated <= 0) {
      out.ok = false;
      out.error = key + ": FlowSim did not complete " + l.label;
    }
  }
  return out;
}

// --- sweep_fabric ----------------------------------------------------------

struct FabricCell {
  enum class Kind { Planned, ForcedStar, BusyRoot };
  Kind kind = Kind::Planned;
  Collective coll = Collective::Reduce;
  GridShape grid;
  u32 b = 0;
  u32 busy_sends = 0;
  /// Machine the cell is planned for (nullptr = the pristine planner).
  const wsr::runtime::Planner* planner = nullptr;
  /// Overrides the fabric simulates (planned-for throttles, or a failed
  /// link the plan does not cross).
  std::vector<LinkOverride> links;
  std::string variant = "pristine";
};

std::string fabric_key(const FabricCell& c) {
  std::string k = std::string(wsr::registry::name(c.coll)) + " " +
                  grid_label(c.grid) + " B=" + std::to_string(c.b);
  if (c.kind == FabricCell::Kind::ForcedStar) k += " star-incast";
  if (c.kind == FabricCell::Kind::BusyRoot) {
    k += " busy-root x" + std::to_string(c.busy_sends);
  }
  return k + " " + c.variant;
}

CellResult run_fabric_cell(Worker& w, u64 id, const FabricCell& c,
                           const wsr::runtime::Planner& pristine) {
  Scope span(w.tracer, "cell", id);
  CellResult out;
  const std::string key = fabric_key(c);
  if (c.kind == FabricCell::Kind::BusyRoot) {
    const wsr::wse::Schedule s = wsr::bench::make_busy_root_star(
        c.grid.width, c.b, c.busy_sends);
    const auto inputs = wsr::bench::busy_root_star_inputs(s, c.b, c.busy_sends);
    Scope fab(w.tracer, "wse.run_fabric", id);
    const double t0 = now_s();
    const wsr::wse::FabricResult r = wsr::wse::run_fabric(s, inputs);
    w.layers.fabric_s += now_s() - t0;
    w.layers.fabric_mpe_cycles +=
        static_cast<double>(r.cycles) * s.grid.num_pes() / 1e6;
    // The root's incast must still sum every PE's canonical vector.
    for (u32 j = 0; j < c.b; ++j) {
      float expect = 0;
      for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) expect += inputs[pe][j];
      if (r.memory[0][j] != expect) {
        out.ok = false;
        out.error = key + ": root element " + std::to_string(j) + " wrong";
        break;
      }
    }
    out.lines.push_back({key, 0, r.cycles, false, 0});
    return out;
  }

  const wsr::runtime::Planner& planner = c.planner ? *c.planner : pristine;
  wsr::runtime::PlanRequest req{c.coll, c.grid, c.b, ""};
  if (c.kind == FabricCell::Kind::ForcedStar) req.algorithm = "Star";
  wsr::runtime::Plan plan;
  {
    Scope ps(w.tracer, "runtime.plan", id);
    const double t0 = now_s();
    plan = planner.plan(req);
    w.layers.plan_ms.push_back((now_s() - t0) * 1e3);
  }
  if (w.tracer.enabled()) {
    // Planner::plan is selection plus build: time each layer's own entry
    // point on the same inputs, outside the cell's span.
    const double t0 = now_s();
    Worker shadow(false);
    wsr::Prediction pred;
    const auto* d = req.algorithm.empty()
                        ? timed_select(shadow, id, c.coll, c.grid, c.b,
                                       planner.context(), &pred)
                        : wsr::registry::AlgorithmRegistry::instance().find(
                              c.coll, wsr::registry::dims_for(c.grid), req.algorithm);
    timed_build(shadow, id, *d, c.grid, c.b, planner.context());
    w.layers.merge(shadow.layers);
    w.shadow_s += now_s() - t0;
  }
  if (wsr::wse::schedule_crosses_failed_link(plan.schedule, c.links)) {
    out.ok = false;
    out.error = key + ": plan crosses the failed link";
    return out;
  }
  const wsr::runtime::VerifyResult r = timed_verify(w, id, plan.schedule, c.coll, c.links);
  if (!r.ok) {
    out.ok = false;
    out.error = key + ": " + r.error;
  }
  SimLine line{key + " " + plan.algorithm, plan.prediction.cycles, r.cycles,
               c.variant == "pristine" && c.kind == FabricCell::Kind::Planned, 0};
  if (line.pristine && c.coll == Collective::Reduce && c.grid.is_row()) {
    line.lb = planner.reduce_1d_lower_bound(c.grid.width, c.b);
  }
  out.lines.push_back(line);
  return out;
}

/// A failed link off the plan's path must not change a cycle: fails every
/// failed-off-path cell whose simulated cycles differ from those of its
/// pristine twin (the same cell without the failed link).
void check_off_path_twins(const std::vector<FabricCell>& cells,
                          std::vector<CellResult>* results) {
  std::map<std::string, i64> pristine;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].variant == "pristine" && !(*results)[i].lines.empty()) {
      pristine[fabric_key(cells[i])] = (*results)[i].lines[0].simulated;
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellResult& r = (*results)[i];
    if (cells[i].variant != "failed-off-path" || !r.ok) continue;
    FabricCell twin = cells[i];
    twin.variant = "pristine";
    const auto it = pristine.find(fabric_key(twin));
    if (it == pristine.end() || it->second != r.lines[0].simulated) {
      r.ok = false;
      r.error = fabric_key(cells[i]) + ": simulated cycles differ from the pristine cell's";
    }
  }
}

// --- the shared sweep runner ----------------------------------------------

/// Runs `cells` across `jobs` threads (dynamic assignment; each worker
/// writes only its own result slots). Returns the wall time.
template <typename Cell, typename Fn>
double run_cells(const std::vector<Cell>& cells, u32 jobs, bool trace,
                 std::vector<CellResult>* results, std::vector<double>* cell_ms,
                 std::vector<std::unique_ptr<Worker>>* workers, Fn fn) {
  results->assign(cells.size(), {});
  cell_ms->assign(cells.size(), 0);
  workers->clear();
  for (u32 j = 0; j < jobs; ++j) workers->push_back(std::make_unique<Worker>(trace));
  std::atomic<std::size_t> next{0};
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (u32 j = 0; j < jobs; ++j) {
    threads.emplace_back([&, j] {
      Worker& w = *(*workers)[j];
      for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
        const double c0 = now_s();
        (*results)[i] = fn(w, i, cells[i]);
        (*cell_ms)[i] = (now_s() - c0) * 1e3;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return now_s() - t0;
}

struct Setup {
  std::unique_ptr<wsr::runtime::Planner> pristine;
  std::vector<std::unique_ptr<wsr::runtime::Planner>> degraded;
  std::vector<double> dp_fill_ms;
  double lb_ms = 0;
};

/// Builds the registry, the DP and lower-bound tables of every machine the
/// sweep plans for: the pristine one, and the throttled `degraded` ones
/// (each with its largest grid extent).
Setup build_setup(const std::vector<std::pair<u32, MachineParams>>& degraded) {
  Setup s;
  wsr::registry::AlgorithmRegistry::instance();
  s.pristine = std::make_unique<wsr::runtime::Planner>(512);
  double t0 = now_s();
  s.pristine->autogen_model();
  s.dp_fill_ms.push_back((now_s() - t0) * 1e3);
  t0 = now_s();
  s.pristine->lower_bound();
  s.lb_ms = (now_s() - t0) * 1e3;
  for (const auto& [extent, mp] : degraded) {
    s.degraded.push_back(std::make_unique<wsr::runtime::Planner>(extent, mp));
    t0 = now_s();
    s.degraded.back()->autogen_model();
    s.dp_fill_ms.push_back((now_s() - t0) * 1e3);
  }
  return s;
}

std::vector<WaferCell> wafer_cells(Rng& rng) {
  // The rectangular grid's orientation is seeded; both have the same lanes.
  const GridShape rect = rng.below(2) == 0 ? GridShape{512, 128} : GridShape{128, 512};
  std::vector<WaferCell> cells;
  for (Collective c : {Collective::Reduce, Collective::AllReduce}) {
    for (GridShape g : {GridShape{512, 512}, rect, GridShape{256, 256}}) {
      for (u32 b : b_axis()) cells.push_back({c, g, b});
    }
  }
  // Longest first (full-grid Snake cost grows with the grid; AllReduce
  // carries the broadcast too): the workers' overlap, and so the sweep's
  // wall time and peak memory, does not depend on the seed.
  std::stable_sort(cells.begin(), cells.end(), [](const WaferCell& x, const WaferCell& y) {
    const auto cost = [](const WaferCell& c) {
      return u64{c.grid.num_pes()} * (c.coll == Collective::AllReduce ? 3 : 1);
    };
    return cost(x) > cost(y);
  });
  return cells;
}

/// A throttled (factor 2) link on the westward reduction path of every row
/// (inside every 64+ PE row) and of every 2D grid, with the largest extent
/// each machine plans for. The position is fixed: it sets the degraded
/// cells' cost, which must not move with the seed.
std::vector<std::pair<u32, MachineParams>> throttled_machines() {
  MachineParams row, grid;
  row.link_overrides.push_back({32, 0, wsr::Dir::West, 2});
  grid.link_overrides.push_back({4, 3, wsr::Dir::West, 2});
  return {{512, row}, {32, grid}};
}

/// A failed link the pristine plan for `c` does not cross: a seeded try of
/// eastward row links (unused by a westward reduction) and interior
/// vertical links (unused by X-Y and Snake). Empty when none is found.
std::vector<LinkOverride> failed_off_path(Rng& rng, const FabricCell& c,
                                          const wsr::runtime::Planner& planner) {
  const wsr::wse::Schedule s =
      planner.plan({c.coll, c.grid, c.b, ""}).schedule;
  for (int attempt = 0; attempt < 16; ++attempt) {
    LinkOverride o;
    if (c.grid.is_row()) {
      o = {static_cast<u32>(rng.below(c.grid.width - 1)), 0, wsr::Dir::East, 0};
    } else {
      o = {static_cast<u32>(1 + rng.below(c.grid.width - 2)),
           static_cast<u32>(rng.below(c.grid.height - 1)), wsr::Dir::South, 0};
    }
    if (!wsr::wse::schedule_crosses_failed_link(s, {o})) return {o};
  }
  return {};
}

std::vector<FabricCell> fabric_cells(Rng& rng, const Setup& setup) {
  const wsr::runtime::Planner& pristine = *setup.pristine;
  const auto fits = [&](const wsr::runtime::PlanRequest& r) {
    if (!r.algorithm.empty() ||
        wsr::runtime::any_applicable_algorithm(r.collective, r.grid, r.vec_len)) {
      const double pe_cycles =
          static_cast<double>(pristine.plan(r).prediction.cycles) * r.grid.num_pes();
      return pe_cycles <= kFabricBudgetPeCycles;
    }
    return false;
  };
  std::vector<FabricCell> cells;
  // Every in-budget cell runs pristine; Reduce, AllReduce-on-rows and the
  // Star incast also run with the throttled link, and Reduce with a failed
  // link off its path.
  const auto add = [&](FabricCell cell, const wsr::runtime::Planner* throttled) {
    if (!fits({cell.coll, cell.grid, cell.b,
               cell.kind == FabricCell::Kind::ForcedStar ? "Star" : ""})) {
      return;
    }
    cells.push_back(cell);
    if (throttled != nullptr) {
      FabricCell slow = cell;
      slow.planner = throttled;
      slow.links = throttled->machine().link_overrides;
      slow.variant = "throttled";
      cells.push_back(slow);
    }
    if (cell.coll == Collective::Reduce && cell.kind == FabricCell::Kind::Planned) {
      FabricCell failed = cell;
      failed.links = failed_off_path(rng, cell, pristine);
      failed.variant = "failed-off-path";
      if (!failed.links.empty()) cells.push_back(failed);
    }
  };
  const wsr::runtime::Planner* slow_row = setup.degraded[0].get();
  const wsr::runtime::Planner* slow_grid = setup.degraded[1].get();
  for (GridShape g : {GridShape{64, 1}, GridShape{128, 1}, GridShape{256, 1},
                      GridShape{512, 1}}) {
    for (Collective c : {Collective::Reduce, Collective::AllReduce, Collective::Broadcast,
                         Collective::AllGather, Collective::ReduceScatter}) {
      const bool slow = c == Collective::Reduce || c == Collective::AllReduce;
      for (u32 b : b_axis()) {
        add({FabricCell::Kind::Planned, c, g, b}, slow ? slow_row : nullptr);
      }
    }
    for (u32 b : b_axis()) {
      add({FabricCell::Kind::ForcedStar, Collective::Reduce, g, b}, slow_row);
    }
  }
  for (GridShape g : {GridShape{8, 8}, GridShape{16, 16}, GridShape{32, 16},
                      GridShape{32, 32}}) {
    for (Collective c : {Collective::Reduce, Collective::AllReduce, Collective::Broadcast,
                         Collective::AllGather}) {
      for (u32 b : b_axis()) {
        add({FabricCell::Kind::Planned, c, g, b},
            c == Collective::Reduce ? slow_grid : nullptr);
      }
    }
  }
  for (u32 p : {64u, 128u, 256u}) {
    for (u32 busy : {8u, 64u}) {
      cells.push_back({FabricCell::Kind::BusyRoot, Collective::Reduce, {p, 1}, 4, busy});
    }
  }
  // Longest first by predicted PE-cycles (degraded cells run the slower
  // engine, so they lead their size class).
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FabricCell& c = cells[i];
    const i64 cycles = c.kind == FabricCell::Kind::BusyRoot
                           ? i64{c.busy_sends} * c.b * c.grid.num_pes()
                           : (c.planner ? *c.planner : pristine)
                                 .plan({c.coll, c.grid, c.b,
                                        c.kind == FabricCell::Kind::ForcedStar ? "Star" : ""})
                                 .prediction.cycles;
    order.push_back({-static_cast<double>(cycles) * c.grid.num_pes() *
                         (c.links.empty() ? 1 : 4),
                     i});
  }
  std::stable_sort(order.begin(), order.end());
  std::vector<FabricCell> sorted;
  for (const auto& [cost, i] : order) sorted.push_back(cells[i]);
  return sorted;
}

}  // namespace

int run_sweep(const SweepArgs& a) {
  const bool wafer = a.workload == "sweep_wafer";
  Rng rng(a.seed);
  std::vector<std::pair<u32, MachineParams>> slow_machines;
  if (!wafer) slow_machines = throttled_machines();

  // Set-up: the first build of the tables is the one the sweep uses. An
  // untraced run times more, throwaway, builds between the sweep repeats
  // and after the last one, so their median samples the whole run.
  std::vector<double> setup_s;
  const auto time_setup = [&] {
    const double t0 = now_s();
    Setup s = build_setup(slow_machines);
    setup_s.push_back(now_s() - t0);
    return s;
  };
  const Setup setup = time_setup();

  std::vector<WaferCell> wcells;
  std::vector<FabricCell> fcells;
  if (wafer) {
    wcells = wafer_cells(rng);
  } else {
    fcells = fabric_cells(rng, setup);
  }
  const std::size_t ncells = wafer ? wcells.size() : fcells.size();

  const auto sweep_once = [&](bool trace, std::vector<CellResult>* results,
                              std::vector<double>* cell_ms,
                              std::vector<std::unique_ptr<Worker>>* workers) {
    if (wafer) {
      return run_cells(wcells, a.jobs, trace, results, cell_ms, workers,
                       [&](Worker& w, u64 id, const WaferCell& c) {
                         return run_wafer_cell(w, id, c, *setup.pristine);
                       });
    }
    return run_cells(fcells, a.jobs, trace, results, cell_ms, workers,
                     [&](Worker& w, u64 id, const FabricCell& c) {
                       return run_fabric_cell(w, id, c, *setup.pristine);
                     });
  };

  // Measured sweeps: repeat while the time lasts (at least two); every
  // repeat must reproduce the first one's simulated cycles exactly. A
  // traced run makes one untraced and one traced sweep instead: the
  // per-layer numbers come from the traced one, the overhead from the pair.
  std::vector<double> sweep_s, cell_ms_all;
  std::vector<CellResult> first, results;
  std::vector<double> cell_ms;
  std::vector<std::unique_ptr<Worker>> workers;
  u64 attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const double t_end = now_s() + a.seconds;
  // Another repeat starts only if it still fits in the time (the set-ups
  // between repeats are not counted).
  double t_setups = 0, peak_rss_mb = 0;
  for (u32 rep = 0; rep < 2 || (!a.trace && now_s() - t_setups + sweep_s.back() < t_end);
       ++rep) {
    if (rep > 0 && !a.trace) {
      time_setup();
      t_setups += setup_s.back();
    }
    sweep_s.push_back(sweep_once(a.trace && rep == 1, &results, &cell_ms, &workers));
    cell_ms_all.insert(cell_ms_all.end(), cell_ms.begin(), cell_ms.end());
    // The footprint of the tables and one sweep, before any throwaway
    // set-up adds its own.
    if (rep == 0) peak_rss_mb = vm_hwm_mb();
    if (rep == 0 && !wafer) check_off_path_twins(fcells, &results);
    for (std::size_t i = 0; i < ncells; ++i) {
      ++attempted;
      bool bad = !results[i].ok;
      if (rep > 0 && !bad) {
        bad = results[i].lines.size() != first[i].lines.size();
        for (std::size_t k = 0; !bad && k < results[i].lines.size(); ++k) {
          bad = results[i].lines[k].simulated != first[i].lines[k].simulated;
        }
        if (bad) results[i].error = "simulated cycles differ between repeats";
      }
      if (bad) {
        ++failed;
        if (errors.size() < 5) errors.push_back(results[i].error);
      }
    }
    if (rep == 0) first = results;
  }
  while (!a.trace && setup_s.size() < kSetupReps) time_setup();

  // Deterministic results and the per-cell listing.
  std::vector<double> errs;
  double lb_ratio_max = 0;
  std::string listing;
  u64 digest = 1469598103934665603ull;
  std::vector<std::string> lines_sorted;
  for (const CellResult& r : first) {
    for (const SimLine& l : r.lines) {
      if (l.pristine && l.simulated > 0 && l.predicted > 0) {
        errs.push_back(std::abs(static_cast<double>(l.predicted - l.simulated)) /
                       static_cast<double>(l.simulated));
      }
      if (l.lb > 0) lb_ratio_max = std::max(lb_ratio_max, l.simulated / l.lb);
      lines_sorted.push_back(l.label + "\t" + std::to_string(l.predicted) + "\t" +
                             std::to_string(l.simulated));
    }
  }
  std::sort(lines_sorted.begin(), lines_sorted.end());
  for (const std::string& l : lines_sorted) {
    listing += l + "\n";
    for (char ch : l) digest = (digest ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
  }
  if (!a.cells_out.empty()) {
    if (FILE* f = std::fopen(a.cells_out.c_str(), "w")) {
      std::fputs("cell\tpredicted\tsimulated\n", f);
      std::fputs(listing.c_str(), f);
      std::fclose(f);
    }
  }

  Report rep;
  rep.num("attempted", static_cast<double>(attempted));
  rep.num("failed", static_cast<double>(failed));
  rep.num("cells", static_cast<double>(ncells));
  rep.num("sim_lines", static_cast<double>(lines_sorted.size()));
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  rep.str("cycles_digest", hex);
  rep.raw("errors", json_list(errors));
  rep.num("jobs", a.jobs);
  rep.num("sweep_reps", static_cast<double>(sweep_s.size()));
  rep.num("setup_s", quantile(setup_s, 0.5));
  rep.num("sweep_s", quantile(sweep_s, 0.5));
  const auto listed = [](const std::vector<double>& xs) {
    std::vector<std::string> v;
    for (double x : xs) v.push_back(std::to_string(x));
    return json_list(v);
  };
  rep.raw("sweep_s_reps", listed(sweep_s));
  rep.raw("setup_s_reps", listed(setup_s));
  rep.num("latency_p50_ms", quantile(cell_ms_all, 0.5));
  rep.num("latency_p99_ms", tail(cell_ms_all));
  rep.num("latency_tail_level", tail_level(cell_ms_all.size()));
  rep.num("latency_samples", static_cast<double>(cell_ms_all.size()));
  rep.num("max_rate_rps", static_cast<double>(ncells) / quantile(sweep_s, 0.5));
  rep.num("model_err_mean", mean(errs));
  rep.num("lb_ratio_max", lb_ratio_max);
  rep.num("peak_rss_mb", peak_rss_mb);

  if (a.trace) {
    LayerTotals layers;
    double shadow = 0;
    for (const auto& w : workers) {
      layers.merge(w->layers);
      shadow += w->shadow_s;
    }
    rep.num("trace.overhead_frac",
            (sweep_s[1] - shadow / a.jobs) / sweep_s[0] - 1.0);
    rep.num("flowsim.s", layers.flow_s);
    rep.num("flowsim.kops_per_s", layers.flow_s > 0 ? layers.flow_kops / layers.flow_s : 0);
    rep.num("wse.fabric_s", layers.fabric_s);
    rep.num("wse.fabric_degraded_s", layers.fabric_degraded_s);
    rep.num("wse.fabric_mpe_cycles_per_s",
            layers.fabric_s > 0 ? layers.fabric_mpe_cycles / layers.fabric_s : 0);
    rep.num("collectives.build_ms.p50", quantile(layers.build_ms, 0.5));
    rep.num("registry.select_us.p50", quantile(layers.select_us, 0.5));
    rep.num("registry.candidates.mean", mean(layers.candidates));
    rep.num("runtime.plan_ms.p50", quantile(layers.plan_ms, 0.5));
    rep.num("runtime.plan_ms.p99", tail(layers.plan_ms));
    rep.num("autogen.dp_fill_ms.p50", quantile(setup.dp_fill_ms, 0.5));
    rep.num("autogen.dp_fills", static_cast<double>(setup.dp_fill_ms.size()));
    rep.num("autogen.lb_ms", setup.lb_ms);
    // Self time per span name, for the ledger.
    std::map<std::string, double> self_s;
    for (const auto& w : workers) {
      const auto self = w->tracer.self_us();
      for (std::size_t i = 0; i < self.size(); ++i) {
        self_s[w->tracer.spans()[i].name] += self[i] / 1e6;
      }
    }
    Report selfr;
    for (const auto& [k, v] : self_s) selfr.num(k, v);
    rep.raw("self_s", selfr.json());
  }
  rep.print();
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
