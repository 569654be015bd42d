// Shared benchmark harness: sweeps, table/heatmap printers and the
// measured-vs-predicted plumbing used by every per-figure binary.
//
// "measured" = simulator cycles: FabricSim (cycle-level) for 1D rows and
// small grids, FlowSim (flow-level, cross-validated in tests/test_flowsim)
// for wafer-scale grids. "predicted" = the performance model. Each binary
// prints the same rows/series as the corresponding paper figure.
//
// Every figure binary runs on the sweep engine: cells (one schedule build +
// simulation each) are enqueued on a SweepRunner and evaluated concurrently
// on `--jobs`/WSR_BENCH_JOBS worker threads. Each cell writes only its own
// pre-allocated slot, so the numeric output is identical at any thread
// count (pinned by tests/test_sweep_determinism.cpp). `--json out.json`
// additionally emits the figure data + wall time machine-readably, which is
// what CI tracks per PR.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "collectives/collectives.hpp"
#include "flowsim/flowsim.hpp"
#include "model/costs2d.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/planner.hpp"
#include "runtime/verify.hpp"

namespace wsr::bench {

/// The paper's vector-length axis: 2^2 .. 2^15 bytes = 1 .. 8192 wavelets.
/// The hardware sweeps stop at 1/3 of PE memory (4096 wavelets = 16 KB);
/// Figures 11/13 annotate that point.
std::vector<u32> vec_len_sweep_wavelets(u32 max_wavelets = 8192);

/// The paper's PE-count axis: 4, 8, ..., 512.
std::vector<u32> pe_sweep();

std::string bytes_label(u32 wavelets);

// --- the paper's region maps (Figures 8 and 10) -----------------------------

/// The planner's candidate table for (collective, grid, vec_len) without its
/// DP-generated rows: the fixed algorithms the paper's Figures 8 and 10 map.
std::vector<runtime::Candidate> fixed_candidates(
    const runtime::Planner& planner, runtime::Collective collective,
    GridShape grid, u32 vec_len);

/// One region-map cell: the fastest fixed algorithm (best_candidate over
/// fixed_candidates), its predicted cycles, and the predicted cycles of the
/// vendor baseline row named `vendor`.
struct RegionCell {
  std::string winner;
  i64 cycles = 0;
  i64 vendor_cycles = 0;
};
RegionCell region_cell(const runtime::Planner& planner,
                       runtime::Collective collective, GridShape grid,
                       u32 vec_len, std::string_view vendor);

/// The mixed-axis X-Y Reduce extension (which subsumes every same-axis X-Y
/// assignment) against the Snake, which still owns the bandwidth-bound
/// corner: plans whichever predict() prices cheaper, Snake on a tie.
runtime::Plan plan_mixed_xy(const runtime::Planner& planner, GridShape grid,
                            u32 vec_len);

// --- measurement ------------------------------------------------------------

struct Measurement {
  i64 measured = -1;   ///< simulator cycles (-1: not simulated)
  i64 predicted = 0;   ///< model cycles

  /// Whether this point was actually simulated. Unsimulated points must be
  /// *excluded* from error statistics, not counted as perfect.
  bool simulated() const { return measured > 0; }

  /// |measured - predicted| / measured. Asserts the point was simulated and
  /// the model produced a positive prediction — callers filter with
  /// simulated() first (print_figure and mean_err do).
  double err() const;
};

/// Mean relative error over the simulated points of a series; nullopt when
/// nothing was simulated (prediction-only series).
std::optional<double> mean_err(const std::vector<Measurement>& points);

/// Runs the schedule on FabricSim (canonical inputs, results verified;
/// broadcasts verify against the root's vector instead of the sum).
i64 fabric_cycles(const wse::Schedule& s, bool is_broadcast = false);

/// Semantic-aware variant for the non-reduction collectives (AllGather,
/// ReduceScatter): verifies the collective's own contract.
i64 fabric_cycles(const wse::Schedule& s, runtime::Semantic semantic);

/// Runs the schedule on FlowSim.
i64 flow_cycles(const wse::Schedule& s);

/// Cycle-level simulation where tractable, flow-level beyond: FabricSim cost
/// grows with (cycles x PEs), so points whose predicted runtime exceeds
/// `fabric_budget_cycles` fall back to FlowSim (the two agree within 2%,
/// validated in tests/test_flowsim.cpp).
i64 measured_cycles(const wse::Schedule& s, i64 predicted,
                    i64 fabric_budget_cycles = 300'000,
                    bool is_broadcast = false);

/// Semantic-aware measured_cycles (verification follows the semantic when
/// the point lands on FabricSim).
i64 measured_cycles(const wse::Schedule& s, i64 predicted,
                    runtime::Semantic semantic,
                    i64 fabric_budget_cycles = 300'000);

/// X-Y composition at wafer scale: rows are identical and synchronized, so
/// T = T_row(N) + T_col(M) exactly (tests/test_flowsim.cpp validates this
/// identity). Simulates one row and one column instead of the full grid.
i64 xy_composed_cycles(const std::function<wse::Schedule(u32)>& lane_schedule,
                       GridShape grid);

// --- synthetic bench schedules ----------------------------------------------

/// Star Reduce whose root is still streaming a previous result out: the
/// root's egress op (busy_sends * vec_len wavelets to PE 1 on a color of
/// its own) must complete before the incast recv may start, so the entire
/// incast line backs up into occupied-but-immovable router registers — the
/// back-to-back serving shape (plan N's broadcast egress overlapping plan
/// N+1's inbound reduce), where the Simd engine's stall-cause parking does
/// the most work. Callers must grow the root's input vector to
/// busy_sends * vec_len elements (the outbound stream reads past B);
/// `busy_root_star_inputs` does both steps. Parity across stepping modes is
/// pinned by tests/test_fabric_parity.cpp (FabricParity.BusyRootIncast),
/// speed by bench/micro_machinery.
wse::Schedule make_busy_root_star(u32 num_pes, u32 vec_len, u32 busy_sends);

/// Canonical inputs for make_busy_root_star with the root's vector grown to
/// cover the busy stream.
std::vector<std::vector<float>> busy_root_star_inputs(const wse::Schedule& s,
                                                      u32 vec_len,
                                                      u32 busy_sends);

// --- the sweep engine -------------------------------------------------------

/// Options every figure binary accepts:
///   --jobs N      worker threads for sweep cells (0 = hardware concurrency;
///                 default: WSR_BENCH_JOBS env var, else 1)
///   --json PATH   write figure data + wall time as JSON to PATH
///   --repeat N    evaluate every sweep N times and report the *minimum*
///                 sweep time (cells are deterministic, so repeats are
///                 byte-identical); the reported wall time is then stable
///                 enough for CI to gate on (tools/bench_trend.py)
struct BenchOptions {
  u32 jobs = 1;
  u32 repeat = 1;
  std::string json_path;

  /// Parses argv (exits with a message on unknown flags) and applies the
  /// WSR_BENCH_JOBS default.
  static BenchOptions parse(int argc, char** argv);
};

/// One plotted series of a figure: label + per-sweep-point values.
struct Series {
  std::string label;
  std::vector<Measurement> points;
};

/// Deterministic parallel cell evaluator. Enqueue cells (each computing one
/// Measurement into a caller-owned slot), then run() evaluates them across
/// the worker threads. Slots must stay valid across run(): size all series
/// *before* enqueuing (a growing std::vector<Series> would move them).
class SweepRunner {
 public:
  explicit SweepRunner(u32 jobs = 1, u32 repeat = 1)
      : jobs_(jobs), repeat_(repeat == 0 ? 1 : repeat) {}

  u32 jobs() const { return jobs_; }
  u32 repeat() const { return repeat_; }

  /// Enqueues a measurement cell writing `*slot`.
  void cell(Measurement* slot, std::function<Measurement()> fn);

  /// Enqueues an arbitrary cell (region maps / heatmaps); the callable must
  /// write only its own output slot.
  void task(std::function<void()> fn);

  /// Evaluates every queued cell (dynamic scheduling over `jobs` threads),
  /// then clears the queue. Results are independent of the thread count.
  /// With repeat > 1 the whole queue is evaluated `repeat` times (cells are
  /// deterministic, so the outputs are identical) and the minimum pass time
  /// is accumulated into sweep_seconds().
  void run();

  /// Sum over run() calls of the minimum pass time — the de-noised sweep
  /// cost this binary reports as its wall time when --repeat N is given.
  double sweep_seconds() const { return sweep_seconds_; }

 private:
  u32 jobs_;
  u32 repeat_;
  double sweep_seconds_ = 0;
  std::vector<std::function<void()>> tasks_;
};

/// The series with the given label (asserts it exists).
const Series& series_by_label(const std::vector<Series>& series,
                              const std::string& label);

/// Max measured-cycles speedup of `challenger` over `vendor` across the
/// sweep (points either series did not measure are skipped).
double max_measured_speedup(const Series& vendor, const Series& challenger);

/// Presizes `s.points` and enqueues one FlowSim cell per (grid, B) sweep
/// point of the 2D descriptor (predicted = the descriptor's cost model).
void flow_series_cells(SweepRunner& runner, Series& s,
                       const registry::AlgorithmDescriptor& desc,
                       const std::vector<std::pair<GridShape, u32>>& points,
                       const registry::PlanContext& ctx);

// --- reporting --------------------------------------------------------------

/// Per-binary facade: parses options, owns the SweepRunner, prints figures
/// exactly as before *and* records them for --json. Call finish() last; it
/// prints the wall time and writes the JSON report.
class Bench {
 public:
  Bench(int argc, char** argv, std::string name);

  SweepRunner& runner() { return runner_; }
  u32 jobs() const { return options_.jobs; }

  /// Prints a figure as a table: one column block per series with measured /
  /// predicted cycles (and us at 850 MHz) per sweep point, followed by the
  /// per-series mean relative error, exactly the quantities the paper
  /// reports. Records the figure for --json.
  void figure(const std::string& title, const std::string& axis_name,
              const std::vector<std::string>& axis_labels,
              const std::vector<Series>& series, const MachineParams& mp);

  /// Prints a Fig. 1-style heatmap (rows = PE counts, cols = vector
  /// lengths); `values[r][c]` corresponds to (pe_rows[r], b_cols[c]).
  void heatmap(const std::string& title, const std::vector<u32>& pe_rows,
               const std::vector<u32>& b_cols,
               const std::vector<std::vector<double>>& values);

  /// Prints a Fig. 8/10-style region map: best algorithm label per cell
  /// plus its speedup over the vendor baseline.
  void regions(const std::string& title, const std::vector<u32>& pe_rows,
               const std::vector<u32>& b_cols,
               const std::vector<std::vector<std::pair<std::string, double>>>&
                   cells);

  /// Headline line: "<what>: max speedup <x> (paper reports <paper>)".
  void headline(const std::string& what, double ours, double paper);

  /// Recorded scalar with no paper counterpart (acceptance bars, derived
  /// ratios): prints ">>> <what>: <value>x" and lands in the JSON headlines
  /// without a "paper" field.
  void metric(const std::string& what, double value);

  /// Prints wall time, writes the --json report if requested; the binary's
  /// exit code.
  int finish();

 private:
  std::string name_;
  BenchOptions options_;
  SweepRunner runner_;
  i64 start_ns_ = 0;
  std::string figures_json_, heatmaps_json_, regions_json_, headlines_json_;
};

}  // namespace wsr::bench
