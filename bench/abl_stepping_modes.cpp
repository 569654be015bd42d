// Stepping-mode A/B cells: the same contention-bound schedules run under
// both FabricSim stepping engines — the FullScan oracle and the Simd
// production engine — timed head-to-head.
//
// Cycle counts are asserted identical across modes (the parity contract,
// pinned exhaustively by tests/test_fabric_parity.cpp); what this binary
// measures is wall time per engine on the mover-dominated shapes. The
// headline metric is Simd's speedup over the oracle; tools/bench_trend.py
// gates on the binary's wall time like the other perf cells.
#include <chrono>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "wse/fabric.hpp"

using namespace wsr;

namespace {

struct Cell {
  const char* label;
  wse::Schedule schedule;
  std::vector<std::vector<float>> inputs;
};

struct ModeTime {
  i64 cycles = 0;
  double seconds = 0;  // best of `reps` runs
};

ModeTime time_mode(const Cell& cell, wse::SteppingMode mode, u32 reps) {
  wse::FabricOptions opt;
  opt.stepping = mode;
  ModeTime best;
  for (u32 r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const wse::FabricResult res =
        wse::run_fabric(cell.schedule, cell.inputs, opt);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (r == 0 || s < best.seconds) best.seconds = s;
    best.cycles = res.cycles;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, "abl_stepping_modes");
  const MachineParams mp;
  const u32 P = 512;
  const u32 reps = 3;

  std::vector<Cell> cells;
  {
    Cell star{"Star incast P=512 B=64",
              collectives::make_reduce_1d(ReduceAlgo::Star, P, 64),
              {}};
    star.inputs = wse::make_inputs(star.schedule, runtime::canonical_input);
    cells.push_back(std::move(star));

    const u32 busy_b = 16, busy_sends = 2048;
    Cell busy{"Busy-root incast P=512",
              bench::make_busy_root_star(P, busy_b, busy_sends),
              {}};
    busy.inputs = bench::busy_root_star_inputs(busy.schedule, busy_b,
                                               busy_sends);
    cells.push_back(std::move(busy));

    Cell xy{"2D XY Star 24x24 B=64",
            collectives::make_reduce_2d_xy(ReduceAlgo::Star, {24, 24}, 64),
            {}};
    xy.inputs = wse::make_inputs(xy.schedule, runtime::canonical_input);
    cells.push_back(std::move(xy));
  }

  const std::vector<wse::SteppingMode> modes = {wse::SteppingMode::FullScan,
                                                wse::SteppingMode::Simd};

  // One series per mode; "measured" is the (mode-invariant) cycle count so
  // the standard figure doubles as a parity spot check, wall time is what
  // the metrics report.
  std::vector<bench::Series> series;
  std::vector<std::vector<ModeTime>> times(
      modes.size(), std::vector<ModeTime>(cells.size()));
  for (const wse::SteppingMode mode : modes) {
    series.push_back({std::string(wse::stepping_mode_name(mode)),
                      std::vector<bench::Measurement>(cells.size())});
  }
  for (u32 mi = 0; mi < modes.size(); ++mi) {
    for (u32 ci = 0; ci < cells.size(); ++ci) {
      bench.runner().cell(&series[mi].points[ci],
                          [&times, &cells, &modes, mi, ci, reps] {
                            const ModeTime t =
                                time_mode(cells[ci], modes[mi], reps);
                            times[mi][ci] = t;
                            return bench::Measurement{t.cycles, t.cycles};
                          });
    }
  }
  bench.runner().run();

  for (u32 ci = 0; ci < cells.size(); ++ci) {
    for (u32 mi = 1; mi < modes.size(); ++mi) {
      WSR_ASSERT(times[mi][ci].cycles == times[0][ci].cycles,
                 "stepping modes disagree on cycle count");
    }
  }

  std::vector<std::string> labels;
  for (const Cell& c : cells) labels.push_back(c.label);
  bench.figure("Stepping-mode A/B (cycles are mode-invariant)", "cell",
               labels, series, mp);

  std::printf("\nwall seconds per cell (best of %u):\n", reps);
  for (u32 mi = 0; mi < modes.size(); ++mi) {
    std::printf("  %-14s", series[mi].label.c_str());
    for (u32 ci = 0; ci < cells.size(); ++ci) {
      std::printf("  %8.3f", times[mi][ci].seconds);
    }
    std::printf("\n");
  }

  for (u32 ci = 0; ci < cells.size(); ++ci) {
    bench.metric("simd speedup vs fullscan (" + std::string(cells[ci].label) +
                     ")",
                 times[0][ci].seconds / times[1][ci].seconds);
  }
  return bench.finish();
}
