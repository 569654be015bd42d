#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <malloc.h>

#include "common/minijson.hpp"
#include "common/parallel.hpp"
#include "wse/fabric.hpp"

namespace wsr::bench {

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- minimal JSON emission ---------------------------------------------------

std::string json_str(const std::string& s) {
  return "\"" + json::escape(s) + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T, typename Fn>
std::string json_array(const std::vector<T>& v, Fn&& one) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += one(v[i]);
  }
  return out + "]";
}

}  // namespace

std::vector<u32> vec_len_sweep_wavelets(u32 max_wavelets) {
  std::vector<u32> out;
  for (u32 b = 1; b <= max_wavelets; b *= 2) out.push_back(b);
  return out;
}

std::vector<u32> pe_sweep() { return {4, 8, 16, 32, 64, 128, 256, 512}; }

std::string bytes_label(u32 wavelets) {
  const u64 bytes = u64{wavelets} * 4;
  char buf[32];
  if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%lluKB", static_cast<unsigned long long>(bytes / 1024));
  } else {
    std::snprintf(buf, sizeof buf, "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::vector<runtime::Candidate> fixed_candidates(
    const runtime::Planner& planner, runtime::Collective collective,
    GridShape grid, u32 vec_len) {
  std::vector<runtime::Candidate> rows =
      planner.candidates(collective, grid, vec_len);
  std::erase_if(rows, [](const runtime::Candidate& row) {
    return row.desc->model_generated;
  });
  return rows;
}

RegionCell region_cell(const runtime::Planner& planner,
                       runtime::Collective collective, GridShape grid,
                       u32 vec_len, std::string_view vendor) {
  const std::vector<runtime::Candidate> rows =
      fixed_candidates(planner, collective, grid, vec_len);
  const runtime::Candidate* best = runtime::best_candidate(rows);
  WSR_ASSERT(best != nullptr, "no applicable fixed algorithm");
  RegionCell cell{best->desc->name, best->prediction.cycles, 0};
  for (const runtime::Candidate& row : rows) {
    if (row.desc->name == vendor) cell.vendor_cycles = row.prediction.cycles;
  }
  return cell;
}

runtime::Plan plan_mixed_xy(const runtime::Planner& planner, GridShape grid,
                            u32 vec_len) {
  const runtime::PlanRequest snake{runtime::Collective::Reduce, grid, vec_len,
                                   "Snake"};
  const runtime::PlanRequest mixed{runtime::Collective::Reduce, grid, vec_len,
                                   "X-Y Mixed"};
  return planner.plan(
      planner.predict(mixed).cycles < planner.predict(snake).cycles ? mixed
                                                                    : snake);
}

double Measurement::err() const {
  WSR_ASSERT(simulated(), "err() on an unsimulated point");
  WSR_ASSERT(predicted > 0, "err() with a non-positive prediction");
  return std::abs(static_cast<double>(measured - predicted)) /
         static_cast<double>(measured);
}

std::optional<double> mean_err(const std::vector<Measurement>& points) {
  double sum = 0;
  u32 n = 0;
  for (const Measurement& m : points) {
    if (m.simulated()) {
      sum += m.err();
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return sum / n;
}

i64 fabric_cycles(const wse::Schedule& s, bool is_broadcast) {
  const runtime::VerifyResult r = runtime::verify_on_fabric(s, is_broadcast);
  WSR_ASSERT(r.ok, "benchmark schedule produced wrong results");
  return r.cycles;
}

i64 fabric_cycles(const wse::Schedule& s, runtime::Semantic semantic) {
  const runtime::VerifyResult r = runtime::verify_collective(s, semantic);
  WSR_ASSERT(r.ok, "benchmark schedule produced wrong results");
  return r.cycles;
}

i64 flow_cycles(const wse::Schedule& s) { return flowsim::run_flow(s).cycles; }

const Series& series_by_label(const std::vector<Series>& series,
                              const std::string& label) {
  for (const Series& s : series) {
    if (s.label == label) return s;
  }
  WSR_ASSERT(false, "missing series");
  return series.front();
}

double max_measured_speedup(const Series& vendor, const Series& challenger) {
  WSR_ASSERT(vendor.points.size() == challenger.points.size(),
             "series sweeps differ");
  double best = 0;
  for (std::size_t i = 0; i < vendor.points.size(); ++i) {
    const i64 v = vendor.points[i].measured;
    const i64 c = challenger.points[i].measured;
    if (v <= 0 || c <= 0) continue;
    best = std::max(best, static_cast<double>(v) / static_cast<double>(c));
  }
  return best;
}

void flow_series_cells(SweepRunner& runner, Series& s,
                       const registry::AlgorithmDescriptor& desc,
                       const std::vector<std::pair<GridShape, u32>>& points,
                       const registry::PlanContext& ctx) {
  s.points.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [grid, b] = points[i];
    runner.cell(&s.points[i], [&desc, &ctx, grid, b] {
      return Measurement{flow_cycles(desc.build(grid, b, ctx)),
                         desc.cost(grid, b, ctx).cycles};
    });
  }
}

i64 measured_cycles(const wse::Schedule& s, i64 predicted,
                    i64 fabric_budget_cycles, bool is_broadcast) {
  const i64 pe_cycles = predicted * static_cast<i64>(s.grid.num_pes());
  if (predicted <= fabric_budget_cycles && pe_cycles <= 200'000'000) {
    return fabric_cycles(s, is_broadcast);
  }
  return flow_cycles(s);
}

i64 measured_cycles(const wse::Schedule& s, i64 predicted,
                    runtime::Semantic semantic, i64 fabric_budget_cycles) {
  const i64 pe_cycles = predicted * static_cast<i64>(s.grid.num_pes());
  if (predicted <= fabric_budget_cycles && pe_cycles <= 200'000'000) {
    return fabric_cycles(s, semantic);
  }
  return flow_cycles(s);
}

i64 xy_composed_cycles(const std::function<wse::Schedule(u32)>& lane_schedule,
                       GridShape grid) {
  const i64 row = flow_cycles(lane_schedule(grid.width));
  // Square grids: the column lane is the identical schedule (the simulator
  // is deterministic), so build + simulate it once.
  const i64 col =
      grid.height == grid.width ? row : flow_cycles(lane_schedule(grid.height));
  return row + col;
}

// --- synthetic bench schedules ----------------------------------------------

wse::Schedule make_busy_root_star(u32 num_pes, u32 vec_len, u32 busy_sends) {
  const u32 busy_len = busy_sends * vec_len;
  wse::Schedule s =
      collectives::make_reduce_1d(ReduceAlgo::Star, num_pes, vec_len);
  const wse::Color busy_c = 9;  // unused by the Star builder
  auto& root = s.programs[0];
  const u32 busy_op = root.add(wse::Op::send(busy_c, busy_len));
  root.ops[0].deps.push_back(busy_op);  // the incast recv waits for it
  s.add_rule(0, wse::RouteRule{busy_c, Dir::Ramp, dir_bit(Dir::East),
                               busy_len});
  // PE 1 consumes the stream; AddModulo keeps its memory at vec_len.
  s.programs[1].add(
      wse::Op::recv(busy_c, busy_len, wse::RecvMode::AddModulo, 0, vec_len));
  s.add_rule(1, wse::RouteRule{busy_c, Dir::West, dir_bit(Dir::Ramp),
                               busy_len});
  s.name = "busy-root-star";
  return s;
}

std::vector<std::vector<float>> busy_root_star_inputs(const wse::Schedule& s,
                                                      u32 vec_len,
                                                      u32 busy_sends) {
  auto inputs = wse::make_inputs(s, runtime::canonical_input);
  inputs[0].resize(std::size_t{busy_sends} * vec_len, 0.0f);
  return inputs;
}

// --- the sweep engine -------------------------------------------------------

BenchOptions BenchOptions::parse(int argc, char** argv) {
  const auto usage = [&](const char* complaint, const char* what) {
    std::fprintf(stderr,
                 "%s '%s'\nusage: %s [--jobs N] [--json PATH] [--repeat N]\n",
                 complaint, what, argv[0]);
    std::exit(2);
  };
  const auto parse_num = [&](const char* flag, const char* text) -> u32 {
    char* end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || v > UINT32_MAX) {
      char complaint[64];
      std::snprintf(complaint, sizeof complaint, "%s needs a u32, got",
                    flag);
      usage(complaint, text);
    }
    return static_cast<u32>(v);
  };

  BenchOptions opt;
  if (const char* env = std::getenv("WSR_BENCH_JOBS")) {
    opt.jobs = parse_num("WSR_BENCH_JOBS", env);
  }
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for", a);
      return argv[++i];
    };
    if (std::strcmp(a, "--jobs") == 0) {
      opt.jobs = parse_num(a, value());
    } else if (std::strcmp(a, "--json") == 0) {
      opt.json_path = value();
    } else if (std::strcmp(a, "--repeat") == 0) {
      opt.repeat = parse_num(a, value());
      if (opt.repeat == 0) opt.repeat = 1;
    } else {
      usage("unknown flag", a);
    }
  }
  return opt;
}

void SweepRunner::cell(Measurement* slot, std::function<Measurement()> fn) {
  tasks_.push_back([slot, fn = std::move(fn)] { *slot = fn(); });
}

void SweepRunner::task(std::function<void()> fn) {
  tasks_.push_back(std::move(fn));
}

void SweepRunner::run() {
  std::vector<std::function<void()>> tasks;
  tasks.swap(tasks_);
  double best = 0;
  for (u32 r = 0; r < repeat_; ++r) {
    const i64 t0 = now_ns();
    parallel_for_index(tasks.size(), jobs_,
                       [&](std::size_t i) { tasks[i](); });
    const double pass = static_cast<double>(now_ns() - t0) * 1e-9;
    best = r == 0 ? pass : std::min(best, pass);
  }
  sweep_seconds_ += best;
}

// --- reporting --------------------------------------------------------------

Bench::Bench(int argc, char** argv, std::string name)
    : name_(std::move(name)),
      options_(BenchOptions::parse(argc, argv)),
      runner_(options_.jobs, options_.repeat),
      start_ns_(now_ns()) {
#ifdef __GLIBC__
  // Wafer-scale cells allocate and free the same multi-hundred-MB simulator
  // state once per sweep point. glibc serves those blocks with mmap and
  // returns them on free, so every cell re-faults every page — at 512x512
  // that is over a second of pure kernel time per figure. Keeping the
  // blocks in the arena (no mmap, no trim) makes the reuse free; bench
  // processes are short-lived, so peak RSS staying at the high-water mark
  // is the right trade.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
#endif
}

void Bench::figure(const std::string& title, const std::string& axis_name,
                   const std::vector<std::string>& axis_labels,
                   const std::vector<Series>& series, const MachineParams& mp) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-10s", axis_name.c_str());
  for (const Series& s : series) std::printf(" | %-24s", s.label.c_str());
  std::printf("\n%-10s", "");
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::printf(" | %10s %12s", "meas(cyc)", "pred(cyc)");
  }
  std::printf("\n");
  for (std::size_t row = 0; row < axis_labels.size(); ++row) {
    std::printf("%-10s", axis_labels[row].c_str());
    for (const Series& s : series) {
      const Measurement& m = s.points[row];
      if (m.measured >= 0) {
        std::printf(" | %10lld %12lld", static_cast<long long>(m.measured),
                    static_cast<long long>(m.predicted));
      } else {
        std::printf(" | %10s %12lld", "-", static_cast<long long>(m.predicted));
      }
    }
    std::printf("\n");
  }
  // Per-series summary: microseconds at the largest point + mean error over
  // the simulated points (never-simulated points are excluded, not counted
  // as perfect).
  std::printf("%-10s", "us@max");
  for (const Series& s : series) {
    const Measurement& m = s.points.back();
    const double us = mp.cycles_to_us(m.measured >= 0 ? m.measured : m.predicted);
    std::printf(" | %10.2f %12s", us, "");
  }
  std::printf("\n%-10s", "mean err");
  for (const Series& s : series) {
    if (const auto err = mean_err(s.points)) {
      std::printf(" | %9.1f%% %12s", 100.0 * *err, "");
    } else {
      std::printf(" | %10s %12s", "pred-only", "");
    }
  }
  std::printf("\n");

  if (!figures_json_.empty()) figures_json_ += ",";
  figures_json_ +=
      "{\"title\":" + json_str(title) + ",\"axis\":" + json_str(axis_name) +
      ",\"labels\":" + json_array(axis_labels, json_str) + ",\"series\":" +
      json_array(series, [](const Series& s) {
        return "{\"label\":" + json_str(s.label) + ",\"measured\":" +
               json_array(s.points,
                          [](const Measurement& m) {
                            return std::to_string(m.measured);
                          }) +
               ",\"predicted\":" +
               json_array(s.points,
                          [](const Measurement& m) {
                            return std::to_string(m.predicted);
                          }) +
               "}";
      }) +
      "}";
}

void Bench::heatmap(const std::string& title, const std::vector<u32>& pe_rows,
                    const std::vector<u32>& b_cols,
                    const std::vector<std::vector<double>>& values) {
  WSR_ASSERT(values.size() == pe_rows.size(), "heatmap row count mismatch");
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%8s", "PEs\\B");
  for (u32 b : b_cols) std::printf(" %6s", bytes_label(b).c_str());
  std::printf("\n");
  for (std::size_t r = pe_rows.size(); r-- > 0;) {
    std::printf("%7ux1", pe_rows[r]);
    for (std::size_t c = 0; c < b_cols.size(); ++c) {
      std::printf(" %6.1f", values[r][c]);
    }
    std::printf("\n");
  }

  if (!heatmaps_json_.empty()) heatmaps_json_ += ",";
  const auto u32s = [](u32 v) { return std::to_string(v); };
  heatmaps_json_ +=
      "{\"title\":" + json_str(title) + ",\"rows\":" +
      json_array(pe_rows, u32s) + ",\"cols\":" + json_array(b_cols, u32s) +
      ",\"values\":" + json_array(values, [](const std::vector<double>& row) {
        return json_array(row, json_num);
      }) +
      "}";
}

void Bench::regions(
    const std::string& title, const std::vector<u32>& pe_rows,
    const std::vector<u32>& b_cols,
    const std::vector<std::vector<std::pair<std::string, double>>>& cells) {
  WSR_ASSERT(cells.size() == pe_rows.size(), "region row count mismatch");
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%10s", "PEs\\B");
  for (u32 b : b_cols) std::printf(" %15s", bytes_label(b).c_str());
  std::printf("\n");
  for (std::size_t r = pe_rows.size(); r-- > 0;) {
    std::printf("%10u", pe_rows[r]);
    for (std::size_t c = 0; c < b_cols.size(); ++c) {
      const auto& [label, speedup] = cells[r][c];
      char cell[32];
      std::snprintf(cell, sizeof cell, "%s %.2fx", label.c_str(), speedup);
      std::printf(" %15s", cell);
    }
    std::printf("\n");
  }

  if (!regions_json_.empty()) regions_json_ += ",";
  const auto u32s = [](u32 v) { return std::to_string(v); };
  regions_json_ +=
      "{\"title\":" + json_str(title) + ",\"rows\":" +
      json_array(pe_rows, u32s) + ",\"cols\":" + json_array(b_cols, u32s) +
      ",\"cells\":" +
      json_array(cells,
                 [](const std::vector<std::pair<std::string, double>>& row) {
                   return json_array(
                       row, [](const std::pair<std::string, double>& cell) {
                         return "{\"algo\":" + json_str(cell.first) +
                                ",\"speedup\":" + json_num(cell.second) + "}";
                       });
                 }) +
      "}";
}

void Bench::headline(const std::string& what, double ours, double paper) {
  std::printf("\n>>> %s: %.2fx (paper reports %.2fx)\n", what.c_str(), ours,
              paper);
  if (!headlines_json_.empty()) headlines_json_ += ",";
  headlines_json_ += "{\"what\":" + json_str(what) + ",\"value\":" +
                     json_num(ours) + ",\"paper\":" + json_num(paper) + "}";
}

void Bench::metric(const std::string& what, double value) {
  std::printf("\n>>> %s: %.2fx\n", what.c_str(), value);
  if (!headlines_json_.empty()) headlines_json_ += ",";
  headlines_json_ +=
      "{\"what\":" + json_str(what) + ",\"value\":" + json_num(value) + "}";
}

int Bench::finish() {
  // With --repeat N the reported time is the accumulated minimum sweep time
  // (stable across runs, what CI gates on); the plain wall clock otherwise.
  const double wall_s =
      options_.repeat > 1
          ? runner_.sweep_seconds()
          : static_cast<double>(now_ns() - start_ns_) * 1e-9;
  if (options_.repeat > 1) {
    std::printf("\n[%s] sweep time %.2f s (min of %u repeats, jobs=%u)\n",
                name_.c_str(), wall_s, options_.repeat, options_.jobs);
  } else {
    std::printf("\n[%s] wall time %.2f s (jobs=%u)\n", name_.c_str(), wall_s,
                options_.jobs);
  }
  if (options_.json_path.empty()) return 0;

  std::string out = "{\"bench\":" + json_str(name_) +
                    ",\"jobs\":" + std::to_string(options_.jobs) +
                    ",\"fabric_stepping\":" +
                    json_str(std::string(wse::stepping_mode_name(
                        wse::FabricOptions{}.stepping))) +
                    ",\"repeat\":" + std::to_string(options_.repeat) +
                    ",\"wall_seconds\":" + json_num(wall_s) +
                    ",\"figures\":[" + figures_json_ + "]" +
                    ",\"heatmaps\":[" + heatmaps_json_ + "]" +
                    ",\"regions\":[" + regions_json_ + "]" +
                    ",\"headlines\":[" + headlines_json_ + "]}\n";
  std::FILE* f = std::fopen(options_.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options_.json_path.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return 0;
}

}  // namespace wsr::bench
