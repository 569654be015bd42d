// Sweep-engine determinism: a figure sweep evaluated on the SweepRunner must
// produce identical Series values at any thread count (each cell writes only
// its own pre-allocated slot; scheduling is dynamic but the outputs are
// pure). This is the contract that lets every fig bench accept --jobs while
// keeping its numeric output byte-identical. One series runs FabricSim
// cells, the other FlowSim cells; the TSan job runs this suite.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "harness.hpp"

namespace wsr {
namespace {

/// A miniature fig12b-style sweep: (algorithm, P) cells, each building a
/// schedule and simulating it on FabricSim.
std::vector<bench::Series> run_sweep(u32 jobs) {
  const MachineParams mp;
  const u32 B = 32;
  const std::vector<u32> pes = {2, 4, 8, 16, 24};
  const ReduceAlgo algos[] = {ReduceAlgo::Star, ReduceAlgo::Chain,
                              ReduceAlgo::Tree, ReduceAlgo::TwoPhase};

  bench::SweepRunner runner(jobs);
  std::vector<bench::Series> series;
  for (ReduceAlgo a : algos) {
    series.push_back(
        {std::string(name(a)), std::vector<bench::Measurement>(pes.size())});
  }
  const runtime::Planner planner(32, mp);
  for (std::size_t ai = 0; ai < std::size(algos); ++ai) {
    const ReduceAlgo a = algos[ai];
    for (std::size_t i = 0; i < pes.size(); ++i) {
      const u32 p = pes[i];
      runner.cell(&series[ai].points[i], [=, &planner] {
        const i64 pred =
            planner.predict({runtime::Collective::Reduce, {p, 1}, B, name(a)})
                .cycles;
        return bench::Measurement{
            bench::measured_cycles(collectives::make_reduce_1d(a, p, B), pred),
            pred};
      });
    }
  }
  runner.run();
  return series;
}

TEST(SweepDeterminism, SeriesIdenticalAtAnyThreadCount) {
  const auto reference = run_sweep(1);
  for (u32 jobs : {2u, 4u, 8u}) {
    const auto parallel = run_sweep(jobs);
    ASSERT_EQ(parallel.size(), reference.size());
    for (std::size_t s = 0; s < reference.size(); ++s) {
      EXPECT_EQ(parallel[s].label, reference[s].label);
      ASSERT_EQ(parallel[s].points.size(), reference[s].points.size());
      for (std::size_t i = 0; i < reference[s].points.size(); ++i) {
        EXPECT_EQ(parallel[s].points[i].measured,
                  reference[s].points[i].measured)
            << reference[s].label << " point " << i << " at jobs=" << jobs;
        EXPECT_EQ(parallel[s].points[i].predicted,
                  reference[s].points[i].predicted)
            << reference[s].label << " point " << i << " at jobs=" << jobs;
      }
    }
  }
}

/// The FlowSim series: fig13* and the wafer sweep run FlowSim cells on
/// several threads at once, so each (shape, B) cell builds its own schedule
/// and simulates it with bench::flow_cycles, like those sweeps do.
std::vector<bench::Series> run_flow_sweep(u32 jobs) {
  const std::vector<u32> bs = {64, 128, 256};
  const std::vector<std::pair<std::string, std::function<wse::Schedule(u32)>>>
      shapes = {
          {"Snake+Bcast 32x32",
           [](u32 b) {
             return collectives::make_allreduce_2d_snake_bcast({32, 32}, b);
           }},
          {"Star incast 256",
           [](u32 b) {
             return collectives::make_reduce_1d(ReduceAlgo::Star, 256, b);
           }},
          {"Ring 64",
           [](u32 b) {
             return collectives::make_ring_allreduce_1d(
                 64, b, collectives::RingMapping::Simple);
           }},
      };
  bench::SweepRunner runner(jobs);
  std::vector<bench::Series> series;
  for (const auto& shape : shapes) {
    series.push_back({shape.first, std::vector<bench::Measurement>(bs.size())});
  }
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    for (std::size_t i = 0; i < bs.size(); ++i) {
      const auto& build = shapes[si].second;
      const u32 b = bs[i];
      runner.cell(&series[si].points[i], [&build, b] {
        return bench::Measurement{bench::flow_cycles(build(b)), 0};
      });
    }
  }
  runner.run();
  return series;
}

TEST(SweepDeterminism, FlowSimSeriesIdenticalAtAnyThreadCount) {
  const auto reference = run_flow_sweep(1);
  for (const bench::Series& s : reference) {
    for (const bench::Measurement& m : s.points) {
      ASSERT_TRUE(m.simulated()) << s.label;
    }
  }
  for (u32 jobs : {2u, 4u, 8u}) {
    const auto parallel = run_flow_sweep(jobs);
    ASSERT_EQ(parallel.size(), reference.size());
    for (std::size_t s = 0; s < reference.size(); ++s) {
      ASSERT_EQ(parallel[s].points.size(), reference[s].points.size());
      for (std::size_t i = 0; i < reference[s].points.size(); ++i) {
        EXPECT_EQ(parallel[s].points[i].measured,
                  reference[s].points[i].measured)
            << reference[s].label << " point " << i << " at jobs=" << jobs;
      }
    }
  }
}

TEST(SweepDeterminism, ParallelForCoversEveryIndexExactlyOnce) {
  for (u32 jobs : {0u, 1u, 3u, 16u}) {
    std::vector<int> hits(1000, 0);
    parallel_for_index(hits.size(), jobs,
                       [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at jobs=" << jobs;
    }
  }
}

TEST(SweepDeterminism, BenchOptionsParsing) {
  {
    char prog[] = "bench", j[] = "--jobs", four[] = "4", js[] = "--json",
         path[] = "/tmp/out.json";
    char* argv[] = {prog, j, four, js, path};
    const auto opt = bench::BenchOptions::parse(5, argv);
    EXPECT_EQ(opt.jobs, 4u);
    EXPECT_EQ(opt.json_path, "/tmp/out.json");
  }
  {
    char prog[] = "bench";
    char* argv[] = {prog};
    const auto opt = bench::BenchOptions::parse(1, argv);
    // Default from WSR_BENCH_JOBS if set, else 1; this test environment
    // does not set it.
    EXPECT_EQ(opt.json_path, "");
  }
}

TEST(SweepDeterminism, MeasurementErrExcludesUnsimulated) {
  // Unsimulated points must not pull the mean toward zero.
  std::vector<bench::Measurement> points = {{100, 110}, {-1, 12345}, {0, 7}};
  EXPECT_FALSE(points[1].simulated());
  EXPECT_FALSE(points[2].simulated());
  const auto err = bench::mean_err(points);
  ASSERT_TRUE(err.has_value());
  EXPECT_DOUBLE_EQ(*err, 0.1);

  // Prediction-only series: no mean at all instead of a fake 0%.
  EXPECT_FALSE(bench::mean_err({{-1, 10}, {-1, 20}}).has_value());
}

}  // namespace
}  // namespace wsr
