// FabricSim stepping-mode parity: the Simd production engine must be
// *bit-identical* to the FullScan oracle (scan every PE every cycle) — same
// cycle counts, same per-op completion cycles, same memories, same
// energy/contention counters — across every schedule pattern the library
// generates, on pristine and on degraded fabrics. Any divergence means a
// missed wake-up, a changed arbitration order or a mis-paced throttled
// link; this suite is the contract that lets every other test and bench
// run on the Simd engine.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/midroot.hpp"
#include "common/link_override.hpp"
#include "harness.hpp"
#include "runtime/verify.hpp"
#include "wse/checks.hpp"
#include "wse/fabric.hpp"

namespace wsr {
namespace {

const MachineParams kMp{};

using Inputs = std::vector<std::vector<float>>;

/// Runs `s` on both engines under the same options and expects every
/// observable output to be equal; returns the oracle's cycle count.
i64 expect_bit_identical(const wse::Schedule& s, const Inputs& inputs,
                         wse::FabricOptions opt = {},
                         const std::string& what = "") {
  opt.stepping = wse::SteppingMode::FullScan;
  const wse::FabricResult base = wse::run_fabric(s, inputs, opt);
  opt.stepping = wse::SteppingMode::Simd;
  const wse::FabricResult r = wse::run_fabric(s, inputs, opt);
  const std::string label = s.name + what;
  EXPECT_EQ(r.cycles, base.cycles) << label;
  EXPECT_EQ(r.wavelet_hops, base.wavelet_hops) << label;
  EXPECT_EQ(r.max_pe_ramp_wavelets, base.max_pe_ramp_wavelets) << label;
  EXPECT_EQ(r.op_done_cycle, base.op_done_cycle) << label;
  EXPECT_EQ(r.memory, base.memory) << label;
  return base.cycles;
}

i64 expect_bit_identical(const wse::Schedule& s, wse::FabricOptions opt = {},
                         const std::string& what = "") {
  return expect_bit_identical(
      s, wse::make_inputs(s, runtime::canonical_input), opt, what);
}

TEST(FabricParity, Broadcast1D) {
  for (u32 p : {2u, 16u, 128u}) {
    for (u32 b : {1u, 64u, 1024u}) {
      expect_bit_identical(collectives::make_broadcast_1d(p, b));
    }
  }
}

TEST(FabricParity, ReduceAndAllReduce1D) {
  static autogen::AutoGenModel model(96, kMp);
  for (ReduceAlgo a : {ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree,
                       ReduceAlgo::TwoPhase, ReduceAlgo::AutoGen}) {
    for (u32 p : {2u, 5u, 16u, 48u, 96u}) {
      for (u32 b : {1u, 16u, 256u}) {
        expect_bit_identical(collectives::make_reduce_1d(a, p, b, &model));
        expect_bit_identical(collectives::make_allreduce_1d(a, p, b, &model));
      }
    }
  }
}

TEST(FabricParity, Ring) {
  for (auto m : {collectives::RingMapping::Simple,
                 collectives::RingMapping::DistancePreserving}) {
    for (u32 p : {4u, 8u, 16u}) {
      for (u32 mult : {1u, 8u}) {
        expect_bit_identical(collectives::make_ring_allreduce_1d(p, p * mult, m));
      }
    }
  }
}

TEST(FabricParity, MidRoot) {
  for (u32 p : {4u, 16u, 33u, 64u}) {
    for (u32 b : {1u, 64u, 512u}) {
      expect_bit_identical(collectives::make_allreduce_1d_midroot(p, b));
    }
  }
}

TEST(FabricParity, TwoD) {
  static autogen::AutoGenModel model(16, kMp);
  for (GridShape g : {GridShape{4, 4}, GridShape{8, 5}, GridShape{16, 16}}) {
    for (u32 b : {1u, 64u}) {
      expect_bit_identical(collectives::make_broadcast_2d(g, b));
      expect_bit_identical(collectives::make_reduce_2d_snake(g, b));
      expect_bit_identical(collectives::make_allreduce_2d_snake_bcast(g, b));
      for (ReduceAlgo a :
           {ReduceAlgo::Star, ReduceAlgo::Chain, ReduceAlgo::Tree,
            ReduceAlgo::TwoPhase, ReduceAlgo::AutoGen}) {
        expect_bit_identical(collectives::make_reduce_2d_xy(a, g, b, &model));
        expect_bit_identical(collectives::make_allreduce_2d_xy(a, g, b, &model));
      }
    }
  }
}

TEST(FabricParity, XYRing2D) {
  for (GridShape g : {GridShape{4, 4}, GridShape{8, 8}}) {
    expect_bit_identical(
        collectives::make_allreduce_2d_xy_ring(g, g.width * g.height));
  }
}

// The contention-bound shape stall-cause parking exists for: a deep incast
// where most occupied registers are parked on a routing rule that has not
// activated yet. Parity here exercises rule-advance wakes, queue-pop wakes
// and multi-hundred-register cascade closures in one schedule.
TEST(FabricParity, DeepIncastStar) {
  for (u32 p : {128u, 256u}) {
    for (u32 b : {4u, 32u}) {
      expect_bit_identical(collectives::make_reduce_1d(ReduceAlgo::Star, p, b));
    }
  }
}

// The micro_machinery acceptance cell (bench::make_busy_root_star — the
// same builder the bench runs): a Star incast whose root is still streaming
// a previous result out, so the entire incast line sits parked behind a
// full ingress queue until the root's egress op completes — the wake must
// then unwind the whole parked cascade with cycle-exact timing.
TEST(FabricParity, BusyRootIncast) {
  for (u32 p : {16u, 64u, 128u}) {
    for (u32 busy_sends : {8u, 64u}) {
      const u32 b = 4;
      const wse::Schedule s = bench::make_busy_root_star(p, b, busy_sends);
      expect_bit_identical(s, bench::busy_root_star_inputs(s, b, busy_sends),
                           {}, " P=" + std::to_string(p));
    }
  }
}

TEST(FabricParity, NonDefaultRampLatency) {
  // The fast-forward and wake-up machinery depends on T_R; sweep it.
  for (u32 tr : {1u, 3u, 7u}) {
    wse::FabricOptions opt;
    opt.ramp_latency = tr;
    expect_bit_identical(
        collectives::make_reduce_1d(ReduceAlgo::TwoPhase, 32, 64), opt,
        " T_R=" + std::to_string(tr));
  }
}

// --- degraded fabrics -------------------------------------------------------
// Simd paces throttled links in place (resolve_chain's link_next_free_
// check), so every override shape must stay bit-identical to the oracle.

/// Every in-grid mesh link of `g`, as an override with factor 0.
std::vector<LinkOverride> in_grid_links(GridShape g) {
  std::vector<LinkOverride> links;
  for (u32 y = 0; y < g.height; ++y) {
    for (u32 x = 0; x < g.width; ++x) {
      for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South}) {
        const LinkOverride o{x, y, d, 0};
        if (override_in_grid(o, g)) links.push_back(o);
      }
    }
  }
  return links;
}

struct Family {
  std::string name;
  wse::Schedule schedule;
};

std::vector<Family> families_for(GridShape g,
                                 const autogen::AutoGenModel& model) {
  constexpr ReduceAlgo kAlgos[] = {ReduceAlgo::Star, ReduceAlgo::Chain,
                                   ReduceAlgo::Tree, ReduceAlgo::TwoPhase,
                                   ReduceAlgo::AutoGen};
  const u32 b = 8;
  std::vector<Family> out;
  if (g.height == 1) {
    const u32 p = g.width;
    out.push_back({"Broadcast 1D", collectives::make_broadcast_1d(p, b)});
    for (ReduceAlgo a : kAlgos) {
      out.push_back({std::string("Reduce 1D ") + name(a),
                     collectives::make_reduce_1d(a, p, b, &model)});
      out.push_back({std::string("AllReduce 1D ") + name(a),
                     collectives::make_allreduce_1d(a, p, b, &model)});
    }
    out.push_back({"MidRoot", collectives::make_allreduce_1d_midroot(p, b)});
    out.push_back(
        {"Ring 1D",
         collectives::make_ring_allreduce_1d(
             p, 2 * p, collectives::RingMapping::DistancePreserving)});
    out.push_back({"AllGather 1D", collectives::make_allgather_1d(p, 4)});
    return out;
  }
  out.push_back({"Broadcast 2D", collectives::make_broadcast_2d(g, b)});
  for (ReduceAlgo a : kAlgos) {
    out.push_back({std::string("X-Y Reduce ") + name(a),
                   collectives::make_reduce_2d_xy(a, g, b, &model)});
    out.push_back({std::string("X-Y AllReduce ") + name(a),
                   collectives::make_allreduce_2d_xy(a, g, b, &model)});
  }
  out.push_back({"Snake Reduce", collectives::make_reduce_2d_snake(g, b)});
  out.push_back({"Snake AllReduce",
                 collectives::make_allreduce_2d_snake_bcast(g, b)});
  out.push_back({"X-Y Ring", collectives::make_allreduce_2d_xy_ring(
                                 g, g.width * g.height)});
  out.push_back({"AllGather 2D", collectives::make_allgather_2d(g, 4)});
  return out;
}

// Every in-grid link of two rows and two grids, one override at a time:
// throttled by each factor, and failed wherever the schedule does not route
// across it (a failed off-path link must leave the run untouched).
TEST(FabricParityDegraded, EverySingleLinkOverride) {
  static autogen::AutoGenModel model(12, kMp);
  std::map<std::string, u32> slowed;  // family -> #cases the throttle slowed
  u32 cases = 0;
  for (GridShape g : {GridShape{5, 1}, GridShape{12, 1}, GridShape{4, 4},
                      GridShape{5, 3}}) {
    for (const Family& f : families_for(g, model)) {
      const Inputs inputs =
          wse::make_inputs(f.schedule, runtime::canonical_input);
      const i64 pristine = expect_bit_identical(f.schedule, inputs);
      slowed.try_emplace(f.name, 0);
      for (LinkOverride o : in_grid_links(g)) {
        for (u32 factor : {0u, 2u, 3u, 5u, 7u}) {
          o.factor = factor;
          wse::FabricOptions opt;
          opt.link_overrides = {o};
          if (o.failed() && wse::schedule_crosses_failed_link(
                                f.schedule, opt.link_overrides)) {
            continue;
          }
          const std::string what = " [" + f.name + " " + to_string(o) + "]";
          const i64 cycles =
              expect_bit_identical(f.schedule, inputs, opt, what);
          ++cases;
          if (o.failed()) {
            EXPECT_EQ(cycles, pristine) << f.name << " " << to_string(o);
          } else {
            EXPECT_GE(cycles, pristine) << f.name << " " << to_string(o);
            slowed[f.name] += cycles > pristine;
          }
          if (HasFailure()) return;  // one diverging case says enough
        }
      }
    }
  }
  // Anti-vacuity: the sweep must actually exercise the pacing path.
  EXPECT_GT(cases, 5000u);
  for (const auto& [family, n] : slowed) {
    EXPECT_GT(n, 0u) << family << ": no override slowed any case";
  }
}

// A deep incast with several throttled links on the inbound line at once:
// pacing stalls interleave with parked cascades and rule-advance wakes.
TEST(FabricParityDegraded, StarIncastWithFourThrottledLinks) {
  const wse::Schedule s = collectives::make_reduce_1d(ReduceAlgo::Star, 64, 16);
  const i64 pristine = expect_bit_identical(s);
  wse::FabricOptions opt;
  opt.link_overrides = {{8, 0, Dir::West, 2},
                        {24, 0, Dir::West, 3},
                        {40, 0, Dir::West, 5},
                        {56, 0, Dir::West, 7}};
  EXPECT_GT(expect_bit_identical(s, opt, " [4 throttled]"), pristine);
}

TEST(FabricParityDegraded, DegradedLinkFabricStaysBitIdentical) {
  const wse::Schedule s =
      collectives::make_reduce_1d(ReduceAlgo::Chain, 8, 16);
  wse::FabricOptions opt;
  opt.link_overrides = {{2, 0, Dir::East, 3}};
  // The degraded run can never beat the pristine one.
  EXPECT_GE(expect_bit_identical(s, opt), expect_bit_identical(s));
}

}  // namespace
}  // namespace wsr
