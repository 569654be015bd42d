// Golden-file pin of FlowSim's cycle counts: one line per case, compared
// byte-for-byte. test_flowsim and the conformance sweep only hold FlowSim
// within bands of FabricSim, so a storage or ordering change that shifts a
// count by a few cycles would pass there; it cannot pass here. Regenerate
// deliberately with
//   WSR_UPDATE_GOLDEN=1 ./test_flowsim_golden
// and only when a timing change is intended.
//
// Cases:
//   * every registered descriptor over conformance::shapes_for x
//     vec_lens_for, at T_R = 2 and T_R = 5, on a pristine fabric and with
//     the first link the schedule routes across throttled 3x;
//   * Star incast rows of 64 and 512 PEs (queues several segments deep);
//   * 64-PE Rings under both mappings (programs of ~2P ops);
//   * 512x512 Snake and Snake+Bcast at B = 64 (wafer scale).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "collectives/collectives.hpp"
#include "conformance.hpp"
#include "flowsim/flowsim.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/planner.hpp"

namespace wsr {
namespace {

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "flowsim_cycles.golden";
}

/// The first mesh link (lowest PE id, then direction) some routing rule
/// forwards across: throttling it is guaranteed to touch the schedule.
std::optional<LinkOverride> first_routed_link(const wse::Schedule& s,
                                              u32 factor) {
  for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
    for (u8 d = 0; d < kNumDirs; ++d) {
      const Dir dir = static_cast<Dir>(d);
      if (dir == Dir::Ramp) continue;
      for (const wse::RouteRule& r : s.rules[pe]) {
        if (!mask_has(r.forward, dir)) continue;
        const Coord c = s.grid.coord(pe);
        return LinkOverride{c.x, c.y, dir, factor};
      }
    }
  }
  return std::nullopt;
}

std::string fabric_label(const std::vector<LinkOverride>& overrides) {
  if (overrides.empty()) return "pristine";
  const LinkOverride& o = overrides.front();
  return "slow=" + std::to_string(o.x) + "," + std::to_string(o.y) + "," +
         dir_name(o.dir) + "," + std::to_string(o.factor);
}

void emit(std::ostream& out, const std::string& label,
          const wse::Schedule& s, u32 tr,
          const std::vector<LinkOverride>& overrides = {}) {
  flowsim::FlowOptions opt;
  opt.ramp_latency = tr;
  opt.link_overrides = overrides;
  out << label << " " << s.grid.width << "x" << s.grid.height
      << " B=" << s.vec_len << " TR=" << tr << " " << fabric_label(overrides)
      << " cycles=" << flowsim::run_flow(s, opt).cycles << "\n";
}

std::string descriptor_label(const registry::AlgorithmDescriptor& d) {
  return std::string(registry::name(d.collective)) + "/" +
         registry::name(d.dims) + "/" + d.name;
}

TEST(FlowSimGolden, CyclesAreStable) {
  std::ostringstream out;
  for (u32 tr : {2u, 5u}) {
    MachineParams mp;
    mp.ramp_latency = tr;
    const runtime::Planner planner(16, mp);
    const registry::PlanContext ctx = planner.context();
    for (const registry::AlgorithmDescriptor* d :
         conformance::all_descriptors()) {
      for (GridShape g : conformance::shapes_for(d->dims)) {
        for (u32 b : conformance::vec_lens_for(g)) {
          if (!d->applicable(g, b)) continue;
          const wse::Schedule s = d->build(g, b, ctx);
          const std::string label = descriptor_label(*d);
          emit(out, label, s, tr);
          const auto slow = first_routed_link(s, 3);
          ASSERT_TRUE(slow.has_value()) << label << " routes nothing";
          emit(out, label, s, tr, {*slow});
        }
      }
    }
    for (u32 p : {64u, 512u}) {
      emit(out, "star-incast",
           collectives::make_reduce_1d(ReduceAlgo::Star, p, 64), tr);
    }
    for (auto m : {collectives::RingMapping::Simple,
                   collectives::RingMapping::DistancePreserving}) {
      emit(out, std::string("ring/") + collectives::name(m),
           collectives::make_ring_allreduce_1d(64, 256, m), tr);
    }
  }
  emit(out, "snake", collectives::make_reduce_2d_snake({512, 512}, 64), 2);
  emit(out, "snake+bcast",
       collectives::make_allreduce_2d_snake_bcast({512, 512}, 64), 2);
  const std::string actual = out.str();

  const std::filesystem::path path = golden_path();
  if (std::getenv("WSR_UPDATE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << actual;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path
                         << " — run once with WSR_UPDATE_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "FlowSim cycles drifted from " << path
      << " — if intentional, regenerate with WSR_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace wsr
