// Golden-file pin of the paper's Figure 8 and Figure 10 region maps: for
// every cell of pe_sweep() x vec_len_sweep_wavelets(8192), the fixed
// AllReduce the model predicts fastest (1D rows for Fig. 8, NxN grids for
// Fig. 10), its predicted cycles and the vendor baseline's (Chain+Bcast,
// X-Y Chain). The cells come from bench::region_cell, the same call the two
// figure benches print. A diff here means model-driven selection changed —
// regenerate deliberately with
//   WSR_UPDATE_GOLDEN=1 ./test_regions_golden
// rather than hand-editing the expectation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace wsr {
namespace {

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "regions.golden";
}

void emit(std::ostringstream& out, const char* figure,
          const runtime::Planner& planner, GridShape g, u32 b,
          const char* vendor) {
  const bench::RegionCell cell = bench::region_cell(
      planner, runtime::Collective::AllReduce, g, b, vendor);
  out << figure << " " << g.width << "x" << g.height << " B=" << b
      << " cycles=" << cell.cycles << " vendor=" << cell.vendor_cycles << " "
      << cell.winner << "\n";
}

TEST(RegionsGolden, Fig08AndFig10MapsAreStable) {
  const runtime::Planner planner(512);
  std::ostringstream out;
  for (u32 p : bench::pe_sweep()) {
    for (u32 b : bench::vec_len_sweep_wavelets(8192)) {
      emit(out, "fig08", planner, {p, 1}, b, "Chain+Bcast");
    }
  }
  for (u32 p : bench::pe_sweep()) {
    for (u32 b : bench::vec_len_sweep_wavelets(8192)) {
      emit(out, "fig10", planner, {p, p}, b, "X-Y Chain");
    }
  }
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
      << "region maps drifted from " << path
      << " — if intentional, regenerate with WSR_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace wsr
