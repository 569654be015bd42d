// Golden-file regression of the serving-layer plan JSON: one response per
// registered algorithm (wsr_plan --json and wsrd emit exactly these bytes,
// see runtime/plan_json.hpp). A diff here means the wire format changed —
// bump docs/serving.md and regenerate deliberately with
//   WSR_UPDATE_GOLDEN=1 ./test_plan_golden
// rather than hand-editing the expectation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "conformance.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/plan_json.hpp"
#include "runtime/planner.hpp"

namespace wsr {
namespace {

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "plan_json.golden";
}

/// "fabric_stepping" names the engine in-process verification runs under;
/// the golden file stores it masked, so an engine change alone does not
/// churn the wire-format pin (docs/serving.md documents the value).
std::string mask_stepping(std::string text) {
  const std::string key = "\"fabric_stepping\":\"";
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + key.size())) {
    const std::size_t begin = at + key.size();
    const std::size_t end = text.find('"', begin);
    if (end == std::string::npos) break;
    text.replace(begin, end - begin, "*");
  }
  return text;
}

/// The first applicable (shape, vec_len) of the conformance sweep — the
/// same deterministic order the conformance suite uses, so the golden file
/// pins every algorithm on a stable small case.
bool smallest_case(const registry::AlgorithmDescriptor& d, GridShape* g,
                   u32* vec_len) {
  for (GridShape cand : conformance::shapes_for(d.dims)) {
    for (u32 b : conformance::vec_lens_for(cand)) {
      if (d.applicable(cand, b)) {
        *g = cand;
        *vec_len = b;
        return true;
      }
    }
  }
  return false;
}

TEST(PlanGolden, JsonResponsesAreStable) {
  const MachineParams mp;
  const runtime::Planner planner(16, mp);
  std::ostringstream out;
  for (const registry::AlgorithmDescriptor* d : conformance::all_descriptors()) {
    GridShape g{0, 0};
    u32 B = 0;
    ASSERT_TRUE(smallest_case(*d, &g, &B)) << d->name;
    runtime::PlanRequest req;
    req.collective = d->collective;
    req.grid = g;
    req.vec_len = B;
    req.algorithm = d->name;
    const runtime::Plan plan = planner.plan(req);
    out << runtime::plan_response_json(req, plan, mp);
    if (out.str().empty() || out.str().back() != '\n') out << '\n';
  }
  const std::string actual = mask_stepping(out.str());

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
  EXPECT_EQ(actual, mask_stepping(expected.str()))
      << "plan JSON drifted from " << path
      << " — if intentional, regenerate with WSR_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace wsr
