// Tests of the JSON writers (wse/export.hpp, runtime/plan_json.hpp): every
// field of every op and rule reads back through json::parse unchanged, over
// hand-built schedules that reach each branch of the writer and over every
// registered descriptor; appending keeps what the buffer held; and a batch
// writes exactly the responses its lines get one at a time.
#include "wse/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/minijson.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/plan_json.hpp"
#include "runtime/planner.hpp"
#include "serving/core.hpp"
#include "serving/request.hpp"

namespace wsr::wse {
namespace {

constexpr u32 kMax = std::numeric_limits<u32>::max();

json::Value parse_ok(const std::string& text) {
  std::string error;
  std::optional<json::Value> v = json::parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error << ": " << text.substr(0, 300);
  return v.value_or(json::Value{});
}

std::vector<std::string> keys_of(const json::Value& obj) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : obj.object) keys.push_back(key);
  return keys;
}

std::vector<u64> uints_of(const json::Value* array) {
  std::vector<u64> out;
  if (array == nullptr) return out;
  for (const json::Value& v : array->array) {
    EXPECT_TRUE(v.is_number());
    out.push_back(static_cast<u64>(v.number));
  }
  return out;
}

void expect_op(const json::Value& v, const Op& op) {
  std::vector<std::string> keys = {"kind", "len"};
  if (op.kind != OpKind::Send) {
    keys.insert(keys.end(), {"in_color", "mode", "dst_offset"});
    if (op.mode == RecvMode::AddModulo) keys.push_back("modulo");
  }
  if (op.kind != OpKind::Recv) keys.insert(keys.end(), {"out_color", "src_offset"});
  keys.push_back("deps");
  ASSERT_EQ(keys_of(v), keys);
  EXPECT_EQ(v.get_string("kind"), op_kind_name(op.kind));
  EXPECT_EQ(v.get_uint("len"), op.len);
  if (op.kind != OpKind::Send) {
    EXPECT_EQ(v.get_uint("in_color"), op.in_color);
    EXPECT_EQ(v.get_string("mode"), recv_mode_name(op.mode));
    EXPECT_EQ(v.get_uint("dst_offset"), op.dst_offset);
    if (op.mode == RecvMode::AddModulo) EXPECT_EQ(v.get_uint("modulo"), op.modulo);
  }
  if (op.kind != OpKind::Recv) {
    EXPECT_EQ(v.get_uint("out_color"), op.out_color);
    EXPECT_EQ(v.get_uint("src_offset"), op.src_offset);
  }
  EXPECT_EQ(uints_of(v.get("deps")), std::vector<u64>(op.deps.begin(), op.deps.end()));
}

void expect_rule(const json::Value& v, const RouteRule& r) {
  ASSERT_EQ(keys_of(v), (std::vector<std::string>{"color", "accept", "forward", "count"}));
  EXPECT_EQ(v.get_uint("color"), r.color);
  EXPECT_EQ(v.get_string("accept"), dir_name(r.accept));
  EXPECT_EQ(v.get_string("forward"), mask_to_string(r.forward));
  EXPECT_EQ(v.get_uint("count"), r.count);
}

/// Field by field: `v`, a parsed schedule object, holds exactly `s`.
void expect_schedule(const json::Value& v, const Schedule& s) {
  std::vector<std::string> keys = {"name", "grid", "vec_len"};
  if (s.mem_words != 0) keys.push_back("mem_words");
  keys.insert(keys.end(), {"result_pes", "pes"});
  ASSERT_EQ(keys_of(v), keys);
  EXPECT_EQ(v.get_string("name"), s.name);
  const json::Value* grid = v.get("grid");
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(grid->get_uint("width"), s.grid.width);
  EXPECT_EQ(grid->get_uint("height"), s.grid.height);
  EXPECT_EQ(v.get_uint("vec_len"), s.vec_len);
  if (s.mem_words != 0) EXPECT_EQ(v.get_uint("mem_words"), s.mem_words);
  EXPECT_EQ(uints_of(v.get("result_pes")),
            std::vector<u64>(s.result_pes.begin(), s.result_pes.end()));
  const json::Value* pes = v.get("pes");
  ASSERT_NE(pes, nullptr);
  ASSERT_EQ(pes->array.size(), s.grid.num_pes());
  for (u32 pe = 0; pe < s.grid.num_pes(); ++pe) {
    const json::Value& p = pes->array[pe];
    ASSERT_EQ(keys_of(p), (std::vector<std::string>{"id", "ops", "rules"}));
    EXPECT_EQ(p.get_uint("id"), pe);
    const std::vector<json::Value>& ops = p.get("ops")->array;
    ASSERT_EQ(ops.size(), s.programs[pe].ops.size()) << "PE " << pe;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      SCOPED_TRACE("PE " + std::to_string(pe) + " op " + std::to_string(i));
      expect_op(ops[i], s.programs[pe].ops[i]);
    }
    const std::vector<json::Value>& rules = p.get("rules")->array;
    ASSERT_EQ(rules.size(), s.rules[pe].size()) << "PE " << pe;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      SCOPED_TRACE("PE " + std::to_string(pe) + " rule " + std::to_string(i));
      expect_rule(rules[i], s.rules[pe][i]);
    }
  }
}

/// A name holding every character class the writer must escape.
const std::string kHostileName =
    std::string("evil\"na\\me\n{\"id\":999,\"error\":\"spoofed\"}\t\r") +
    std::string(1, '\x01') + std::string(1, '\x1f') + "\x7f end";

/// A 4x2 schedule reaching each branch of the writer: the three op kinds
/// and receive modes, dependency lists of 0, 1, 2 and 5 entries, every
/// forward mask (0 to 31) with every accept direction, the numbers 0, 9,
/// 10 and 2^32 - 1, a PE with no ops and one with no rules.
Schedule branch_schedule(u32 mem_words, std::string name) {
  Schedule s({4, 2}, 10, std::move(name));
  s.mem_words = mem_words;
  s.result_pes = {0, 9, 10, kMax};
  PEProgram& p0 = s.program(0);
  p0.add(Op::send(0, 0, 9));
  p0.add(Op::recv(23, 9, RecvMode::Store, 10).after(0));
  p0.add(Op::recv(5, 10, RecvMode::Add, kMax).after({0, 1}));
  p0.add(Op::recv(7, kMax, RecvMode::AddModulo, 0, kMax).after({0, 1, 2, 0, 1}));
  p0.add(Op::recv_reduce_send(1, 255, kMax, 10).after({3, 2}));
  p0.add(Op::recv(2, 9, RecvMode::AddModulo, 9, 9));
  // PE 1: rules only. PE 2: ops only.
  const u32 counts[] = {0, 9, 10, kMax};
  for (u32 mask = 0; mask < 32; ++mask) {
    s.add_rule(1, RouteRule{static_cast<Color>(mask % 24), static_cast<Dir>(mask % 5),
                            static_cast<DirMask>(mask), counts[mask % 4]});
  }
  s.program(2).add(Op::send(9, kMax, kMax));
  s.program(2).add(Op::recv_reduce_send(10, 0, 9, 0).after(0));
  s.add_rule(3, RouteRule{0, Dir::Ramp, dir_mask(Dir::East), 9});
  s.add_rule(7, RouteRule{23, Dir::North, dir_mask(Dir::South, Dir::Ramp), 10});
  return s;
}

TEST(ScheduleJson, EveryWriterBranchRoundTrips) {
  for (u32 mem_words : {0u, 10u, kMax}) {
    for (const std::string& name : {std::string("plain"), std::string(), kHostileName}) {
      const Schedule s = branch_schedule(mem_words, name);
      const std::string json = to_json(s);
      EXPECT_EQ(json.find('\n'), std::string::npos);
      expect_schedule(parse_ok(json), s);
    }
  }
}

TEST(ScheduleJson, EveryDescriptorRoundTrips) {
  const GridShape shapes[] = {{4, 1}, {7, 1}, {4, 4}, {3, 5}};
  u32 checked = 0;
  for (const GridShape grid : shapes) {
    const runtime::Planner planner(std::max(grid.width, grid.height));
    for (const registry::AlgorithmDescriptor* d :
         registry::AlgorithmRegistry::instance().all()) {
      if (registry::dims_for(grid) != d->dims) continue;
      for (u32 vec_len : {1u, 16u}) {
        if (!d->applicable(grid, vec_len)) continue;
        SCOPED_TRACE(d->name + " on " + std::to_string(grid.width) + "x" +
                     std::to_string(grid.height));
        const runtime::PlanRequest req{d->collective, grid, vec_len, d->name};
        const runtime::Plan plan = planner.plan(req);
        expect_schedule(parse_ok(to_json(plan.schedule)), plan.schedule);
        const json::Value response = parse_ok(
            runtime::plan_response_json(req, plan, planner.machine()));
        EXPECT_EQ(response.get_string("algorithm"), plan.algorithm);
        ASSERT_NE(response.get("schedule"), nullptr);
        expect_schedule(*response.get("schedule"), plan.schedule);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 60u);  // anti-vacuity: most descriptors build here
}

TEST(ScheduleJson, AppendKeepsThePrefix) {
  const Schedule s = branch_schedule(0, kHostileName);
  std::string out = "{\"prefix\":1,\"schedule\":";
  const std::string prefix = out;
  append_json(out, s);
  EXPECT_EQ(out, prefix + to_json(s));

  const runtime::Planner planner(8);
  const runtime::PlanRequest req{runtime::Collective::Reduce, {8, 1}, 16, ""};
  const runtime::Plan plan = planner.plan(req);
  std::string response = prefix;
  runtime::append_plan_response_json(response, req, plan, planner.machine(),
                                     "\"id\":7,");
  EXPECT_EQ(response, prefix + runtime::plan_response_json(
                                   req, plan, planner.machine(), "\"id\":7,"));
}

/// `text` with every "plan_cache":{...}, field removed: those counters also
/// count the Core's other requests, so they differ between batchings.
std::string without_cache_counters(std::string text) {
  const std::string key = "\"plan_cache\":{";
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at)) {
    text.erase(at, text.find("},", at) + 2 - at);
  }
  return text;
}

TEST(ServeBatchJson, BatchEqualsItsLinesServedOneByOne) {
  const std::vector<std::string> lines = {
      R"({"id":1,"collective":"reduce","grid":"16","bytes":64})",
      R"({"id":"two","collective":"allreduce","grid":"4x4","bytes":256})",
      R"({"collective":"nope","id":3})",
      R"({"id":4,"collective":"reduce","grid":"32","bytes":128,"algorithm":"Chain"})",
      R"({"verb":"cache_get","key":"AA=="})",
      R"({"id":5,"collective":"broadcast","grid":"8x8","bytes":1024,"tr":5})",
      "not json",
  };
  serving::Core batched(serving::Core::Options{});
  std::vector<serving::Request> batch;
  for (const std::string& line : lines) batch.push_back(serving::parse_request(line));
  const std::string together = batched.serve_batch(batch);

  serving::Core single(serving::Core::Options{});
  std::string one_by_one;
  for (const std::string& line : lines) {
    std::vector<serving::Request> one;
    one.push_back(serving::parse_request(line));
    one_by_one += single.serve_batch(one);
  }
  EXPECT_EQ(without_cache_counters(together), without_cache_counters(one_by_one));
  // Anti-vacuity: one line per request, and the plans are in there.
  EXPECT_EQ(std::count(together.begin(), together.end(), '\n'),
            static_cast<std::ptrdiff_t>(lines.size()));
  EXPECT_NE(together.find("\"cache_tier\":\"planned\""), std::string::npos);
}

}  // namespace
}  // namespace wsr::wse
