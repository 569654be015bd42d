// Tests of the persistent plan store (runtime/persistent_plan_cache.hpp)
// and its tiering under PlanCache: bit-identical round-trips across
// reopen, per-request provenance, and — most importantly — the failure
// paths. Every way a store file can be damaged (truncation, bit rot,
// schema bumps, foreign bytes, vanished algorithms) must degrade to a
// clean miss and a re-plan, never to a wrong plan.
#include "runtime/persistent_plan_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "runtime/plan_json.hpp"
#include "wse/export.hpp"

namespace wsr::runtime {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderSize = 16;  // magic(8) + endian(4) + version(4)
constexpr std::size_t kFrameSize = 20;   // magic(4) + size(8) + checksum(8)

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "wsr_pcache_XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Byte offsets [start, end) of each record (frame + payload) in a store
/// image, so tests can corrupt one record surgically.
std::vector<std::pair<std::size_t, std::size_t>> record_spans(
    const std::string& bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t pos = kHeaderSize;
  while (pos + kFrameSize <= bytes.size()) {
    u64 payload = 0;
    for (int i = 0; i < 8; ++i) {
      payload |= u64{static_cast<unsigned char>(bytes[pos + 4 + i])} << (8 * i);
    }
    const std::size_t end = pos + kFrameSize + payload;
    if (end > bytes.size()) break;
    spans.emplace_back(pos, end);
    pos = end;
  }
  return spans;
}

PlanRequest reduce_req(u32 p, u32 b) {
  return {Collective::Reduce, {p, 1}, b, ""};
}

std::vector<PlanRequest> request_mix() {
  return {reduce_req(8, 16), reduce_req(16, 64),
          PlanRequest{Collective::AllReduce, {16, 1}, 64, ""},
          PlanRequest{Collective::AllReduce, {4, 4}, 32, ""},
          PlanRequest{Collective::Broadcast, {8, 1}, 32, ""},
          PlanRequest{Collective::Reduce, {16, 1}, 64, "Chain"}};
}

/// Plans every request through a fresh (memory, disk) pair against `dir`,
/// returning the response JSON each request would serve.
std::vector<std::string> serve_all(const Planner& planner,
                                   const std::string& dir,
                                   std::vector<PlanSource>* sources = nullptr) {
  PersistentPlanCache disk(dir);
  PlanCache memory;
  memory.attach_disk_store(&disk);
  std::vector<std::string> responses;
  for (const PlanRequest& req : request_mix()) {
    PlanSource source = PlanSource::Planned;
    const auto plan = memory.get_or_plan(planner, req, &source);
    if (sources != nullptr) sources->push_back(source);
    responses.push_back(plan_response_json(req, *plan, planner.machine()));
  }
  return responses;
}

TEST(PersistentPlanCache, RoundTripIsBitIdenticalAcrossReopen) {
  TempDir dir;
  const Planner planner(16);

  std::vector<PlanSource> cold_sources;
  const auto cold = serve_all(planner, dir.str(), &cold_sources);
  for (const PlanSource s : cold_sources) EXPECT_EQ(s, PlanSource::Planned);

  // Restart: a fresh process (new store + cache objects) must answer every
  // request from disk with byte-identical responses.
  std::vector<PlanSource> warm_sources;
  const auto warm = serve_all(planner, dir.str(), &warm_sources);
  for (const PlanSource s : warm_sources) EXPECT_EQ(s, PlanSource::DiskHit);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], warm[i]) << "response " << i << " drifted across reopen";
  }
}

TEST(PersistentPlanCache, SecondLookupInOneProcessIsAMemoryHit) {
  TempDir dir;
  const Planner planner(16);
  PersistentPlanCache disk(dir.str());
  PlanCache memory;
  memory.attach_disk_store(&disk);

  PlanSource source = PlanSource::MemoryHit;
  const auto first = memory.get_or_plan(planner, reduce_req(8, 16), &source);
  EXPECT_EQ(source, PlanSource::Planned);
  const auto second = memory.get_or_plan(planner, reduce_req(8, 16), &source);
  EXPECT_EQ(source, PlanSource::MemoryHit);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(memory.hits(), 1u);
  EXPECT_EQ(memory.misses(), 1u);
  EXPECT_EQ(memory.disk_hits(), 0u);
}

TEST(PersistentPlanCache, DiskHitIsPromotedIntoTheMemoryTier) {
  TempDir dir;
  const Planner planner(16);
  {
    PersistentPlanCache disk(dir.str());
    PlanCache memory;
    memory.attach_disk_store(&disk);
    memory.get_or_plan(planner, reduce_req(8, 16));
  }
  PersistentPlanCache disk(dir.str());
  PlanCache memory;
  memory.attach_disk_store(&disk);
  PlanSource source = PlanSource::Planned;
  memory.get_or_plan(planner, reduce_req(8, 16), &source);
  EXPECT_EQ(source, PlanSource::DiskHit);
  memory.get_or_plan(planner, reduce_req(8, 16), &source);
  EXPECT_EQ(source, PlanSource::MemoryHit);
  EXPECT_EQ(memory.disk_hits(), 1u);
  EXPECT_EQ(memory.misses(), 0u);  // nothing was ever planned twice
}

TEST(PersistentPlanCache, TruncatedTailKeepsTheValidPrefix) {
  TempDir dir;
  const Planner planner(16);
  serve_all(planner, dir.str());

  const fs::path store = fs::path(dir.str()) / "plans.wsrpc";
  std::string bytes = read_file(store);
  const auto spans = record_spans(bytes);
  ASSERT_GE(spans.size(), 3u);
  // Tear mid-way through the last record (a crash during append).
  bytes.resize(spans.back().first + (spans.back().second - spans.back().first) / 2);
  write_file(store, bytes);

  PersistentPlanCache reopened(dir.str());
  EXPECT_EQ(reopened.stats().loaded, spans.size() - 1);
  EXPECT_EQ(reopened.stats().load_errors, 1u);

  // The torn record is a clean miss: the full mix replans only that one.
  PlanCache memory;
  memory.attach_disk_store(&reopened);
  for (const PlanRequest& req : request_mix()) {
    memory.get_or_plan(planner, req);
  }
  EXPECT_EQ(memory.misses(), 1u);
  EXPECT_EQ(memory.disk_hits(), request_mix().size() - 1);
}

TEST(PersistentPlanCache, ChecksumMismatchSkipsOnlyThatRecord) {
  TempDir dir;
  const Planner planner(16);
  serve_all(planner, dir.str());

  const fs::path store = fs::path(dir.str()) / "plans.wsrpc";
  std::string bytes = read_file(store);
  const auto spans = record_spans(bytes);
  ASSERT_GE(spans.size(), 3u);
  // Bit rot inside the payload of the middle record.
  const std::size_t victim = spans[1].first + kFrameSize + 5;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  write_file(store, bytes);

  PersistentPlanCache reopened(dir.str());
  EXPECT_EQ(reopened.stats().loaded, spans.size() - 1);
  EXPECT_EQ(reopened.stats().load_errors, 1u);

  // Every surviving record still serves; the rotten one replans. No wrong
  // plan can surface: the re-served responses must match direct planning.
  PlanCache memory;
  memory.attach_disk_store(&reopened);
  for (const PlanRequest& req : request_mix()) {
    const auto plan = memory.get_or_plan(planner, req);
    const Plan direct = planner.plan(req);
    EXPECT_EQ(plan_response_json(req, *plan, planner.machine()),
              plan_response_json(req, direct, planner.machine()));
  }
  EXPECT_EQ(memory.misses(), 1u);
}

TEST(PersistentPlanCache, SchemaVersionBumpIsACleanMissAndRecovers) {
  TempDir dir;
  const Planner planner(16);
  serve_all(planner, dir.str());

  const fs::path store = fs::path(dir.str()) / "plans.wsrpc";
  std::string bytes = read_file(store);
  bytes[12] = 99;  // schema version field (docs/serving.md layout)
  write_file(store, bytes);

  // The whole store is ignored (never misread under the wrong schema)...
  PersistentPlanCache reopened(dir.str());
  EXPECT_EQ(reopened.stats().loaded, 0u);
  EXPECT_GE(reopened.stats().load_errors, 1u);
  EXPECT_EQ(reopened.stats().entries, 0u);

  // ...and the next append atomically rewrites it under the current schema.
  PlanCache memory;
  memory.attach_disk_store(&reopened);
  memory.get_or_plan(planner, reduce_req(8, 16));

  PersistentPlanCache recovered(dir.str());
  EXPECT_EQ(recovered.stats().loaded, 1u);
  EXPECT_EQ(recovered.stats().load_errors, 0u);
  EXPECT_NE(recovered.get(PlanCache::key_for(planner, reduce_req(8, 16))).plan,
            nullptr);
}

TEST(PersistentPlanCache, ForeignFileIsACleanMissAndRecovers) {
  TempDir dir;
  const fs::path store = fs::path(dir.str()) / "plans.wsrpc";
  write_file(store, "definitely not a plan store\n");

  PersistentPlanCache reopened(dir.str());
  EXPECT_EQ(reopened.stats().loaded, 0u);
  EXPECT_GE(reopened.stats().load_errors, 1u);

  const Planner planner(16);
  PlanCache memory;
  memory.attach_disk_store(&reopened);
  memory.get_or_plan(planner, reduce_req(8, 16));
  PersistentPlanCache recovered(dir.str());
  EXPECT_EQ(recovered.stats().loaded, 1u);
}

TEST(PersistentPlanCache, RecordsNamingUnknownAlgorithmsAreSkipped) {
  TempDir dir;
  const Planner planner(16);
  const PlanRequest real = reduce_req(16, 64);
  const Plan plan = planner.plan(real);
  {
    PersistentPlanCache store(dir.str());
    // A record whose key names an algorithm the registry does not know —
    // the round-trip-by-stable-name contract makes it invalid on load.
    PlanKey ghost = PlanCache::key_for(planner, real);
    ghost.algorithm = "Retired-Algorithm";
    store.append(ghost, std::make_shared<const Plan>(plan));
    // And one valid record.
    store.append(PlanCache::key_for(planner, real),
                 std::make_shared<const Plan>(plan));
  }
  PersistentPlanCache reopened(dir.str());
  EXPECT_EQ(reopened.stats().loaded, 1u);
  EXPECT_EQ(reopened.stats().load_errors, 1u);
  EXPECT_NE(reopened.get(PlanCache::key_for(planner, real)).plan, nullptr);
}

TEST(PersistentPlanCache, ConcurrentWritersLoseNoValidRecords) {
  TempDir dir;
  const Planner planner(32);
  // Two store instances simulate two processes (separate in-process
  // mutexes, shared flock); four threads hammer both with overlapping
  // shapes so appends genuinely interleave.
  PersistentPlanCache store_a(dir.str());
  PersistentPlanCache store_b(dir.str());
  const std::vector<PlanRequest> shapes = {
      reduce_req(4, 16),  reduce_req(8, 16),  reduce_req(8, 64),
      reduce_req(16, 16), reduce_req(16, 64), reduce_req(32, 16),
      reduce_req(32, 64), reduce_req(24, 32)};

  std::vector<std::thread> threads;
  for (u32 t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      PersistentPlanCache& store = (t % 2 == 0) ? store_a : store_b;
      for (u32 i = 0; i < shapes.size(); ++i) {
        const PlanRequest& req = shapes[(i + t) % shapes.size()];
        store.append(PlanCache::key_for(planner, req),
                     std::make_shared<const Plan>(planner.plan(req)));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Reopen: every shape must load cleanly (duplicates collapse first-wins;
  // flock-serialized appends mean no interleaved/torn records).
  PersistentPlanCache reopened(dir.str());
  EXPECT_EQ(reopened.stats().load_errors, 0u);
  EXPECT_EQ(reopened.stats().entries, shapes.size());
  for (const PlanRequest& req : shapes) {
    const auto restored = reopened.get(PlanCache::key_for(planner, req)).plan;
    ASSERT_NE(restored, nullptr);
    const Plan direct = planner.plan(req);
    EXPECT_EQ(restored->algorithm, direct.algorithm);
    EXPECT_EQ(restored->prediction.cycles, direct.prediction.cycles);
    EXPECT_EQ(wse::to_json(restored->schedule), wse::to_json(direct.schedule));
  }
}

TEST(PersistentPlanCache, EmptyAndMissingStoresLoadCleanly) {
  TempDir dir;
  PersistentPlanCache fresh(dir.str() + "/fresh_subdir");  // dir is created
  EXPECT_EQ(fresh.stats().entries, 0u);

  // A zero-byte file (crash before the header landed) is also clean.
  write_file(fs::path(dir.str()) / "plans.wsrpc", "");
  PersistentPlanCache empty(dir.str());
  EXPECT_EQ(empty.stats().entries, 0u);
  EXPECT_EQ(empty.stats().load_errors, 0u);
}

TEST(PersistentPlanCache, LoadCompactsWhenDeadBytesExceedHalfTheFile) {
  TempDir dir;
  const Planner planner(16);
  serve_all(planner, dir.str());  // seed: one record per request

  const fs::path store = fs::path(dir.str()) / "plans.wsrpc";
  const std::string clean = read_file(store);
  const auto spans = record_spans(clean);
  ASSERT_FALSE(spans.empty());

  // Simulate racing writers: re-append whole copies of every record until
  // duplicates (dead bytes on load — first record wins) exceed half the
  // file. Duplicated records are valid, so this is pure dead weight.
  std::string bloated = clean;
  while (bloated.size() < 2 * clean.size() + 1) {
    for (const auto& [start, end] : spans) {
      bloated.append(clean, start, end - start);
    }
  }
  write_file(store, bloated);

  PersistentPlanCache compacting(dir.str());
  const auto stats = compacting.stats();
  EXPECT_EQ(stats.loaded, spans.size());
  EXPECT_EQ(stats.compactions, 1u);
  // The rewrite went through the temp-file + atomic-rename path and kept
  // exactly the live set: the file is back to its clean size and a fresh
  // load sees no dead bytes (and therefore does not compact again).
  EXPECT_EQ(read_file(store), clean);
  PersistentPlanCache reopened(dir.str());
  EXPECT_EQ(reopened.stats().loaded, spans.size());
  EXPECT_EQ(reopened.stats().compactions, 0u);
}

TEST(PersistentPlanCache, CompactionPreservesRecordsOfUnknownAlgorithms) {
  TempDir dir;
  const Planner planner(16);
  const PlanRequest real = reduce_req(16, 64);
  const Plan plan = planner.plan(real);
  {
    PersistentPlanCache store(dir.str());
    // A record this process's registry cannot resolve — a *per-process*
    // miss: another process sharing the store (one that registers the
    // algorithm) could still serve it, so compaction must not delete it.
    PlanKey ghost = PlanCache::key_for(planner, real);
    ghost.algorithm = "Retired-Algorithm";
    store.append(ghost, std::make_shared<const Plan>(plan));
    store.append(PlanCache::key_for(planner, real),
                 std::make_shared<const Plan>(plan));
  }
  const fs::path store = fs::path(dir.str()) / "plans.wsrpc";
  const std::string clean = read_file(store);
  const auto spans = record_spans(clean);
  ASSERT_EQ(spans.size(), 2u);

  // Bloat with duplicates of the *resolvable* record until dead bytes
  // exceed half the file, forcing a load-time compaction.
  std::string bloated = clean;
  while (bloated.size() < 2 * clean.size() + 1) {
    bloated.append(clean, spans[1].first, spans[1].second - spans[1].first);
  }
  write_file(store, bloated);

  PersistentPlanCache compacting(dir.str());
  EXPECT_EQ(compacting.stats().compactions, 1u);
  // The compacted store is exactly the original two records — the
  // unresolvable one included — so the file is byte-identical to clean.
  EXPECT_EQ(read_file(store), clean);

  // Duplicates of the *unresolvable* record are dead bytes too (compaction
  // keeps only the first copy per key), so they must also trigger the
  // load-time rewrite — only the first copy counts as live.
  std::string ghost_bloated = clean;
  while (ghost_bloated.size() < 2 * clean.size() + 1) {
    ghost_bloated.append(clean, spans[0].first,
                         spans[0].second - spans[0].first);
  }
  write_file(store, ghost_bloated);
  PersistentPlanCache compacting_ghosts(dir.str());
  EXPECT_EQ(compacting_ghosts.stats().compactions, 1u);
  EXPECT_EQ(read_file(store), clean);
}

TEST(PersistentPlanCache, GetCountsHitsAndMisses) {
  TempDir dir;
  const Planner planner(16);
  PersistentPlanCache disk(dir.str());
  const auto key = PlanCache::key_for(planner, reduce_req(8, 16));
  EXPECT_EQ(disk.get(key).status, store::StoreStatus::Miss);
  disk.append(key, std::make_shared<const Plan>(planner.plan(reduce_req(8, 16))));
  EXPECT_EQ(disk.get(key).status, store::StoreStatus::Hit);
  EXPECT_NE(disk.get(key).plan, nullptr);
  const auto stats = disk.stats();
  EXPECT_EQ(stats.gets, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

}  // namespace
}  // namespace wsr::runtime
