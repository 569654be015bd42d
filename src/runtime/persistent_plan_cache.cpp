#include "runtime/persistent_plan_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "store/record.hpp"

namespace wsr::runtime {

namespace {

constexpr char kStoreFile[] = "plans.wsrpc";
constexpr char kHotFile[] = "hot.wsrh";

using store::kFrameSize;
using store::kHeaderSize;

/// Writes all of `data` to `fd` (retrying short writes); false on error
/// with the failing errno in *err_out.
bool write_all(int fd, const std::string& data, int* err_out) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      *err_out = errno;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const std::string& data) {
  int err = 0;
  return write_all(fd, data, &err);
}

/// The bytes of the file open on `fd`: one buffer sized by fstat, filled
/// by pread (retried on short reads; a file that shrank meanwhile yields
/// the prefix that is left). nullopt when the file cannot be read.
std::optional<std::string> read_file(int fd) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) return std::nullopt;
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t got = ::pread(fd, bytes.data() + off, bytes.size() - off,
                                static_cast<off_t>(off));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return std::nullopt;
    if (got == 0) break;
    off += static_cast<std::size_t>(got);
  }
  bytes.resize(off);
  return bytes;
}

/// A write failure the store cannot recover from by retrying the next
/// append: the filesystem is full, broken, or read-only. These flip the
/// store into memory-only operation.
bool is_fatal_store_errno(int err) {
  return err == ENOSPC || err == EDQUOT || err == EIO || err == EROFS;
}

}  // namespace

PersistentPlanCache::PersistentPlanCache(std::string dir)
    : dir_(std::move(dir)) {
  ::mkdir(dir_.c_str(), 0777);  // EEXIST is fine; open failures surface below
  // Counted shapes rank first; shapes only in the store follow in file
  // order (load() seeds them).
  load_hot();
  load();
}

PersistentPlanCache::~PersistentPlanCache() { flush_hot(); }

std::string PersistentPlanCache::store_path() const {
  return dir_ + "/" + kStoreFile;
}

void PersistentPlanCache::load() {
  const auto start = std::chrono::steady_clock::now();
  std::string bytes;
  if (const int fd = ::open(store_path().c_str(), O_RDONLY); fd >= 0) {
    bytes = read_file(fd).value_or(std::string());
    ::close(fd);
  }
  load_.file_bytes = bytes.size();

  if (bytes.empty()) {
    // No store yet: the first append creates it.
    load_.load_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return;
  }

  const std::string expected_header = store::header_bytes();
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), expected_header.data(), kHeaderSize) != 0) {
    // Foreign magic, other endianness, or another schema version: ignore
    // everything (clean miss) and rewrite under the current schema on the
    // next append.
    load_.load_errors += 1;
    rewrite_on_next_append_ = true;
    load_.load_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return;
  }
  // Live bytes: header + every record that made it into the index. The
  // remainder of the file is dead weight — duplicates, bit rot, records of
  // algorithms the registry no longer knows — and once it exceeds half the
  // file the store is compacted below.
  u64 live_bytes = kHeaderSize;
  // Unresolvable records are kept by compaction (first copy per key), so
  // only their first occurrence is live — duplicates of them must count as
  // dead or a store bloated by racing writers of a foreign algorithm could
  // never trigger the rewrite below.
  std::unordered_map<PlanKey, bool, PlanKeyHash> foreign_seen;

  const bool complete = store::scan_records(
      bytes.data(), bytes.size(),
      [&](std::size_t, const char* payload, std::size_t payload_size,
          bool checksum_ok) {
        // An intact frame whose checksum or decode fails is skipped
        // individually (bit rot in one record must not drop its
        // successors).
        if (!checksum_ok) {
          load_.load_errors += 1;
          return;
        }
        PlanKey key;
        auto plan = std::make_shared<Plan>();
        store::Reader pr{payload, payload_size};
        if (!store::read_payload(pr, &key, plan.get())) {
          load_.load_errors += 1;
          return;
        }
        if (!store::record_algorithm_resolves(key, *plan)) {
          // A per-process miss, not corruption: compaction keeps these
          // (another process's registry may resolve them), so their first
          // copy counts as live bytes — otherwise a store full of foreign
          // algorithms would re-trigger a compaction scan on every load
          // without ever shrinking.
          load_.load_errors += 1;
          if (foreign_seen.emplace(std::move(key), true).second) {
            live_bytes += kFrameSize + payload_size;
          }
          return;
        }
        // First record wins on duplicate keys (racing writers), matching
        // the in-memory cache's first-writer-wins insert.
        const auto [it, inserted] = index_.emplace(
            std::move(key), std::shared_ptr<const Plan>(std::move(plan)));
        if (inserted) {
          load_.loaded += 1;
          live_bytes += kFrameSize + payload_size;
          hot_.seed(it->first);
        }
      });
  if (!complete) load_.load_errors += 1;  // torn tail

  // Load-time compaction: rewrite when dead/duplicate bytes exceed half the
  // file (the store is append-only; this is the only path that shrinks it).
  if (!rewrite_on_next_append_ && load_.file_bytes > live_bytes &&
      (load_.file_bytes - live_bytes) * 2 > load_.file_bytes) {
    std::lock_guard<std::mutex> io_lock(io_mu_);
    if (const auto compacted = compact_store()) {
      load_.file_bytes = *compacted;
    }
  }
  load_.load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

store::GetResult PersistentPlanCache::get(const PlanKey& key) {
  gets_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return {store::StoreStatus::Miss, nullptr};
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return {store::StoreStatus::Hit, it->second};
}

void PersistentPlanCache::load_hot() {
  std::ifstream in(dir_ + "/" + kHotFile);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    u64 uses = 0;
    std::string key_b64;
    if (!(fields >> uses >> key_b64)) continue;  // garbled line: advisory data
    const std::optional<std::string> key_bytes = store::base64_decode(key_b64);
    if (!key_bytes) continue;
    const std::optional<PlanKey> key = store::parse_plan_key(*key_bytes);
    if (!key) continue;
    hot_.seed(*key, uses);
  }
}

void PersistentPlanCache::flush_hot() {
  const std::string path = dir_ + "/" + kHotFile;
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    for (const store::HotShape& shape : hot_.top(0)) {
      out << shape.uses << ' '
          << store::base64_encode(store::serialize_plan_key(shape.key)) << '\n';
    }
    if (!out.flush()) {
      ::unlink(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) ::unlink(tmp.c_str());
}

namespace {

/// Opens the store file and takes its exclusive flock, retrying when a
/// concurrent recovery rename swapped the path to a new inode between our
/// open and lock (the classic lockfile dance: the lock must be on the
/// inode the path currently names, or a writer could append to a file
/// that is already unlinked and lose its record). Returns -1 on failure.
int open_store_locked(const std::string& path, int open_flags) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    const int fd = ::open(path.c_str(), open_flags, 0666);
    if (fd < 0) return -1;
    if (::flock(fd, LOCK_EX) != 0) {
      ::close(fd);
      return -1;
    }
    struct stat fd_st{}, path_st{};
    if (::fstat(fd, &fd_st) == 0 && ::stat(path.c_str(), &path_st) == 0 &&
        fd_st.st_ino == path_st.st_ino && fd_st.st_dev == path_st.st_dev) {
      return fd;  // locked the inode the path names; flock released on close
    }
    ::close(fd);  // raced a rename: retry against the new file
  }
  return -1;
}

}  // namespace

bool PersistentPlanCache::append_record(const std::string& record,
                                        int* err_out) {
  *err_out = 0;
  if (inject_errno_times_ > 0) {  // caller holds io_mu_
    --inject_errno_times_;
    *err_out = inject_errno_;
    return false;
  }
  const int fd =
      open_store_locked(store_path(), O_WRONLY | O_CREAT | O_APPEND);
  if (fd < 0) {
    *err_out = errno;
    return false;
  }
  // Create the header exactly once: the first writer to hold the lock on
  // an empty file writes it; later writers see a non-zero size.
  struct stat st{};
  bool ok = ::fstat(fd, &st) == 0;
  if (!ok) *err_out = errno;
  const off_t pre_size = st.st_size;
  if (ok && pre_size == 0) ok = write_all(fd, store::header_bytes(), err_out);
  if (ok) ok = write_all(fd, record, err_out);
  if (!ok) {
    // Roll back any torn tail while we still hold the flock: a half-record
    // at EOF would otherwise cost every later reader its scan tail (the
    // torn-tail rule drops everything after the damage) and pin load_errors
    // forever. After the truncate the file is exactly as before this call.
    ::ftruncate(fd, pre_size);
  }
  ::close(fd);
  return ok;
}

bool PersistentPlanCache::recover_store(const std::string& record) {
  // Header recovery. Holding the store flock across the whole operation
  // serializes recoveries against each other and against appenders on the
  // same inode; the re-validation below handles the lost race: if another
  // process already recovered (the locked file now carries a valid
  // current-schema header), we must *append* — rewriting from our index
  // would drop every record the winner and later appenders wrote.
  const int fd = open_store_locked(store_path(), O_RDWR | O_CREAT);
  if (fd < 0) return false;

  const std::string expected_header = store::header_bytes();
  char on_disk[kHeaderSize];
  const bool header_valid =
      ::pread(fd, on_disk, kHeaderSize, 0) ==
          static_cast<ssize_t>(kHeaderSize) &&
      std::memcmp(on_disk, expected_header.data(), kHeaderSize) == 0;
  if (header_valid) {
    bool ok = ::lseek(fd, 0, SEEK_END) >= 0 && write_all(fd, record);
    ::close(fd);
    return ok;
  }

  // Still damaged: serialize the whole index (which already contains the
  // new entry) into a temp file and atomically rename it over the store.
  // Readers only ever observe the old or the complete new file.
  const std::string tmp = store_path() + ".tmp." + std::to_string(::getpid());
  const int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (tmp_fd < 0) {
    ::close(fd);
    return false;
  }
  bool ok = write_all(tmp_fd, expected_header);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, plan] : index_) {
      if (!ok) break;
      ok = write_all(tmp_fd, store::serialize_plan_record(key, *plan));
    }
  }
  ::close(tmp_fd);
  if (ok) ok = std::rename(tmp.c_str(), store_path().c_str()) == 0;
  if (!ok) ::unlink(tmp.c_str());
  ::close(fd);  // releases the flock on the replaced inode
  return ok;
}

std::optional<u64> PersistentPlanCache::compact_store() {
  // Parse the file fresh *under the store flock* rather than serializing
  // this process's index: concurrent writers may have appended records we
  // never loaded, and a compaction must not drop them. Keeping the raw
  // record bytes of the first valid occurrence per key reproduces exactly
  // what a fresh load would keep, bit-identically.
  const int fd = open_store_locked(store_path(), O_RDWR | O_CREAT);
  if (fd < 0) return std::nullopt;

  const std::optional<std::string> read = read_file(fd);
  if (!read.has_value()) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string& bytes = *read;

  const std::string expected_header = store::header_bytes();
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), expected_header.data(), kHeaderSize) != 0) {
    // Foreign magic or another schema version (e.g. a newer binary
    // rewrote the shared store since we loaded it): not ours to rewrite —
    // compacting from here would destroy every record the other schema's
    // processes rely on. Bail; the load keeps the store as it is.
    ::close(fd);
    return std::nullopt;
  }
  std::string image = store::header_bytes();
  {
    std::unordered_map<PlanKey, bool, PlanKeyHash> seen;
    store::scan_records(
        bytes.data(), bytes.size(),
        [&](std::size_t frame_start, const char* payload,
            std::size_t payload_size, bool checksum_ok) {
          if (!checksum_ok) return;
          PlanKey key;
          Plan plan;
          store::Reader pr{payload, payload_size};
          if (!store::read_payload(pr, &key, &plan)) {
            return;  // undecodable bit rot: what compaction removes
          }
          // Records naming algorithms *this* registry cannot resolve are
          // kept: they are a per-process miss, not corruption — another
          // process sharing the store (one that registered the algorithm)
          // may still serve them. Only duplicates, undecodable records
          // and the torn tail are dead for every possible reader.
          if (seen.emplace(std::move(key), true).second) {
            image.append(bytes, frame_start, kFrameSize + payload_size);
          }
        });
  }

  if (image.size() >= bytes.size()) {
    // Nothing to reclaim: skip the byte-identical rewrite.
    ::close(fd);
    return bytes.size();
  }

  const std::string tmp = store_path() + ".tmp." + std::to_string(::getpid());
  const int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (tmp_fd < 0) {
    ::close(fd);
    return std::nullopt;
  }
  bool ok = write_all(tmp_fd, image);
  ::close(tmp_fd);
  if (ok) ok = std::rename(tmp.c_str(), store_path().c_str()) == 0;
  if (!ok) ::unlink(tmp.c_str());
  ::close(fd);  // releases the flock on the replaced inode
  if (!ok) return std::nullopt;
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return image.size();
}

bool PersistentPlanCache::append(const PlanKey& key,
                                 std::shared_ptr<const Plan> plan) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Plan> winner;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = index_.emplace(key, std::move(plan));
    if (!inserted) return true;  // first writer wins; its record is durable
    winner = it->second;
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    // Memory-only mode after a fatal I/O errno: the plan serves from the
    // index, the skipped durability is counted, the disk is never touched
    // again (a full or broken filesystem will not heal mid-process, and
    // hammering it would turn every planned miss into a blocking flock +
    // failing write).
    store_degraded_.fetch_add(1, std::memory_order_relaxed);
    put_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Serialize and write outside mu_ so concurrent get() calls never wait
  // on file I/O; io_mu_ orders this process's writes.
  const std::string record = store::serialize_plan_record(key, *winner);
  std::lock_guard<std::mutex> io_lock(io_mu_);
  int err = 0;
  const bool ok = rewrite_on_next_append_ ? recover_store(record)
                                          : append_record(record, &err);
  if (ok) {
    rewrite_on_next_append_ = false;
    appended_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  put_errors_.fetch_add(1, std::memory_order_relaxed);
  if (is_fatal_store_errno(err)) {
    degraded_.store(true, std::memory_order_relaxed);
    store_degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  // A failed write keeps the plan in this process's index (serving stays
  // correct); the record is simply not durable.
  return false;
}

void PersistentPlanCache::inject_append_errno_for_tests(int err, u32 times) {
  std::lock_guard<std::mutex> io_lock(io_mu_);
  inject_errno_ = err;
  inject_errno_times_ = times;
}

store::StoreLedger PersistentPlanCache::stats() const {
  store::StoreLedger out = load_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.entries = index_.size();
  }
  out.gets = gets_.load(std::memory_order_relaxed);
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.puts = puts_.load(std::memory_order_relaxed);
  out.put_errors = put_errors_.load(std::memory_order_relaxed);
  out.hot_tracked = hot_.tracked();
  out.appended = appended_.load(std::memory_order_relaxed);
  out.compactions = compactions_.load(std::memory_order_relaxed);
  out.store_degraded = store_degraded_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace wsr::runtime
