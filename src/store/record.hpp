// The plan-record codec: one byte format shared by every PlanStore backend.
//
// A record is a framed, checksummed (PlanKey, Plan) payload. The format was
// born as the PersistentPlanCache on-disk layout (PR 4) and is now also the
// peer cache tier's wire payload: a `cache_get` reply carries the exact
// bytes a store file append would carry, base64-wrapped into NDJSON. One
// codec means one invariant — no matter which backend produced the bytes,
// a record either decodes bit-exactly or is rejected as a clean miss; a
// torn, truncated, or bit-rotted record can never surface as a wrong plan.
//
// Layout (docs/serving.md documents it for external tooling):
//
//   header : magic "WSRPLANC" (8 bytes) | u32 endian tag 0x01020304
//          | u32 schema version (kSchemaVersion)
//   record : u32 record magic | u64 payload size | u64 FNV-1a checksum
//          | payload
//   payload: serialized (PlanKey, Plan) — length-prefixed strings,
//            fixed-width little-endian integers, f64 as bit pattern.
#pragma once

#include <optional>
#include <string>

#include "runtime/plan_cache.hpp"

namespace wsr::store {

using runtime::Plan;
using runtime::PlanKey;

/// Bump when the record payload layout changes; older stores then load as
/// empty (and are rewritten on the next append), and peers on another
/// schema answer cache_get with a clean miss.
/// v2: MachineParams grew link_overrides; Schedule grew mem_words.
constexpr u32 kSchemaVersion = 2;

constexpr u32 kRecordMagic = 0x43525057;  // "WPRC" little-endian
constexpr u64 kMaxPayload = u64{1} << 30;

constexpr std::size_t kHeaderSize = 8 + 4 + 4;  // magic | endian | version
constexpr std::size_t kFrameSize = 4 + 8 + 8;   // magic | size | checksum

u64 fnv1a(const char* data, std::size_t n);

// --- little-endian buffer writer/reader --------------------------------------
// Integers are stored least significant byte first whatever the host's
// byte order (host endianness never leaks into the bytes); the header's
// endian tag exists so a hypothetical big-endian build rejects rather than
// misreads stores written before this convention.

/// Stores `v` little-endian into the sizeof(T) bytes at `dst`.
template <typename T>
void put_le(char* dst, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

struct Writer {
  std::string out;

  /// Appends `v` as one whole little-endian word.
  template <typename T>
  void word(T v) {
    char bytes[sizeof(T)];
    put_le(bytes, v);
    out.append(bytes, sizeof bytes);
  }
  void u8v(u8 v) { out.push_back(static_cast<char>(v)); }
  void u32v(u32 v) { word(v); }
  void u64v(u64 v) { word(v); }
  void i64v(i64 v) { u64v(static_cast<u64>(v)); }
  void f64v(double v);
  void str(const std::string& s) {
    u32v(static_cast<u32>(s.size()));
    out.append(s);
  }
};

struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || size - pos < n) ok = false;
    return ok;
  }
  std::size_t remaining() const { return size - pos; }
  u8 u8v() {
    if (!need(1)) return 0;
    return static_cast<u8>(data[pos++]);
  }
  u32 u32v() {
    if (!need(4)) return 0;
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= u32{static_cast<unsigned char>(data[pos + i])} << (8 * i);
    pos += 4;
    return v;
  }
  u64 u64v() {
    if (!need(8)) return 0;
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= u64{static_cast<unsigned char>(data[pos + i])} << (8 * i);
    pos += 8;
    return v;
  }
  i64 i64v() { return static_cast<i64>(u64v()); }
  double f64v();
  std::string str() {
    const u32 n = u32v();
    if (!need(n)) return "";
    std::string s(data + pos, n);
    pos += n;
    return s;
  }
};

/// The store-file header under the current schema.
std::string header_bytes();

// --- (PlanKey, Plan) payload -------------------------------------------------

void write_payload(Writer& w, const PlanKey& key, const Plan& plan);

/// Decodes a full payload; false on any truncation, impossible field, or
/// trailing bytes (the payload must be fully consumed). Impossible fields
/// include an enum byte outside its enum (collective, op kind, receive
/// mode, accept or link direction), a forward mask with bits above Ramp,
/// and a grid larger than the rest of the payload could describe (every
/// PE takes at least 8 bytes), which is refused before anything is sized
/// for it. Whether the schedule is sound is wse::validate's question.
bool read_payload(Reader& r, PlanKey* key, Plan* plan);

/// Serializes one (key, plan) record — frame + checksummed payload — ready
/// to append to a store file or ship to a peer.
std::string serialize_plan_record(const PlanKey& key, const Plan& plan);

/// Parses exactly one framed record (frame + payload, nothing before or
/// after). Validates the frame magic, length, checksum, and full payload
/// consumption; false on any damage — the caller treats that as a miss.
bool parse_plan_record(const std::string& bytes, PlanKey* key, Plan* plan);

/// Key-only serialization: the `cache_get` request payload. Same field
/// layout as the key half of a record payload.
std::string serialize_plan_key(const PlanKey& key);

/// Strict inverse of serialize_plan_key (full consumption required).
std::optional<PlanKey> parse_plan_key(const std::string& bytes);

/// The round-trip contract: a stored or received plan is only usable by
/// this process if the algorithm it names still resolves in the registry —
/// a renamed/removed algorithm invalidates exactly its own records. For a
/// forced request that name is the key's; for a model-driven record (empty
/// key algorithm) it is the plan's chosen algorithm.
bool record_algorithm_resolves(const PlanKey& key, const Plan& plan);

/// Walks the framed records of a store image starting after the header,
/// calling fn(record_start, payload, payload_size, checksum_ok) for each
/// intact frame. A damaged frame (bad magic, impossible or truncated
/// length) ends the walk — appends are whole-record atomic under flock,
/// so damage past a valid prefix is a torn tail, not interior corruption.
/// Returns false exactly when the walk ended on such a torn tail.
template <typename Fn>
bool scan_records(const char* data, std::size_t size, Fn&& fn) {
  std::size_t pos = kHeaderSize;
  while (pos < size) {
    if (size - pos < kFrameSize) return false;
    const std::size_t frame_start = pos;
    Reader r{data, size, pos};
    const u32 magic = r.u32v();
    const u64 payload_size = r.u64v();
    const u64 checksum = r.u64v();
    if (magic != kRecordMagic || payload_size > kMaxPayload ||
        payload_size > size - r.pos) {
      return false;
    }
    const char* payload = data + r.pos;
    pos = r.pos + payload_size;
    fn(frame_start, payload, static_cast<std::size_t>(payload_size),
       fnv1a(payload, payload_size) == checksum);
  }
  return true;
}

// --- base64 ------------------------------------------------------------------
// Records ride inside NDJSON string fields on the peer wire; base64 keeps
// them 7-bit clean at 4/3 the size (hex would double it, and wafer-scale
// schedules serialize to megabytes).

std::string base64_encode(const std::string& bytes);

/// nullopt on any non-alphabet byte, bad padding, or truncated group —
/// a garbage wire field decodes to nothing, never to approximate bytes.
std::optional<std::string> base64_decode(const std::string& text);

}  // namespace wsr::store
