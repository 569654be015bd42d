// Shared pieces of the wsr benchmark: a portable seeded RNG, timing, order
// statistics, the span tracer and a small JSON report writer.
//
// Spans are recorded by the benchmark around its own calls into the
// library (src/ is not instrumented). They are kept in memory and reduced
// at the end: a span's self time is its duration minus the time its direct
// children cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

/// splitmix64: the same stream on every platform and standard library
/// (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(u64 seed) : s_(seed * 0x9E3779B97F4A7C15ull + 0x1234567ull) {}
  u64 next() {
    u64 z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  u64 below(u64 n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  u64 s_;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline i64 now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The tail level reported as "p99": 0.99 with at least 1000 samples,
/// otherwise the highest level that still leaves ten samples beyond it.
inline double tail_level(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n <= 20) return 0.5;
  return static_cast<double>(n - 10) / static_cast<double>(n);
}

inline double tail(const std::vector<double>& v) {
  return quantile(v, tail_level(v.size()));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set (VmHWM) of a process in MB; `pid` 0 = this process.
inline double vm_hwm_mb(long pid = 0) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// In-memory span recorder. `begin`/`end` nest: the open span on top of
/// the stack is the parent of the next one. Disabled tracers record
/// nothing and cost one branch per call.
class Tracer {
 public:
  struct Span {
    std::string name;
    i64 start_ns = 0;
    i64 end_ns = 0;
    int parent = -1;
    u64 item = 0;  ///< request or cell id
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name, u64 item) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                      item});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int id) {
    if (!enabled_ || id < 0) return;
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  static double duration_us(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }

  /// Self time in microseconds of every span (duration minus its direct
  /// children).
  std::vector<double> self_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration_us(spans_[i]);
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= duration_us(s);
    }
    return self;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span guard.
class Scope {
 public:
  Scope(Tracer& t, const char* name, u64 item) : t_(t), id_(t.begin(name, item)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// A JSON string literal (quotes and backslashes escaped, control bytes
/// dropped).
inline std::string json_string(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) q.push_back(c);
  }
  return q + "\"";
}

inline std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + json_string(items[i]);
  }
  return out + "]";
}

/// Flat JSON object writer for the one-line reports run.py reads.
class Report {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    fields_[key] = buf;
  }
  void str(const std::string& key, const std::string& v) {
    fields_[key] = json_string(v);
  }
  void raw(const std::string& key, const std::string& json) { fields_[key] = json; }

  std::string json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : fields_) {
      if (!first) out += ",";
      first = false;
      out += "\"" + k + "\":" + v;
    }
    return out + "}";
  }
  void print() const { std::printf("%s\n", json().c_str()); }

 private:
  std::map<std::string, std::string> fields_;
};

}  // namespace perfbench
