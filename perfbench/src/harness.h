// Measurement plumbing for the end-to-end benchmark: wall and CPU
// clocks, peak memory, medians, named metrics, a span tracer with
// Chrome trace-event export, and a bitwise digest for comparing
// reports across iterations.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0` on the steady clock.
[[nodiscard]] double seconds_since(clock::time_point t0);

/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median of `v` (mean of the middle pair for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// Ordered name -> (value, unit) list; `set` overwrites an existing name.
class metric_set {
 public:
  struct entry {
    std::string name;
    double value{0.0};
    std::string unit;
  };

  void set(std::string_view name, double value, std::string_view unit);
  [[nodiscard]] const std::vector<entry>& entries() const { return entries_; }

 private:
  std::vector<entry> entries_;
};

/// Spans recorded from the benchmark's own code around calls into the
/// library's layers. Spans nest through a stack (the parent is the
/// innermost open span), carry the iteration id they belong to, and
/// stay in memory until written out.
class tracer {
 public:
  struct span {
    std::string name;
    double start_us{0.0};
    double end_us{0.0};
    int id{0};
    int parent{-1};  ///< -1 = root
    int iteration{0};
  };

  tracer();

  /// Opens a span; returns its id.
  int begin(std::string name);
  /// Closes span `id` (must be the innermost open span); returns its
  /// duration in seconds.
  double end(int id);

  /// Runs `f` inside a span and returns the span's duration in seconds.
  template <class F>
  double time(std::string name, F&& f) {
    const int id = begin(std::move(name));
    f();
    return end(id);
  }

  void set_iteration(int iteration) { iteration_ = iteration; }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events;
  /// args carry the end time, span id, parent id and iteration id).
  void write_chrome(const std::string& path) const;

 private:
  clock::time_point epoch_;
  std::vector<span> spans_;
  std::vector<int> open_;
  int iteration_{0};
};

/// FNV-1a over the exact bits of what is fed in: two reports digest
/// equal iff every fed field is bitwise equal (up to hash collisions).
class digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  void add(bool b) { add(static_cast<std::uint64_t>(b)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ull};
};

}  // namespace perfbench
