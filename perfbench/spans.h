// Span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark around its calls into each layer —
// not inside the library — and kept in memory until the run writes them
// out. Each span records its name, start and end (steady clock), the span
// that was open when it started, the simulated day it belongs to (-1 for
// none) and the recording thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Index of the enclosing span in spans(), -1 for a root.
    int parent = -1;
    int day = -1;
    std::uint64_t thread = 0;

    [[nodiscard]] double ms() const { return double(end_ns - start_ns) / 1e6; }
  };

  /// Closes its span when it leaves scope.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name, int day);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
    int saved_open_;
  };

  [[nodiscard]] Scope scope(std::string_view name, int day = -1) {
    return Scope(*this, name, day);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear();

  /// Summed duration of every span with this name, in ms.
  [[nodiscard]] double total_ms(std::string_view name) const;

  /// Self time per span name: each span's duration minus the part of it
  /// its child spans cover, summed by name.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  /// Writes one CSV row per span: name, start and end (ns from the first
  /// span's start), parent index, day, thread.
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Nanoseconds on the steady clock.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
