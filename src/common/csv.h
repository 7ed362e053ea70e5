// Minimal CSV writer used by the bench harnesses to export figure data.
#pragma once

#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace acdn {

/// Writes RFC-4180-ish CSV. Fields containing separators or quotes are
/// quoted; numeric overloads format with full round-trip precision.
///
/// Write failures are not silent: every write_row checks the stream and
/// throws acdn::Error naming the path, and flush() forces buffered data
/// to the OS so a full disk surfaces as an exception instead of a
/// truncated figure CSV under a success exit. Callers that finish a file
/// should call flush() (the destructor cannot throw, so it can only
/// best-effort close).
class CsvWriter {
 public:
  /// Opens `path` for writing, truncating any existing file. Throws
  /// acdn::Error if the file cannot be opened.
  explicit CsvWriter(const std::string& path);

  void write_row(std::span<const std::string> fields);
  void write_row(std::initializer_list<std::string_view> fields);

  /// Header then rows of doubles — the common shape for figure series.
  void write_header(std::initializer_list<std::string_view> names) {
    write_row(names);
  }
  void write_row(std::span<const double> values);

  /// Flushes buffered rows and throws acdn::Error if any write failed.
  void flush();

  /// Shortest text that parses back to exactly `v`.
  static std::string format_double(double v);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void write_field(std::string_view field, bool first);
  void check_stream() const;

  std::string path_;
  std::ofstream out_;
};

}  // namespace acdn
