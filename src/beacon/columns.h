// Structure-of-arrays layout for joined beacon measurements.
//
// One MeasurementColumns holds one day of joined beacon executions as
// parallel columns plus a CSR offset table into flat per-target columns:
// row i's fetches live at target indices [target_begin[i],
// target_begin[i+1]). Hot passes (the sort-merge join, group-by
// aggregation, predictor training) stream these contiguous columns
// instead of chasing per-measurement std::vector<Target> nodes; the
// row-struct view (rows()/row()) remains for export and tests.
#pragma once

#include <cstdint>
#include <vector>

#include "beacon/measurement.h"

namespace acdn {

struct MeasurementColumns {
  // Per measurement (one joined beacon execution).
  std::vector<std::uint64_t> beacon_id;
  std::vector<ClientId> client;
  std::vector<LdnsId> ldns;
  std::vector<DayIndex> day;
  std::vector<double> hour;
  /// CSR offsets into the target columns; size() + 1 entries once any row
  /// exists (target_begin[0] == 0), empty otherwise.
  std::vector<std::uint32_t> target_begin;

  // Per target (one timed fetch), flat across all rows. Front-end ids are
  // stored as raw uint32 values (FrontEndId::value) so the column feeds
  // the SIMD key-pack kernel directly; row() re-wraps them.
  std::vector<std::uint8_t> target_anycast;
  std::vector<std::uint32_t> target_front_end;
  std::vector<Milliseconds> target_rtt;

  [[nodiscard]] std::size_t size() const { return beacon_id.size(); }
  [[nodiscard]] bool empty() const { return beacon_id.empty(); }
  [[nodiscard]] std::size_t target_count() const { return target_rtt.size(); }

  /// Target index range of row i.
  [[nodiscard]] std::size_t row_targets_begin(std::size_t i) const {
    return target_begin[i];
  }
  [[nodiscard]] std::size_t row_targets_end(std::size_t i) const {
    return target_begin[i + 1];
  }

  /// Clears all columns; capacities are retained for reuse.
  void clear();
  void reserve(std::size_t rows, std::size_t targets);

  /// Opens a new row with no targets yet; append_target fills it.
  void append_row(std::uint64_t beacon, ClientId c, LdnsId l, DayIndex d,
                  double h);
  /// Appends one fetch to the open (last) row.
  void append_target(bool anycast, FrontEndId front_end, Milliseconds rtt);

  /// Appends a fully-formed row struct.
  void push_back(const BeaconMeasurement& m);
  /// Appends every row of `other` in order — one bulk column concat.
  void append_all(const MeasurementColumns& other);

  /// Materializes row i as the row struct.
  [[nodiscard]] BeaconMeasurement row(std::size_t i) const;
  /// Materializes every row, in order.
  [[nodiscard]] std::vector<BeaconMeasurement> rows() const;
};

}  // namespace acdn
