// Measurement backend: joins DNS and HTTP logs into beacon measurements
// (keyed by the globally unique URL id, §3.2.2) and stores them by day —
// columnar (beacon/columns.h), one MeasurementColumns per day — alongside
// the passive production logs.
#pragma once

#include <span>
#include <vector>

#include "beacon/columns.h"
#include "beacon/measurement.h"
#include "common/arena.h"

namespace acdn {

class MeasurementStore {
 public:
  /// Joins the two server-side logs on url_id with a sort-merge join.
  /// DNS rows sort by (url_id, log position) and HTTP rows by (beacon
  /// id, log position) — day-loop logs arrive presorted and skip the
  /// sort — then one serial merge appends each joined measurement to its
  /// day's columns in ascending beacon id: duplicate DNS url_ids resolve
  /// to the last log row, targets keep HTTP log order within a beacon,
  /// the first joined HTTP row sets the measurement's metadata, and rows
  /// lacking a counterpart drop. Throws Error when a joined measurement's
  /// day is negative. `threads` has no effect; it stays for source
  /// compatibility. Scratch buffers persist in an arena across calls, so
  /// steady-state joins allocate almost nothing.
  void join(std::span<const DnsLogEntry> dns_log,
            std::span<const HttpLogEntry> http_log, int threads = 1);

  void add(BeaconMeasurement measurement);

  /// The day's measurements in columnar form — the zero-copy view every
  /// hot pass should consume. An empty day (or out-of-range index)
  /// returns a static empty column set.
  [[nodiscard]] const MeasurementColumns& columns(DayIndex day) const;

  /// Materializes the day's measurements as row structs (export, tests).
  [[nodiscard]] std::vector<BeaconMeasurement> by_day(DayIndex day) const;

  /// Moves one day's columns out of the store, leaving that day empty.
  /// Out-of-range days return empty columns. The cross-day pipeline joins
  /// each day into a slot-local store off the critical path, then
  /// take_day/put_day the finished columns into the scenario store during
  /// the in-order fold.
  [[nodiscard]] MeasurementColumns take_day(DayIndex day);

  /// Installs `columns` as day `day` (appending if the day already holds
  /// rows — it never does in the pipeline, which folds each day once).
  void put_day(DayIndex day, MeasurementColumns&& columns);

  [[nodiscard]] int days() const { return static_cast<int>(by_day_.size()); }
  [[nodiscard]] std::size_t total() const;

  /// Bytes reserved by the join's scratch arena (perf regression probe:
  /// stable after the first join of a steady-state day loop).
  [[nodiscard]] std::size_t scratch_capacity_bytes() const {
    return scratch_.capacity_bytes();
  }

 private:
  std::vector<MeasurementColumns> by_day_;
  ScratchArena scratch_;
};

/// Passive production logs, aggregated per (client, front-end, day).
class PassiveLog {
 public:
  void add(PassiveLogEntry entry);

  [[nodiscard]] std::span<const PassiveLogEntry> by_day(DayIndex day) const;
  [[nodiscard]] int days() const { return static_cast<int>(by_day_.size()); }
  [[nodiscard]] std::size_t total() const;

 private:
  std::vector<std::vector<PassiveLogEntry>> by_day_;
};

}  // namespace acdn
