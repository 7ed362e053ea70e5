// Multi-day simulation driver.
//
// Each simulated day: interdomain routing evolves (RouteDynamics), every
// client's production queries land on its current anycast front-end
// (passive logs, §3.2.1), a sampled fraction of page loads runs the
// JavaScript beacon (§3.2.2), and at day's end the DNS and HTTP logs are
// joined into the measurement store — the same pipeline the paper's
// backend ran.
#pragma once

#include <vector>

#include "beacon/store.h"
#include "common/arena.h"
#include "sim/world.h"

namespace acdn {

struct DayStats {
  DayIndex day = 0;
  std::size_t beacons = 0;
  std::size_t passive_entries = 0;
  std::size_t clients_flapping = 0;
};

class Simulation {
 public:
  explicit Simulation(World& world) : world_(&world) {}

  /// Runs days [next_day, next_day + n). Days must be run in order.
  void run_days(int n);

  /// Runs exactly one day — kernel plus join — and returns its stats.
  DayStats run_day();

  /// The day's *sequential kernel* only: advances RouteDynamics, runs the
  /// client fan-out and beacon executions, merges per-client outputs (in
  /// client order) into `dns_log`/`http_log` (cleared first), and feeds
  /// the passive log — everything that must stay serial across days
  /// because the route dynamics and RNG streams advance day-by-day. It
  /// does NOT join the logs into the measurement store; the cross-day
  /// pipeline (sim/pipeline.h) runs that analysis tail off this thread
  /// while the next day's kernel executes. run_day() == run_day_kernel()
  /// + measurements().join(...), byte for byte.
  DayStats run_day_kernel(std::vector<DnsLogEntry>& dns_log,
                          std::vector<HttpLogEntry>& http_log);

  [[nodiscard]] DayIndex next_day() const { return next_day_; }
  [[nodiscard]] const MeasurementStore& measurements() const {
    return measurements_;
  }
  /// Mutable store access for the pipeline driver, which joins each day
  /// into a slot-local store and folds the columns back here in day
  /// order (MeasurementStore::put_day).
  [[nodiscard]] MeasurementStore& measurements_mut() { return measurements_; }
  [[nodiscard]] const PassiveLog& passive() const { return passive_; }
  [[nodiscard]] World& world() { return *world_; }

  /// Bytes of reusable day-loop scratch currently retained (this driver's
  /// per-client buffers plus the store's join keys). Warm after the
  /// first day; steady across subsequent days of similar size.
  [[nodiscard]] std::size_t scratch_capacity_bytes() const {
    return scratch_.capacity_bytes() + measurements_.scratch_capacity_bytes();
  }

 private:
  /// Shared kernel body: prepare_day, client fan-out, client-order merge
  /// into the given (cleared) log vectors, passive fold, sim.* metrics.
  DayStats kernel_into(std::vector<DnsLogEntry>& dns_log,
                       std::vector<HttpLogEntry>& http_log);

  World* world_;
  DayIndex next_day_ = 0;
  MeasurementStore measurements_;
  PassiveLog passive_;
  /// Per-day scratch (client outputs, merged log vectors): allocated on
  /// day 0, reused — not reallocated — by every later run_day().
  ScratchArena scratch_;
};

}  // namespace acdn
