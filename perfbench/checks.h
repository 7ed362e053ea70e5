// Output checks for the end-to-end benchmark.
//
// Every check compares a program output against an independent
// recomputation or a property the method must have — never against a
// stored copy of earlier output — so a deliberate re-pin of the scenario
// (new workload draws, new digests) does not break them. Each returns an
// empty string on success and a one-line description of the first
// violation otherwise; checks_test.cpp shows each one failing on a
// corrupted value.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "beacon/store.h"
#include "common/failpoint.h"
#include "common/flat_group.h"
#include "core/evaluator.h"
#include "core/predictor.h"
#include "stats/distribution.h"
#include "workload/clients.h"
#include "workload/schedule.h"

namespace perfbench {

/// Order-sensitive digest of every stored measurement field: equal
/// digests mean identical stores.
[[nodiscard]] std::uint64_t store_digest(const acdn::MeasurementStore& store);

/// Order-sensitive digest of every passive-log row.
[[nodiscard]] std::uint64_t passive_digest(const acdn::PassiveLog& log);

/// Two digests of what must be the same data agree.
[[nodiscard]] std::string check_digests_equal(const char* what,
                                              std::uint64_t expected,
                                              std::uint64_t actual);

/// Join conservation for one day's logs: the HTTP rows whose url_id has a
/// DNS row (counted with a hash set over the logs) equal the targets the
/// join stored plus the targets the store fault dropped.
[[nodiscard]] std::string check_join_conservation(
    std::span<const acdn::DnsLogEntry> dns_log,
    std::span<const acdn::HttpLogEntry> http_log,
    std::uint64_t stored_targets, std::uint64_t dropped_targets);

/// Beacon ids are unique within the day.
[[nodiscard]] std::string check_unique_beacon_ids(
    const acdn::MeasurementColumns& day);

/// The predictor's choice per group is the minimum 25th percentile
/// (type-7, as stats/quantile documents) among targets with at least
/// `min_measurements` samples of the training day, recomputed from the
/// rows; groups where nothing qualifies have no mapping (anycast).
[[nodiscard]] std::string check_predictor_minimum(
    const acdn::MeasurementColumns& training_day, acdn::Grouping grouping,
    int min_measurements,
    const acdn::FlatMap<std::uint32_t, acdn::Prediction>& predictions);

/// evaluated > 0; improved/worse fractions each in [0, 1], summing to at
/// most 1, at both percentiles.
[[nodiscard]] std::string check_eval_summary(const acdn::EvalSummary& summary);

/// Fig 3's CCDF is non-increasing within [0, 1], and its value at 25 ms
/// is the share of beacons whose anycast fetch is >= 25 ms slower than
/// their best unicast fetch, recomputed from the rows.
[[nodiscard]] std::string check_fig3_ccdf(
    std::span<const acdn::DistPoint> ccdf,
    std::span<const acdn::BeaconMeasurement> rows);

/// The day's passive query total equals the sum of
/// expected_queries_when_active over the clients active that day.
[[nodiscard]] std::string check_passive_total(
    const acdn::PassiveLog& log, acdn::DayIndex day,
    const acdn::ClientPopulation& clients,
    const acdn::QuerySchedule& schedule, std::uint64_t scenario_seed);

/// Every point with an armed rule fired at least once, and two runs of
/// the same schedule fired every point the same number of times.
[[nodiscard]] std::string check_fault_triggers(
    const acdn::FaultSchedule& schedule,
    const std::map<std::string, std::uint64_t>& first,
    const std::map<std::string, std::uint64_t>& second);

}  // namespace perfbench
