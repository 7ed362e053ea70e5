#include "beacon/store.h"

#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/flat_group.h"
#include "common/metrics.h"
#include "common/radix.h"
#include "common/simd.h"

namespace acdn {

std::optional<Milliseconds> BeaconMeasurement::anycast_ms() const {
  for (const Target& t : targets) {
    if (t.anycast) return t.rtt_ms;
  }
  return std::nullopt;
}

std::optional<FrontEndId> BeaconMeasurement::anycast_front_end() const {
  for (const Target& t : targets) {
    if (t.anycast) return t.front_end;
  }
  return std::nullopt;
}

std::optional<BeaconMeasurement::Target> BeaconMeasurement::best_unicast()
    const {
  std::optional<Target> best;
  for (const Target& t : targets) {
    if (t.anycast) continue;
    if (!best || t.rtt_ms < best->rtt_ms) best = t;
  }
  return best;
}

void MeasurementStore::join(std::span<const DnsLogEntry> dns_log,
                            std::span<const HttpLogEntry> http_log,
                            int /*threads*/) {
  // Sort-merge join: DNS rows sorted by url_id and HTTP rows sorted by
  // beacon id (url_id / 4), log position breaking ties, then one forward
  // merge that appends each joined measurement straight into its day's
  // columns, in ascending beacon id.
  const PhaseSpan join_phase("join");
  metric_count("join.dns_rows", dns_log.size());
  metric_count("join.http_rows", http_log.size());

  static const FailPoint store_fault("beacon/store");
  const bool faults_armed = fail_points_armed();

  // Key columns, SoA: DNS url ids and HTTP beacon ids in log order.
  // Day-loop logs arrive presorted (client-major, monotone beacon ids),
  // so each column is checked — with the SIMD neighbor-compare kernel —
  // before paying the sort, and a sorted column keeps an empty position
  // column (log position == index). An unsorted one gets a *stable*
  // radix pair sort with log positions as payload, which yields (key, log
  // position) order without an explicit tie-breaker: the last entry of a
  // url_id run is the url's last DNS log row, and a beacon's HTTP rows
  // keep log order, which fixes the measurement's target order and
  // metadata row. Leased (not plain buffers): these slots stay live
  // across the radix passes, which take their own.
  auto dns_key_lease = scratch_.lease<std::uint64_t>("join.dns_key");
  auto dns_pos_lease = scratch_.lease<std::uint32_t>("join.dns_pos");
  auto http_key_lease = scratch_.lease<std::uint64_t>("join.http_key");
  auto http_pos_lease = scratch_.lease<std::uint32_t>("join.http_pos");
  dns_key_lease->resize(dns_log.size());
  for (std::size_t i = 0; i < dns_log.size(); ++i) {
    (*dns_key_lease)[i] = dns_log[i].url_id;
  }
  http_key_lease->resize(http_log.size());
  bool one_day = true;
  for (std::size_t i = 0; i < http_log.size(); ++i) {
    (*http_key_lease)[i] = http_log[i].url_id / 4;
    one_day = one_day && http_log[i].day == http_log[0].day;
  }
  const auto sort_unless_sorted = [&](std::vector<std::uint64_t>& key,
                                      std::vector<std::uint32_t>& pos) {
    if (simd::is_sorted_u64(std::span<const std::uint64_t>(key))) return;
    pos.resize(key.size());
    std::iota(pos.begin(), pos.end(), 0u);
    radix_sort_pairs(std::span<std::uint64_t>(key),
                     std::span<std::uint32_t>(pos), &scratch_);
  };
  sort_unless_sorted(*dns_key_lease, *dns_pos_lease);
  sort_unless_sorted(*http_key_lease, *http_pos_lease);
  // Read-only views for the merge: the columns it appends to cannot
  // alias them, so the compiler keeps the bounds in registers.
  const std::span<const std::uint64_t> dns_key(*dns_key_lease);
  const std::span<const std::uint32_t> dns_pos(*dns_pos_lease);
  const std::span<const std::uint64_t> http_key(*http_key_lease);
  const std::span<const std::uint32_t> http_pos(*http_pos_lease);
  const std::size_t dns_n = dns_key.size();
  const std::size_t http_n = http_key.size();

  std::size_t joined = 0;
  std::size_t orphan_http = 0;
  std::size_t measurements = 0;
  std::size_t dropped_rows = 0;
  std::size_t dropped_targets = 0;
  MeasurementColumns* dest = nullptr;
  DayIndex dest_day = -1;

  // Single merge pass over the HTTP beacon runs: both sequences ascend in
  // beacon id, so the DNS cursor only ever moves forward. A beacon's DNS
  // rows are the run with url_id in [4*beacon, 4*beacon + 4).
  auto runs = scratch_.lease<std::uint32_t>("join.runs");
  std::size_t d = 0;
  for_each_run_u64(http_key, *runs, [&](Run beacon_rows) {
    const std::uint64_t beacon = http_key[beacon_rows.begin];
    while (d < dns_n && dns_key[d] < beacon * 4) ++d;
    std::size_t d_end = d;
    while (d_end < dns_n && dns_key[d_end] < beacon * 4 + 4) ++d_end;

    bool opened = false;
    bool dropped = false;
    std::optional<Fault> fault;
    for (std::size_t h = beacon_rows.begin; h < beacon_rows.end; ++h) {
      const HttpLogEntry& row = http_log[http_pos.empty() ? h : http_pos[h]];
      // The last matching DNS row wins. The run holds at most a handful
      // of rows (four fetches per beacon), so the scan is cheaper than
      // any per-row search structure.
      const DnsLogEntry* match = nullptr;
      for (std::size_t k = d; k < d_end; ++k) {
        if (dns_key[k] == row.url_id) {
          match = &dns_log[dns_pos.empty() ? k : dns_pos[k]];
        }
      }
      if (match == nullptr) {
        ++orphan_http;  // unjoined fetch: drop
        continue;
      }
      ++joined;
      if (!opened) {
        // First joined HTTP row fixes the measurement metadata. The
        // "beacon/store" fail point models ingestion failures, keyed by
        // (day, beacon id): whole rows lost (drop/error) or RTTs mangled
        // on the way to storage (delay/corrupt).
        opened = true;
        ++measurements;
        if (row.day < 0) throw Error("measurement day must be non-negative");
        if (faults_armed) fault = store_fault.fire(row.day, beacon);
        dropped = fault && (fault->kind == FaultKind::kDrop ||
                            fault->kind == FaultKind::kError);
        if (dropped) {
          ++dropped_rows;
        } else {
          if (row.day != dest_day) {  // dest_day starts at -1
            const auto day = static_cast<std::size_t>(row.day);
            if (day >= by_day_.size()) by_day_.resize(day + 1);
            dest = &by_day_[day];
            dest_day = row.day;
            // A one-day batch (the day loop's case) reserves for every
            // beacon run and every HTTP row, upper bounds on what it
            // stores.
            if (one_day) {
              dest->reserve(dest->size() + runs->size(),
                            dest->target_count() + http_n);
            }
          }
          dest->append_row(beacon, row.client, match->ldns, row.day,
                           row.hour);
        }
      }
      if (dropped) {
        ++dropped_targets;
        continue;
      }
      Milliseconds rtt = row.rtt_ms;
      if (fault) {  // kDelay / kCorrupt: ingestion skews the stored RTT
        rtt = fault->kind == FaultKind::kDelay ? rtt + fault->magnitude
                                               : rtt * (1.0 + fault->magnitude);
      }
      dest->append_target(row.anycast, row.front_end, rtt);
    }
    d = d_end;
  });

  std::size_t distinct_urls = 0;
  for (std::size_t k = 0; k < dns_n; ++k) {
    if (k == 0 || dns_key[k] != dns_key[k - 1]) ++distinct_urls;
  }
  // Conservation ledger (chaos invariants): per join call,
  //   http_rows      == joined_targets + orphan_http
  //   distinct_dns   == joined_targets + orphan_dns
  //   joined_targets == stored_targets + dropped_targets
  //   measurements   == stored_rows + dropped_rows
  // URL ids are unique per fetch, so every joined HTTP row consumes a
  // distinct DNS url; the remainder never matched.
  metric_count("join.orphan_http", orphan_http);
  metric_count("join.orphan_dns", distinct_urls - joined);
  metric_count("join.measurements", measurements);
  metric_count("join.joined_targets", joined);
  metric_count("join.distinct_dns", distinct_urls);
  metric_count("join.stored_rows", measurements - dropped_rows);
  metric_count("join.stored_targets", joined - dropped_targets);
  metric_count("join.dropped_rows", dropped_rows);
  metric_count("join.dropped_targets", dropped_targets);
}

void MeasurementStore::add(BeaconMeasurement measurement) {
  require(measurement.day >= 0, "measurement day must be non-negative");
  if (static_cast<std::size_t>(measurement.day) >= by_day_.size()) {
    by_day_.resize(static_cast<std::size_t>(measurement.day) + 1);
  }
  by_day_[static_cast<std::size_t>(measurement.day)].push_back(measurement);
}

const MeasurementColumns& MeasurementStore::columns(DayIndex day) const {
  static const MeasurementColumns kEmpty;
  if (day < 0 || static_cast<std::size_t>(day) >= by_day_.size()) {
    return kEmpty;
  }
  return by_day_[static_cast<std::size_t>(day)];
}

std::vector<BeaconMeasurement> MeasurementStore::by_day(DayIndex day) const {
  return columns(day).rows();
}

MeasurementColumns MeasurementStore::take_day(DayIndex day) {
  if (day < 0 || static_cast<std::size_t>(day) >= by_day_.size()) return {};
  return std::exchange(by_day_[static_cast<std::size_t>(day)],
                       MeasurementColumns{});
}

void MeasurementStore::put_day(DayIndex day, MeasurementColumns&& columns) {
  require(day >= 0, "measurement day must be non-negative");
  if (static_cast<std::size_t>(day) >= by_day_.size()) {
    by_day_.resize(static_cast<std::size_t>(day) + 1);
  }
  MeasurementColumns& dest = by_day_[static_cast<std::size_t>(day)];
  if (dest.empty()) {
    dest = std::move(columns);
  } else {
    dest.append_all(columns);
  }
}

std::size_t MeasurementStore::total() const {
  std::size_t n = 0;
  for (const auto& v : by_day_) n += v.size();
  return n;
}

void PassiveLog::add(PassiveLogEntry entry) {
  require(entry.day >= 0, "log day must be non-negative");
  if (static_cast<std::size_t>(entry.day) >= by_day_.size()) {
    by_day_.resize(static_cast<std::size_t>(entry.day) + 1);
  }
  by_day_[static_cast<std::size_t>(entry.day)].push_back(entry);
}

std::span<const PassiveLogEntry> PassiveLog::by_day(DayIndex day) const {
  if (day < 0 || static_cast<std::size_t>(day) >= by_day_.size()) return {};
  return by_day_[static_cast<std::size_t>(day)];
}

std::size_t PassiveLog::total() const {
  std::size_t n = 0;
  for (const auto& v : by_day_) n += v.size();
  return n;
}

}  // namespace acdn
