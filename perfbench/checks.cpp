#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

namespace {

using namespace acdn;

std::uint64_t mix_into(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::string format(const char* fmt, double a, double b) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

/// Type-7 quantile (linear interpolation between order statistics), the
/// definition stats/quantile.h documents, written out here so the check
/// does not call the code it checks.
double type7_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return values[0];
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

}  // namespace

std::uint64_t store_digest(const MeasurementStore& store) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (DayIndex d = 0; d < store.days(); ++d) {
    const MeasurementColumns& c = store.columns(d);
    for (std::size_t i = 0; i < c.size(); ++i) {
      h = mix_into(h, c.beacon_id[i]);
      h = mix_into(h, c.client[i].value);
      h = mix_into(h, c.ldns[i].value);
      h = mix_into(h, std::uint64_t(c.day[i]));
      h = mix_into(h, std::bit_cast<std::uint64_t>(c.hour[i]));
      for (std::size_t t = c.row_targets_begin(i); t < c.row_targets_end(i);
           ++t) {
        h = mix_into(h, c.target_anycast[t]);
        h = mix_into(h, c.target_front_end[t]);
        h = mix_into(h, std::bit_cast<std::uint64_t>(c.target_rtt[t]));
      }
    }
  }
  return h;
}

std::uint64_t passive_digest(const PassiveLog& log) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (DayIndex d = 0; d < log.days(); ++d) {
    for (const PassiveLogEntry& e : log.by_day(d)) {
      h = mix_into(h, e.client.value);
      h = mix_into(h, e.front_end.value);
      h = mix_into(h, std::uint64_t(e.day));
      h = mix_into(h, std::bit_cast<std::uint64_t>(e.queries));
    }
  }
  return h;
}

std::string check_digests_equal(const char* what, std::uint64_t expected,
                                std::uint64_t actual) {
  if (expected == actual) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s digest %016llx != %016llx", what,
                static_cast<unsigned long long>(actual),
                static_cast<unsigned long long>(expected));
  return buf;
}

std::string check_join_conservation(std::span<const DnsLogEntry> dns_log,
                                    std::span<const HttpLogEntry> http_log,
                                    std::uint64_t stored_targets,
                                    std::uint64_t dropped_targets) {
  std::unordered_set<std::uint64_t> dns_urls;
  dns_urls.reserve(dns_log.size());
  for (const DnsLogEntry& e : dns_log) dns_urls.insert(e.url_id);
  std::uint64_t matched = 0;
  for (const HttpLogEntry& e : http_log) matched += dns_urls.count(e.url_id);
  if (matched == stored_targets + dropped_targets) return {};
  return format("join: %.0f HTTP rows have a DNS row, but stored + dropped "
                "targets = %.0f",
                double(matched), double(stored_targets + dropped_targets));
}

std::string check_unique_beacon_ids(const MeasurementColumns& day) {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(day.size());
  for (const std::uint64_t id : day.beacon_id) {
    if (!seen.insert(id).second) {
      return "beacon id " + std::to_string(id) + " stored twice in one day";
    }
  }
  return {};
}

std::string check_predictor_minimum(
    const MeasurementColumns& training_day, Grouping grouping,
    int min_measurements,
    const FlatMap<std::uint32_t, Prediction>& predictions) {
  // (group, target) -> samples, from the rows. Target key: front-end id,
  // or kAnycast for the anycast fetch.
  constexpr std::uint64_t kAnycast = 0xffffffffull;
  std::unordered_map<std::uint32_t,
                     std::unordered_map<std::uint64_t, std::vector<double>>>
      samples;
  for (std::size_t i = 0; i < training_day.size(); ++i) {
    const std::uint32_t group = grouping == Grouping::kEcsPrefix
                                    ? training_day.client[i].value
                                    : training_day.ldns[i].value;
    auto& targets = samples[group];
    for (std::size_t t = training_day.row_targets_begin(i);
         t < training_day.row_targets_end(i); ++t) {
      const std::uint64_t key = training_day.target_anycast[t] != 0
                                    ? kAnycast
                                    : training_day.target_front_end[t];
      targets[key].push_back(training_day.target_rtt[t]);
    }
  }

  std::size_t expected_entries = 0;
  for (const auto& [group, targets] : samples) {
    bool any = false;
    double best = 0.0;
    std::unordered_map<std::uint64_t, double> value;
    for (const auto& [key, s] : targets) {
      if (static_cast<int>(s.size()) < min_measurements) continue;
      const double v = type7_quantile(s, 0.25);
      value[key] = v;
      if (!any || v < best) best = v;
      any = true;
    }
    const auto it = predictions.find(group);
    if (!any) {
      if (it != predictions.end() && !it->second.anycast) {
        return format("group %.0f: no target has %.0f samples, but a "
                      "unicast front-end was chosen",
                      double(group), double(min_measurements));
      }
      if (it != predictions.end()) ++expected_entries;
      continue;
    }
    ++expected_entries;
    if (it == predictions.end()) {
      return format("group %.0f has qualifying targets (best p25 %.3f ms) "
                    "but no prediction",
                    double(group), best);
    }
    const Prediction& p = it->second;
    const std::uint64_t chosen = p.anycast ? kAnycast : p.front_end.value;
    const auto chosen_value = value.find(chosen);
    if (chosen_value == value.end()) {
      return format("group %.0f: chosen target %.0f did not qualify",
                    double(group), double(chosen));
    }
    if (!close(chosen_value->second, best) || !close(p.predicted_ms, best)) {
      return format("chosen p25 %.6f ms is not the minimum %.6f ms",
                    p.predicted_ms, best);
    }
  }
  if (expected_entries != predictions.size()) {
    return format("%.0f predictions, but the rows support %.0f",
                  double(predictions.size()), double(expected_entries));
  }
  return {};
}

std::string check_eval_summary(const EvalSummary& summary) {
  if (summary.evaluated == 0) return "evaluator: nothing was evaluated";
  const double pairs[2][2] = {
      {summary.fraction_improved_p50, summary.fraction_worse_p50},
      {summary.fraction_improved_p75, summary.fraction_worse_p75}};
  for (const auto& pair : pairs) {
    for (const double f : pair) {
      if (!(f >= 0.0 && f <= 1.0)) {
        return "evaluator: fraction " + std::to_string(f) +
               " outside [0, 1]";
      }
    }
    if (pair[0] + pair[1] > 1.0 + 1e-12) {
      return format("evaluator: improved %.6f + worse %.6f exceeds 1",
                    pair[0], pair[1]);
    }
  }
  return {};
}

std::string check_fig3_ccdf(std::span<const DistPoint> ccdf,
                            std::span<const BeaconMeasurement> rows) {
  if (ccdf.empty()) return "fig3: empty CCDF";
  double value_at_25 = 1.0;  // CCDF before the first point
  for (std::size_t i = 0; i < ccdf.size(); ++i) {
    const DistPoint& p = ccdf[i];
    if (!(p.y >= -1e-12 && p.y <= 1.0 + 1e-12)) {
      return format("fig3: CCDF value %.6f at %.3f ms outside [0, 1]", p.y,
                    p.x);
    }
    if (i > 0 && (p.x <= ccdf[i - 1].x || p.y > ccdf[i - 1].y + 1e-12)) {
      return format("fig3: CCDF rises or repeats x at %.3f ms (%.6f)", p.x,
                    p.y);
    }
    if (p.x <= 25.0) value_at_25 = p.y;
  }
  // Share of beacons >= 25 ms slower than their best unicast fetch. The
  // CCDF counts values strictly above 25 ms; the two differ only by
  // beacons exactly 25 ms slower, so the value must lie between them.
  std::size_t beacons = 0;
  std::size_t above = 0;
  std::size_t at_least = 0;
  for (const BeaconMeasurement& m : rows) {
    bool have_anycast = false;
    double anycast = 0.0;
    bool have_unicast = false;
    double best = 0.0;
    for (const BeaconMeasurement::Target& t : m.targets) {
      if (t.anycast) {
        if (!have_anycast) anycast = t.rtt_ms;
        have_anycast = true;
      } else if (!have_unicast || t.rtt_ms < best) {
        best = t.rtt_ms;
        have_unicast = true;
      }
    }
    if (!have_anycast || !have_unicast) continue;
    ++beacons;
    above += anycast - best > 25.0;
    at_least += anycast - best >= 25.0;
  }
  if (beacons == 0) return "fig3: no beacon has anycast and unicast fetches";
  const double lo = double(above) / double(beacons);
  const double hi = double(at_least) / double(beacons);
  if (value_at_25 < lo - 1e-9 || value_at_25 > hi + 1e-9) {
    return format("fig3: CCDF at 25 ms is %.6f, recomputed share is %.6f",
                  value_at_25, hi);
  }
  return {};
}

std::string check_passive_total(const PassiveLog& log, DayIndex day,
                                const ClientPopulation& clients,
                                const QuerySchedule& schedule,
                                std::uint64_t scenario_seed) {
  double logged = 0.0;
  for (const PassiveLogEntry& e : log.by_day(day)) logged += e.queries;
  double expected = 0.0;
  for (const Client24& c : clients.clients()) {
    if (!schedule.is_active(c, day, scenario_seed)) continue;
    const double q = schedule.expected_queries_when_active(c, day);
    if (q > 0.0) expected += q;
  }
  if (std::abs(logged - expected) <= 1e-9 * std::max(1.0, expected)) {
    return {};
  }
  return format("passive: day total %.6f queries, active clients expect "
                "%.6f",
                logged, expected);
}

std::string check_fault_triggers(
    const FaultSchedule& schedule,
    const std::map<std::string, std::uint64_t>& first,
    const std::map<std::string, std::uint64_t>& second) {
  for (const FaultRule& rule : schedule.rules) {
    const auto it = first.find(rule.point);
    if (it == first.end() || it->second == 0) {
      return "faults: armed point " + rule.point + " never fired";
    }
  }
  if (first != second) {
    for (const auto& [point, count] : first) {
      const auto it = second.find(point);
      const std::uint64_t other = it == second.end() ? 0 : it->second;
      if (other != count) {
        return "faults: " + point + " fired " + std::to_string(count) +
               " and " + std::to_string(other) + " times in two runs";
      }
    }
    return "faults: the two runs fired different point sets";
  }
  return {};
}

}  // namespace perfbench
