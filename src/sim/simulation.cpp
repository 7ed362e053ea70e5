#include "sim/simulation.h"

#include <string>

#include "common/check.h"
#include "common/executor.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace acdn {

namespace {

/// Keyed seed for a (scenario, day, client) substream: every client draws
/// from its own generator, so results do not depend on iteration order or
/// on which thread simulates which client.
std::uint64_t client_day_seed(std::uint64_t scenario_seed, DayIndex day,
                              ClientId client) {
  std::uint64_t x = scenario_seed;
  x ^= (std::uint64_t(day) + 1) * 0x9e3779b97f4a7c15ull;
  x ^= (std::uint64_t(client.value) + 1) * 0xc2b2ae3d27d4eb4full;
  return x;
}

/// Everything one client contributes to one day; filled concurrently,
/// merged in client order.
struct ClientDayOutput {
  bool active = false;
  bool flapping = false;
  /// Beacons executed, counted directly: the dns-log row count is NOT a
  /// proxy — dns/resolve faults suppress rows while the beacon still ran.
  std::uint64_t beacons = 0;
  std::vector<PassiveLogEntry> passive;
  std::vector<DnsLogEntry> dns_log;
  std::vector<HttpLogEntry> http_log;
};

/// Beacon-id bit layout: day-major, client-major, ordinal-minor. The
/// packing is order-preserving in (day, client, ordinal), which the
/// sort-merge join relies on. 20 ordinal bits comfortably hold the
/// heaviest /24's beacon draw; the old 12-bit field silently aliased ids
/// past 4095 beacons per client-day.
constexpr int kBeaconOrdinalBits = 20;
constexpr int kBeaconClientBits = 26;

std::uint64_t pack_beacon_id(DayIndex day, ClientId client, int ordinal) {
  ACDN_CHECK_LT(std::uint64_t(day), std::uint64_t(1) << 16);
  ACDN_CHECK_LT(std::uint64_t(client.value),
                std::uint64_t(1) << kBeaconClientBits);
  ACDN_CHECK_LT(std::uint64_t(ordinal),
                std::uint64_t(1) << kBeaconOrdinalBits);
  return (std::uint64_t(day) << (kBeaconClientBits + kBeaconOrdinalBits)) |
         (std::uint64_t(client.value) << kBeaconOrdinalBits) |
         std::uint64_t(ordinal);
}

}  // namespace

void Simulation::run_days(int n) {
  for (int i = 0; i < n; ++i) run_day();
}

DayStats Simulation::run_day() {
  const PhaseSpan day_phase("sim.day");
  const ScopedTimer day_timer("sim.day_ms");
  std::vector<DnsLogEntry>& dns_log =
      scratch_.buffer<DnsLogEntry>("sim.dns_log");
  std::vector<HttpLogEntry>& http_log =
      scratch_.buffer<HttpLogEntry>("sim.http_log");
  const DayStats stats = kernel_into(dns_log, http_log);
  measurements_.join(dns_log, http_log);
  return stats;
}

DayStats Simulation::run_day_kernel(std::vector<DnsLogEntry>& dns_log,
                                    std::vector<HttpLogEntry>& http_log) {
  const PhaseSpan day_phase("sim.day");
  const ScopedTimer day_timer("sim.day_ms");
  dns_log.clear();
  http_log.clear();
  return kernel_into(dns_log, http_log);
}

DayStats Simulation::kernel_into(std::vector<DnsLogEntry>& dns_log,
                                 std::vector<HttpLogEntry>& http_log) {
  const DayIndex day = next_day_++;
  World& w = *world_;
  // Advance dynamics and resolve every routing unit's route once: the
  // client fan-out below answers anycast_today from the day plan's flat
  // table instead of re-deriving routes per client.
  w.prepare_day(day, w.config().simulation_threads);

  const QuerySchedule& schedule = w.schedule();
  const auto clients = w.clients().clients();
  // Per-client outputs come from the arena: the raw lease keeps each
  // slot's nested vector capacity across days, so only day 0 pays
  // allocation — and the lease guard catches any overlapping acquisition
  // (two kernels can never share this arena). Reset the slots we are
  // about to use in place instead of clear()ing.
  auto outputs_lease =
      scratch_.lease_raw<ClientDayOutput>("sim.outputs");
  std::vector<ClientDayOutput>& outputs = outputs_lease.get();
  if (outputs.size() < clients.size()) outputs.resize(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    outputs[i].active = false;
    outputs[i].flapping = false;
    outputs[i].beacons = 0;
    outputs[i].passive.clear();
    outputs[i].dns_log.clear();
    outputs[i].http_log.clear();
  }

  {
  const PhaseSpan clients_phase("clients");
  Executor::global().parallel_for(
      0, clients.size(), w.config().simulation_threads,
      [&](std::size_t i) {
    const Client24& client = clients[i];
    ClientDayOutput& out = outputs[i];
    if (!schedule.is_active(client, day, w.config().seed)) return;
    const double expected =
        schedule.expected_queries_when_active(client, day);
    if (expected <= 0.0) return;

    const World::DayRoute route = w.anycast_today(client);
    if (!route.primary.valid) return;  // unreachable (never in practice)
    out.active = true;
    // Per-(active client, day) expected query volume: the histogram's sum
    // is the day's total production query load.
    metric_observe("sim.client_queries", expected);

    // --- Passive production logs: aggregate counts per front-end.
    if (route.alternate) {
      out.flapping = true;
      const double alt_queries = expected * route.alternate_share;
      out.passive.push_back(PassiveLogEntry{
          client.id, route.primary.front_end, day, expected - alt_queries});
      out.passive.push_back(PassiveLogEntry{
          client.id, route.alternate->front_end, day, alt_queries});
    } else {
      out.passive.push_back(
          PassiveLogEntry{client.id, route.primary.front_end, day, expected});
    }

    // --- Beacon executions on a sampled fraction of page loads.
    Rng rng(client_day_seed(w.config().seed, day, client.id));
    const double beacon_mean = expected * schedule.config().beacon_sampling;
    const int beacons = rng.poisson(beacon_mean);
    out.beacons = std::uint64_t(beacons);
    for (int b = 0; b < beacons; ++b) {
      // Globally unique, coordinate-derived beacon id: no shared counter.
      const std::uint64_t beacon_id = pack_beacon_id(day, client.id, b);
      const SimTime when = schedule.sample_query_time(day, rng);
      const RouteResult& anycast_route =
          (route.alternate && rng.bernoulli(route.alternate_share))
              ? *route.alternate
              : route.primary;
      w.beacon().run_beacon(beacon_id, client, when, anycast_route, rng,
                            out.dns_log, out.http_log);
    }
  });
  }  // close the "clients" phase before merging and joining

  // Merge in client order: byte-identical output for any thread count.
  // The merged vectors (arena-backed in run_day, slot-owned under the
  // pipeline) are sized in one pass up front.
  {
    std::size_t dns_total = 0;
    std::size_t http_total = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      dns_total += outputs[i].dns_log.size();
      http_total += outputs[i].http_log.size();
    }
    dns_log.reserve(dns_total);
    http_log.reserve(http_total);
  }
  DayStats stats;
  stats.day = day;
  std::size_t clients_active = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ClientDayOutput& out = outputs[i];
    if (!out.active) continue;
    ++clients_active;
    for (const PassiveLogEntry& e : out.passive) passive_.add(e);
    stats.passive_entries += out.passive.size();
    if (out.flapping) ++stats.clients_flapping;
    stats.beacons += out.beacons;
    dns_log.insert(dns_log.end(), out.dns_log.begin(), out.dns_log.end());
    http_log.insert(http_log.end(), out.http_log.begin(),
                    out.http_log.end());
  }
  metric_count("sim.days");
  metric_count("sim.beacons", stats.beacons);
  metric_count("sim.passive_rows", stats.passive_entries);
  metric_count("sim.clients_active", clients_active);
  metric_count("sim.clients_flapping", stats.clients_flapping);

  Log(LogLevel::kInfo) << "day " << day << " ("
                       << to_string(w.calendar().weekday(day)) << "): "
                       << stats.beacons << " beacons, "
                       << stats.passive_entries << " passive rows";
  return stats;
}

}  // namespace acdn
