#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/failpoint.h"
#include "analysis/figures.h"
#include "core/evaluator.h"
#include "core/predictor.h"
#include "report/export.h"
#include "report/series.h"
#include "sim/simulation.h"
#include "sim/world.h"
#include "test_fixtures.h"

namespace acdn {
namespace {

/// Per-test file name: ctest runs every test in its own process, so under
/// `ctest -j` tests sharing a fixed name (the golden figure CSVs) would
/// overwrite and delete each other's files.
std::string temp_path(const char* name) {
  return ::testing::TempDir() +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

TEST(Export, PassiveLogRoundTrip) {
  PassiveLog log;
  log.add({ClientId(1), FrontEndId(2), 0, 10.5});
  log.add({ClientId(3), FrontEndId(0), 1, 0.25});
  log.add({ClientId(1), FrontEndId(2), 1, 99.0});

  const std::string path = temp_path("acdn_passive.csv");
  export_passive_log(log, path);
  const PassiveLog restored = import_passive_log(path);

  ASSERT_EQ(restored.days(), log.days());
  ASSERT_EQ(restored.total(), log.total());
  for (DayIndex d = 0; d < log.days(); ++d) {
    const auto original = log.by_day(d);
    const auto copy = restored.by_day(d);
    ASSERT_EQ(original.size(), copy.size()) << d;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(copy[i].client, original[i].client);
      EXPECT_EQ(copy[i].front_end, original[i].front_end);
      EXPECT_EQ(copy[i].day, original[i].day);
      EXPECT_DOUBLE_EQ(copy[i].queries, original[i].queries);
    }
  }
  std::remove(path.c_str());
}

TEST(Export, MeasurementsRoundTrip) {
  MeasurementStore store;
  store.add(testfx::make_measurement(1, 10, 0, 25.5,
                                     {{0, 40.0}, {2, 18.25}}));
  store.add(testfx::make_measurement(2, 11, 1, 12.0, {{1, 30.0}}));

  const std::string path = temp_path("acdn_measurements.csv");
  export_measurements(store, path);
  const MeasurementStore restored = import_measurements(path);

  ASSERT_EQ(restored.total(), store.total());
  ASSERT_EQ(restored.days(), store.days());
  for (DayIndex d = 0; d < store.days(); ++d) {
    const auto original = store.by_day(d);
    const auto copy = restored.by_day(d);
    ASSERT_EQ(original.size(), copy.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(copy[i].beacon_id, original[i].beacon_id);
      EXPECT_EQ(copy[i].client, original[i].client);
      EXPECT_EQ(copy[i].ldns, original[i].ldns);
      ASSERT_EQ(copy[i].targets.size(), original[i].targets.size());
      for (std::size_t t = 0; t < copy[i].targets.size(); ++t) {
        EXPECT_EQ(copy[i].targets[t].anycast, original[i].targets[t].anycast);
        EXPECT_EQ(copy[i].targets[t].front_end,
                  original[i].targets[t].front_end);
        EXPECT_DOUBLE_EQ(copy[i].targets[t].rtt_ms,
                         original[i].targets[t].rtt_ms);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Export, SimulatedDayRoundTripsLosslessly) {
  World world(ScenarioConfig::small_test());
  Simulation sim(world);
  sim.run_days(1);

  const std::string path = temp_path("acdn_simday.csv");
  export_measurements(sim.measurements(), path);
  const MeasurementStore restored = import_measurements(path);
  EXPECT_EQ(restored.total(), sim.measurements().total());

  // Figure analyses on the restored store match the originals.
  const auto original = daily_improvement(sim.measurements().by_day(0),
                                          Fig5Config{});
  const auto copy = daily_improvement(restored.by_day(0), Fig5Config{});
  ASSERT_EQ(original.size(), copy.size());
  for (const auto& [group, value] : original) {
    EXPECT_DOUBLE_EQ(copy.at(group), value) << group;
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------- golden figures
//
// Small-world renditions of the fig01 / fig03 / fig09 pipelines, digested
// with FNV-1a 64. The checked-in digests pin the exported CSV bytes: a
// change in simulation, analysis, or CSV formatting shows up here, and the
// serial-vs-parallel comparison proves the executor's determinism contract
// all the way to the exported artifact.

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string render_csv(const Figure& figure, const char* name) {
  const std::string path = temp_path(name);
  figure.write_csv(path);
  std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// small_test with a fault schedule attached — the differential tests
/// arm every fail point at probability zero and expect golden bytes.
ScenarioConfig small_test_with(const FaultSchedule& faults) {
  ScenarioConfig config = ScenarioConfig::small_test();
  config.faults = faults;
  return config;
}

std::string fig01_csv(int threads, const FaultSchedule& faults = {}) {
  World world(small_test_with(faults));
  Rng rng = world.fork_rng("fig1");
  constexpr int kRounds = 3;
  std::vector<std::vector<Milliseconds>> per_client;
  per_client.reserve(world.clients().size());
  for (const Client24& client : world.clients().clients()) {
    std::vector<Milliseconds> best;
    for (int round = 0; round < kRounds; ++round) {
      const SimTime when{0, 3600.0 * (2 + 4 * round)};
      const auto sample =
          world.beacon().measure_all_candidates(client, when, rng);
      if (best.empty()) {
        best = sample;
      } else {
        for (std::size_t i = 0; i < best.size(); ++i) {
          best[i] = std::min(best[i], sample[i]);
        }
      }
    }
    per_client.push_back(std::move(best));
  }
  const int ns[] = {1, 3, 5};
  const auto cdfs = fig1_min_latency_by_pool_size(per_client, ns, threads);
  Figure figure("fig01 golden", "min_latency_ms", "CDF of /24s");
  for (std::size_t i = 0; i < cdfs.size(); ++i) {
    figure.add_series(
        Series{std::to_string(ns[i]) + " front-ends", cdfs[i].cdf()});
  }
  return render_csv(figure, "acdn_fig01_golden.csv");
}

std::string fig03_csv(int threads, const FaultSchedule& faults = {}) {
  World world(small_test_with(faults));
  Simulation sim(world);
  sim.run_days(2);
  std::vector<BeaconMeasurement> all;
  for (DayIndex d = 0; d < 2; ++d) {
    const auto day = sim.measurements().by_day(d);
    all.insert(all.end(), day.begin(), day.end());
  }
  const DistributionBuilder world_d = fig3_anycast_minus_best_unicast(
      all, world.clients(), std::nullopt, threads);
  const DistributionBuilder europe = fig3_anycast_minus_best_unicast(
      all, world.clients(), Region::kEurope, threads);
  const double xs[] = {0, 10, 25, 50, 100};
  Figure figure("fig03 golden", "difference_ms", "CCDF of requests");
  figure.add_series(Series{"World", world_d.ccdf_at(xs)});
  figure.add_series(Series{"Europe", europe.ccdf_at(xs)});
  return render_csv(figure, "acdn_fig03_golden.csv");
}

std::string fig09_csv(int threads, const FaultSchedule& faults = {}) {
  ScenarioConfig config = small_test_with(faults);
  config.schedule.beacon_sampling = 0.15;
  World world(config);
  Simulation sim(world);
  sim.run_days(2);

  PredictionEvaluator::Config eval_config;
  eval_config.epsilon_ms = 0.0;
  eval_config.min_eval_samples = 1;
  eval_config.threads = threads;
  const PredictionEvaluator evaluator(world.clients(), world.ldns(),
                                      eval_config);
  Figure figure("fig09 golden", "improvement_ms", "CDF of weighted /24s");
  for (Grouping grouping : {Grouping::kEcsPrefix, Grouping::kLdns}) {
    PredictorConfig pc;
    pc.metric = PredictionMetric::kP25;
    pc.min_measurements = 1;
    pc.grouping = grouping;
    pc.threads = threads;
    HistoryPredictor predictor(pc);
    predictor.train(sim.measurements().by_day(0));
    const auto outcomes =
        evaluator.evaluate(predictor, sim.measurements().by_day(1));
    const EvalSummary summary = evaluator.summarize(outcomes);
    if (!summary.improvement_p50.empty()) {
      figure.add_series(Series{std::string(to_string(grouping)) + " p50",
                               summary.improvement_p50.cdf()});
    }
  }
  return render_csv(figure, "acdn_fig09_golden.csv");
}

TEST(GoldenFigures, Fig01SerialParallelAndDigestAgree) {
  const std::string serial = fig01_csv(1);
  const std::string parallel = fig01_csv(7);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a64(serial), 0x19aa0673cd067cd4ull);
}

TEST(GoldenFigures, Fig03SerialParallelAndDigestAgree) {
  const std::string serial = fig03_csv(1);
  const std::string parallel = fig03_csv(7);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a64(serial), 0xde0b818736d362f4ull);
}

TEST(GoldenFigures, Fig09SerialParallelAndDigestAgree) {
  const std::string serial = fig09_csv(1);
  const std::string parallel = fig09_csv(7);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(fnv1a64(serial), 0x58a16c56097e98caull);
}

TEST(GoldenFigures, ArmedAtZeroProbabilityIsByteIdenticalToDisarmed) {
  // Differential guarantee of the fault-injection layer: arming every
  // known fail point at p = 0.0 walks all the armed code paths (site-up
  // checks, per-fetch and per-row decisions, writer checks) yet changes
  // no decision and consumes no randomness — the exported figure bytes
  // must match the disarmed golden digests exactly.
  FaultSchedule zero;
  zero.seed = 0xd1ffull;
  for (const std::string_view point : known_fail_points()) {
    zero.rules.push_back({std::string(point), FaultKind::kDrop, 0.0, 0,
                          kFaultWindowOpen, 0.0});
  }
  EXPECT_EQ(fnv1a64(fig01_csv(3, zero)), 0x19aa0673cd067cd4ull);
  EXPECT_EQ(fnv1a64(fig03_csv(3, zero)), 0xde0b818736d362f4ull);
  EXPECT_EQ(fnv1a64(fig09_csv(3, zero)), 0x58a16c56097e98caull);
  FailPointRegistry::global().disarm();
}

TEST(Export, ImportRejectsMalformedInput) {
  const std::string path = temp_path("acdn_bad.csv");
  {
    std::ofstream out(path);
    out << "day,client,front_end,queries\n1,2,notanumber,4\n";
  }
  EXPECT_THROW((void)import_passive_log(path), Error);
  {
    std::ofstream out(path);
    out << "wrong,header\n";
  }
  EXPECT_THROW((void)import_passive_log(path), Error);
  EXPECT_THROW((void)import_measurements(path), Error);
  EXPECT_THROW((void)import_passive_log("/nonexistent/file.csv"), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace acdn
