#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/executor.h"
#include "sim/simulation.h"
#include "sim/world.h"

namespace acdn {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 7}) {
    std::vector<std::atomic<int>> hits(101);
    Executor::global().parallel_for(
        3, 101, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), (i >= 3 && i < 101) ? 1 : 0)
          << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  int calls = 0;
  Executor::global().parallel_for(5, 5, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  Executor::global().parallel_for(5, 6, 4, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::atomic<int> sum{0};
  Executor::global().parallel_for(0, 3, 64, [&](std::size_t i) {
    // NOLINT-ACDN(parallel-fp-accum): atomic integer add is commutative
    sum += int(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelFor, DefaultThreadCountPositive) {
  EXPECT_GE(default_thread_count(), 1);
}

// ----------------------------------------------------- sim determinism

namespace {

/// Order-insensitive but content-sensitive fingerprint of a run.
std::pair<double, std::size_t> fingerprint(int threads) {
  ScenarioConfig config = ScenarioConfig::small_test();
  config.simulation_threads = threads;
  World world(config);
  Simulation sim(world);
  sim.run_days(2);
  double sum = 0.0;
  std::size_t count = 0;
  for (DayIndex d = 0; d < 2; ++d) {
    for (const BeaconMeasurement& m : sim.measurements().by_day(d)) {
      for (const auto& t : m.targets) {
        sum += t.rtt_ms * double(m.beacon_id % 1009 + 1);
        ++count;
      }
    }
    for (const PassiveLogEntry& e : sim.passive().by_day(d)) {
      sum += e.queries * double(e.front_end.value + 1);
      ++count;
    }
  }
  return {sum, count};
}

}  // namespace

TEST(ParallelSimulation, ThreadCountDoesNotChangeResults) {
  const auto serial = fingerprint(1);
  const auto parallel2 = fingerprint(2);
  const auto parallel8 = fingerprint(8);
  EXPECT_EQ(serial.second, parallel2.second);
  EXPECT_EQ(serial.second, parallel8.second);
  EXPECT_DOUBLE_EQ(serial.first, parallel2.first);
  EXPECT_DOUBLE_EQ(serial.first, parallel8.first);
}

TEST(ParallelSimulation, MeasurementsArriveInClientOrder) {
  ScenarioConfig config = ScenarioConfig::small_test();
  config.simulation_threads = 8;
  World world(config);
  Simulation sim(world);
  sim.run_day();
  // Merged in client order: beacon ids are non-decreasing in client.
  std::uint32_t prev_client = 0;
  for (const BeaconMeasurement& m : sim.measurements().by_day(0)) {
    EXPECT_GE(m.client.value, prev_client);
    prev_client = m.client.value;
  }
}

}  // namespace
}  // namespace acdn
