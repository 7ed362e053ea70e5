// Cross-day pipeline determinism wall (sim/pipeline.h): the pipelined day
// loop must be byte-identical to the serial composition it replaced —
// Simulation::run_day per day, fig5_daily_prevalence over the finished
// store, per-row StreamingTrainer::observe — for every window size and
// thread count, with and without armed fault schedules. "Byte-identical"
// is checked the strong way: an order-sensitive digest of every stored
// measurement field, exact double equality on the figure-5 folds, the
// full trainer snapshot, per-point fault trigger counts, and the
// deterministic metrics counters (sim.*, join.*, fault.*, pipeline.* —
// executor.* counts how a configuration runs its passes — batches,
// tasks, async submissions — not what it computes, so it is left out;
// steals are histogram samples, not counters).
//
// Suites: Pipeline* runs on the CI TSan leg (the overlap is real
// concurrency); PipelineChaos* also matches the chaos leg's `-R Chaos`.
// The arena lease guard and Executor::submit get their own focused tests
// here too — they are the two mechanisms the overlap leans on.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/figures.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/executor.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/streaming.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"
#include "sim/simulation.h"
#include "sim/world.h"

namespace acdn {
namespace {

constexpr int kDays = 3;

std::uint64_t mix_into(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Order-sensitive digest of every stored measurement field (same scheme
/// as the chaos wall): equal digests mean byte-identical stores.
std::uint64_t store_digest(const MeasurementStore& store) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (DayIndex d = 0; d < store.days(); ++d) {
    for (const BeaconMeasurement& m : store.by_day(d)) {
      h = mix_into(h, m.beacon_id);
      h = mix_into(h, m.client.value);
      h = mix_into(h, m.ldns.value);
      h = mix_into(h, std::uint64_t(m.day));
      for (const BeaconMeasurement::Target& t : m.targets) {
        h = mix_into(h, t.anycast ? 1 : 0);
        h = mix_into(h, t.front_end.value);
        h = mix_into(h, std::bit_cast<std::uint64_t>(t.rtt_ms));
      }
    }
  }
  return h;
}

/// The schedule exercises the store fail point (whose per-row fold is the
/// join path the pipeline must not reorder) plus an upstream beacon drop.
FaultSchedule pipeline_schedule() {
  FaultSchedule schedule;
  schedule.seed = 0x91be11ull;
  schedule.rules = {
      {"beacon/http_fetch", FaultKind::kDrop, 0.10, 0, kFaultWindowOpen,
       0.0},
      {"beacon/store", FaultKind::kDrop, 0.05, 0, 1, 0.0},
      {"beacon/store", FaultKind::kDelay, 0.05, 2, kFaultWindowOpen, 7.5},
  };
  return schedule;
}

PredictorConfig predictor_config() {
  PredictorConfig config;
  config.min_measurements = 3;  // the small world has few samples per day
  return config;
}

Fig5Config fig5_config() { return Fig5Config{}; }

/// Counters compared across window sizes and thread counts. executor.*
/// counts how each configuration runs its passes (async submissions
/// follow the window), and wall-clock phases are run-dependent.
std::map<std::string, std::uint64_t> deterministic_counters(
    const MetricsSnapshot& snapshot, bool include_pipeline) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : snapshot.counters) {
    const bool keep = name.rfind("sim.", 0) == 0 ||
                      name.rfind("join.", 0) == 0 ||
                      name.rfind("fault.", 0) == 0 ||
                      (include_pipeline && name.rfind("pipeline.", 0) == 0);
    if (keep) out.emplace(name, value);
  }
  return out;
}

struct RunResult {
  std::uint64_t digest = 0;
  std::vector<DayStats> days;
  std::vector<Fig5Day> prevalence;
  std::uint64_t observed = 0;
  std::vector<std::pair<std::uint32_t, Prediction>> predictions;
  std::map<std::string, std::uint64_t> trigger_counts;
  std::map<std::string, std::uint64_t> counters;
};

std::vector<std::pair<std::uint32_t, Prediction>> snapshot_of(
    const StreamingTrainer& trainer) {
  std::vector<std::pair<std::uint32_t, Prediction>> out;
  for (const auto& [group, prediction] : trainer.snapshot()) {
    out.emplace_back(group, prediction);
  }
  return out;
}

/// The pre-pipeline composition: run_day per day, then the batch figure-5
/// pass over the finished store, with the trainer fed row structs in day
/// order. This is the reference every pipelined variant must reproduce.
RunResult run_serial_reference(bool with_faults) {
  MetricsRegistry::global().reset();
  set_metrics_enabled(true);

  ScenarioConfig config = ScenarioConfig::small_test();
  config.simulation_threads = 2;
  if (with_faults) config.faults = pipeline_schedule();
  World world(config);
  Simulation sim(world);
  StreamingTrainer trainer(predictor_config());

  RunResult run;
  for (int i = 0; i < kDays; ++i) run.days.push_back(sim.run_day());
  for (DayIndex d = 0; d < sim.measurements().days(); ++d) {
    for (const BeaconMeasurement& m : sim.measurements().by_day(d)) {
      trainer.observe(m);
    }
  }
  run.prevalence = fig5_daily_prevalence(sim.measurements(), fig5_config());
  run.digest = store_digest(sim.measurements());
  run.observed = trainer.observed();
  run.predictions = snapshot_of(trainer);
  run.trigger_counts = FailPointRegistry::global().trigger_counts();
  run.counters = deterministic_counters(MetricsRegistry::global().snapshot(),
                                        /*include_pipeline=*/false);

  set_metrics_enabled(false);
  MetricsRegistry::global().reset();
  FailPointRegistry::global().disarm();
  return run;
}

RunResult run_pipelined(int window, int threads, bool with_faults,
                        bool include_pipeline_counters) {
  MetricsRegistry::global().reset();
  set_metrics_enabled(true);

  ScenarioConfig config = ScenarioConfig::small_test();
  config.simulation_threads = threads;
  if (with_faults) config.faults = pipeline_schedule();
  World world(config);
  Simulation sim(world);

  PipelineOptions options;
  options.window = window;
  options.threads = threads;
  options.fig5 = fig5_config();
  options.predictor = predictor_config();
  ScenarioPipeline pipeline(sim, options);
  const PipelineResult result = pipeline.run_days(kDays);

  RunResult run;
  run.days = result.days;
  run.prevalence = result.prevalence;
  run.observed = result.observed;
  run.digest = store_digest(sim.measurements());
  run.predictions = snapshot_of(*pipeline.trainer());
  run.trigger_counts = FailPointRegistry::global().trigger_counts();
  run.counters = deterministic_counters(MetricsRegistry::global().snapshot(),
                                        include_pipeline_counters);

  set_metrics_enabled(false);
  MetricsRegistry::global().reset();
  FailPointRegistry::global().disarm();
  return run;
}

void expect_equal(const RunResult& a, const RunResult& b,
                  const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.digest, b.digest);
  ASSERT_EQ(a.days.size(), b.days.size());
  for (std::size_t i = 0; i < a.days.size(); ++i) {
    EXPECT_EQ(a.days[i].day, b.days[i].day);
    EXPECT_EQ(a.days[i].beacons, b.days[i].beacons);
    EXPECT_EQ(a.days[i].passive_entries, b.days[i].passive_entries);
    EXPECT_EQ(a.days[i].clients_flapping, b.days[i].clients_flapping);
  }
  ASSERT_EQ(a.prevalence.size(), b.prevalence.size());
  for (std::size_t i = 0; i < a.prevalence.size(); ++i) {
    EXPECT_EQ(a.prevalence[i].day, b.prevalence[i].day);
    // Exact double equality: the fold replays the same arithmetic in the
    // same order, so there is no tolerance to grant.
    EXPECT_EQ(a.prevalence[i].fraction_above, b.prevalence[i].fraction_above);
  }
  EXPECT_EQ(a.observed, b.observed);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i].first, b.predictions[i].first);
    EXPECT_EQ(a.predictions[i].second.anycast, b.predictions[i].second.anycast);
    EXPECT_EQ(a.predictions[i].second.front_end.value,
              b.predictions[i].second.front_end.value);
    EXPECT_EQ(a.predictions[i].second.predicted_ms,
              b.predictions[i].second.predicted_ms);
    EXPECT_EQ(a.predictions[i].second.anycast_ms,
              b.predictions[i].second.anycast_ms);
  }
  EXPECT_EQ(a.trigger_counts, b.trigger_counts);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(Pipeline, MatchesSerialComposition) {
  const RunResult serial = run_serial_reference(/*with_faults=*/false);
  const RunResult piped = run_pipelined(/*window=*/2, /*threads=*/2,
                                        /*with_faults=*/false,
                                        /*include_pipeline_counters=*/false);
  EXPECT_GT(serial.days.size(), 0u);
  EXPECT_GT(serial.observed, 0u);
  expect_equal(serial, piped, "serial vs window=2/threads=2");
}

TEST(Pipeline, ByteIdenticalAcrossWindowsAndThreads) {
  const RunResult baseline = run_pipelined(0, 1, /*with_faults=*/false,
                                           /*include_pipeline_counters=*/true);
  for (const int window : {1, 2, 4}) {
    for (const int threads : {1, 2, 8}) {
      const RunResult run = run_pipelined(window, threads, false, true);
      expect_equal(baseline, run,
                   "window=" + std::to_string(window) +
                       " threads=" + std::to_string(threads));
    }
  }
}

TEST(Pipeline, RingSurvivesMultipleRunDaysCalls) {
  MetricsRegistry::global().reset();
  ScenarioConfig config = ScenarioConfig::small_test();
  World world(config);
  Simulation sim(world);
  PipelineOptions options;
  options.window = 2;
  ScenarioPipeline pipeline(sim, options);

  // 2 + 1 days through one pipeline must equal 3 through another: the
  // ring cursor persists and run_days drains before returning.
  PipelineResult first = pipeline.run_days(2);
  const PipelineResult second = pipeline.run_days(1);
  ASSERT_EQ(first.days.size(), 2u);
  ASSERT_EQ(second.days.size(), 1u);
  first.days.insert(first.days.end(), second.days.begin(),
                    second.days.end());
  first.prevalence.insert(first.prevalence.end(), second.prevalence.begin(),
                          second.prevalence.end());
  const std::uint64_t split_digest = store_digest(sim.measurements());

  ScenarioConfig config2 = ScenarioConfig::small_test();
  World world2(config2);
  Simulation sim2(world2);
  ScenarioPipeline pipeline2(sim2, options);
  const PipelineResult whole = pipeline2.run_days(3);

  EXPECT_EQ(split_digest, store_digest(sim2.measurements()));
  ASSERT_EQ(first.days.size(), whole.days.size());
  for (std::size_t i = 0; i < whole.days.size(); ++i) {
    EXPECT_EQ(first.days[i].day, whole.days[i].day);
    EXPECT_EQ(first.days[i].beacons, whole.days[i].beacons);
  }
  ASSERT_EQ(first.prevalence.size(), whole.prevalence.size());
  for (std::size_t i = 0; i < whole.prevalence.size(); ++i) {
    EXPECT_EQ(first.prevalence[i].fraction_above,
              whole.prevalence[i].fraction_above);
  }
}

TEST(PipelineChaos, MatchesSerialCompositionUnderFaults) {
  const RunResult serial = run_serial_reference(/*with_faults=*/true);
  const RunResult piped = run_pipelined(2, 2, /*with_faults=*/true,
                                        /*include_pipeline_counters=*/false);
  // The schedule must actually bite, or this wall proves nothing.
  ASSERT_GT(serial.trigger_counts.at("beacon/store"), 0u);
  ASSERT_GT(serial.trigger_counts.at("beacon/http_fetch"), 0u);
  expect_equal(serial, piped, "faulted serial vs window=2/threads=2");
}

TEST(PipelineChaos, ByteIdenticalAcrossWindowsAndThreadsUnderFaults) {
  const RunResult baseline = run_pipelined(0, 1, /*with_faults=*/true,
                                           /*include_pipeline_counters=*/true);
  ASSERT_GT(baseline.trigger_counts.at("beacon/store"), 0u);
  for (const int window : {1, 2, 4}) {
    for (const int threads : {1, 2, 8}) {
      const RunResult run = run_pipelined(window, threads, true, true);
      expect_equal(baseline, run,
                   "window=" + std::to_string(window) +
                       " threads=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------- arena leases

TEST(PipelineArenaLease, ReleaseThenReacquireIsClean) {
  ScratchArena arena;
  {
    ArenaLease<int> lease = arena.lease<int>("slot");
    lease->push_back(7);
    EXPECT_EQ(lease.get().size(), 1u);
  }  // lease released here
  ArenaLease<int> again = arena.lease<int>("slot");
  // lease<T> clears: same storage, fresh content.
  EXPECT_TRUE(again.get().empty());
  ArenaLease<int> other = arena.lease<int>("other-slot");  // disjoint id: fine
  other->push_back(1);
}

#if ACDN_DCHECK_ENABLED
TEST(PipelineArenaLeaseDeathTest, DoubleAcquireDies) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScratchArena arena;
  ArenaLease<int> held = arena.lease<int>("slot");
  EXPECT_DEATH((void)arena.lease<int>("slot"), "leased twice");
  EXPECT_DEATH((void)arena.buffer<int>("slot"), "acquired while leased");
}
#endif

// ------------------------------------------------------- Executor::submit

TEST(ExecutorSubmitTest, RunsTaskAndJoinReturnsAfterCompletion) {
  std::atomic<int> ran{0};
  TaskHandle handle = Executor::global().submit([&] { ran.fetch_add(1); });
  handle.join();
  EXPECT_EQ(ran.load(), 1);
  handle.join();  // joining a joined handle is a no-op
}

TEST(ExecutorSubmitTest, DestructorWaitsWithoutJoin) {
  std::atomic<int> ran{0};
  {
    TaskHandle handle = Executor::global().submit([&] { ran.fetch_add(1); });
  }  // destructor must wait: `ran` lives on this frame
  EXPECT_EQ(ran.load(), 1);
}

TEST(ExecutorSubmitTest, JoinRethrowsTaskException) {
  TaskHandle handle = Executor::global().submit(
      [] { throw std::runtime_error("async boom"); });
  EXPECT_THROW(handle.join(), std::runtime_error);
}

TEST(ExecutorSubmitTest, OverlapsWithBlockingParallelFor) {
  // The pipeline's exact shape: an async task in flight while the
  // submitting thread runs blocking batches. Must not deadlock at any
  // pool size (the async worker never owes the blocking batch chunks).
  std::atomic<std::uint64_t> async_sum{0};
  TaskHandle handle = Executor::global().submit([&] {
    for (int i = 0; i < 1000; ++i) async_sum.fetch_add(1);
  });
  std::atomic<std::uint64_t> sum{0};
  Executor::global().parallel_for(0, 10000, 4,
                                  [&](std::size_t) { sum.fetch_add(1); });
  handle.join();
  EXPECT_EQ(sum.load(), 10000u);
  EXPECT_EQ(async_sum.load(), 1000u);
}

TEST(ExecutorSubmitTest, ManyConcurrentHandles) {
  std::atomic<std::uint64_t> total{0};
  std::vector<TaskHandle> handles;
  handles.reserve(16);
  for (int i = 0; i < 16; ++i) {
    handles.push_back(
        Executor::global().submit([&total, i] { total.fetch_add(i + 1); }));
  }
  for (TaskHandle& h : handles) h.join();
  EXPECT_EQ(total.load(), 136u);  // 1 + 2 + ... + 16
}

}  // namespace
}  // namespace acdn
