// Cross-day pipeline: overlap day N's analysis with day N+1's kernel,
// deterministically.
//
// Simulation::run_day has two halves with very different constraints. The
// *kernel* (World::prepare_day + the client fan-out and beacon
// executions) must stay serial across days: RouteDynamics and the RNG
// substreams advance day-by-day, so day N+1 cannot start until day N's
// kernel finished. The *analysis tail* (DNS×HTTP join, DayAggregates
// build, per-day figure folds, streaming-predictor updates) only reads
// day N's logs — it is independent of every later day. ScenarioPipeline
// exploits exactly that: while the driver thread runs day N+1's kernel,
// day N's analysis runs as an async executor task, with up to `window`
// days in flight and results folded back **in day order**.
//
// Determinism. Every figure digest, manifest counter, and chaos trigger
// count is byte-identical to the serial loop for any window size and
// thread count, because each ingredient is order-pinned:
//   * the kernel runs serially in day order on the driver thread — the
//     RNG and route streams see the exact serial schedule;
//   * each day joins into a slot-local MeasurementStore (the join is one
//     serial merge), and the finished columns move into the
//     scenario store during the in-order fold (take_day/put_day), so the
//     store's day layout never depends on completion order;
//   * order-sensitive folds (figure-5 prevalence, StreamingTrainer
//     updates) happen only in fold(), on the driver thread, in day
//     order, replaying the exact serial arithmetic;
//   * fault decisions are pure hashes of (schedule seed, point, day,
//     sim-state coordinate) — where a fault fires does not depend on
//     which thread evaluates it;
//   * every in-flight day owns its own ScratchArena and store slot (the
//     double-buffering overlap requires); the arena lease guard
//     (common/arena.h) turns any accidental sharing into an ACDN_DCHECK
//     failure instead of silent aliasing.
// tests/pipeline_test.cpp pins all of this across {serial, window=1, 2,
// 4} × {1, 2, 8 threads} with armed fault schedules.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/figures.h"
#include "core/predictor.h"
#include "core/streaming.h"
#include "sim/simulation.h"

namespace acdn {

struct PipelineOptions {
  /// Days of analysis allowed in flight behind the kernel. 0 runs the
  /// analysis inline on the driver thread — the serial reference, through
  /// the same code path; W >= 1 overlaps up to W days.
  int window = 2;
  /// Parallelism for the per-day figure scoring (the join and the
  /// aggregate build are serial). The kernel keeps World's
  /// simulation_threads.
  int threads = 1;
  /// Per-day figure-5 prevalence fold (same math as
  /// fig5_daily_prevalence, one day at a time).
  Fig5Config fig5;
  /// When set, every stored row also folds into a StreamingTrainer — in
  /// day and row order, matching the serial observe() loop byte for byte.
  std::optional<PredictorConfig> predictor;
};

struct PipelineResult {
  /// Per-day kernel stats, in day order.
  std::vector<DayStats> days;
  /// Per-day figure-5 prevalence, in day order.
  std::vector<Fig5Day> prevalence;
  /// Total rows folded into the streaming trainer so far (0 without a
  /// predictor; cumulative across run_days calls).
  std::uint64_t observed = 0;
};

class ScenarioPipeline {
 public:
  ScenarioPipeline(Simulation& sim, PipelineOptions options);
  ~ScenarioPipeline();

  ScenarioPipeline(const ScenarioPipeline&) = delete;
  ScenarioPipeline& operator=(const ScenarioPipeline&) = delete;

  /// Runs the next `n` days through the pipeline. Every day is fully
  /// folded before this returns (no analysis stays in flight between
  /// calls), so the result covers exactly these `n` days and the
  /// simulation's measurement store holds them all.
  PipelineResult run_days(int n);

  /// The streaming trainer fed by the in-order fold; nullptr when
  /// PipelineOptions::predictor was not set.
  [[nodiscard]] const StreamingTrainer* trainer() const {
    return trainer_ ? &*trainer_ : nullptr;
  }

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

 private:
  struct DaySlot;

  /// The analysis tail for one day: join, aggregate, figure scoring.
  /// Runs inline (window 0) or on a pool worker; everything it touches is
  /// slot-local.
  void analyze(DaySlot& slot);
  /// In-order fold on the driver thread: joins the slot's task, moves the
  /// day's columns into the scenario store, and replays the serial
  /// figure/trainer folds.
  void fold(DaySlot& slot, PipelineResult& out);

  Simulation* sim_;
  PipelineOptions options_;
  std::optional<StreamingTrainer> trainer_;
  /// Ring of max(1, window) slots; day k runs in slot k mod ring size.
  std::vector<std::unique_ptr<DaySlot>> slots_;
  /// Days started since construction (ring cursor across run_days calls).
  std::uint64_t ticks_ = 0;
};

}  // namespace acdn
