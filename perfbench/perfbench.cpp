// End-to-end benchmark of the scenario pipeline: a week of beacon and
// passive logs, the DNS x HTTP join, per-group aggregation, history-based
// prediction and its evaluation, then figures and exports — driven only
// through the library's public API.
//
//   perfbench --workload paper_week|dense_fig9|chaos_week --seed N
//             --seconds S --trace 0|1 [--fault-seed N] [--out-dir DIR]
//
// A run repeats whole rounds (World construction through the last output
// written) until S seconds have passed, each round on a new world, and
// reports the fast tail (10th percentile) of the round timings.
// setup_s is the one cold set-up of the process, timed from its start.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// rounds with layered rounds that make the same days through separate
// public calls, each timed from this file, prints the per-layer metrics
// and writes the span file. Both modes check the outputs (checks.h) and
// end with one JSON line: correct, attempted, failed, metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/catchment.h"
#include "analysis/figures.h"
#include "checks.h"
#include "common/csv.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "core/resilience.h"
#include "core/streaming.h"
#include "report/export.h"
#include "report/series.h"
#include "sim/pipeline.h"
#include "sim/simulation.h"
#include "sim/world.h"
#include "spans.h"

namespace {

using namespace acdn;
using perfbench::SpanRecorder;
using perfbench::now_ns;

/// Which step is running, for the stderr message when one fails.
std::string g_step = "start";

constexpr int kDays = 7;

struct Workload {
  const char* name;
  double sampling;
  int threads;
  /// Day loop through ScenarioPipeline (window 2, streaming predictor)
  /// instead of Simulation::run_days.
  bool pipeline;
  /// Canned chaos schedule armed; prediction through DegradedPipeline.
  bool chaos;
};

// paper_week: run_scenario's defaults, the single-thread baseline.
// dense_fig9: the Fig 9 sampling; join, aggregation and train/evaluate
//   dominate, and the executor and cross-day overlap run.
// chaos_week: the same layers on their fault paths (join fault fold,
//   front-end failover, walk-cache invalidation, predictor fallbacks);
//   its report writes paper_week's outputs except the Fig 3 CSV.
constexpr Workload kWorkloads[] = {
    {"paper_week", 0.02, 1, false, false},
    {"dense_fig9", 0.15, 4, true, false},
    {"chaos_week", 0.05, 2, false, true},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  std::optional<std::uint64_t> fault_seed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/out";
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_week|dense_fig9|chaos_week"
               " --seed N --seconds S --trace 0|1\n"
               "                 [--fault-seed N] [--out-dir DIR]\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) args.workload = &w;
      }
      if (args.workload == nullptr) return false;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--fault-seed") {
      args.fault_seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
      if (!args.trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      return false;
    }
  }
  return args.workload != nullptr && args.seconds > 0.0;
}

/// run_scenario's canned chaos schedule without its csv/write rule, so no
/// output of the benchmark fails.
FaultSchedule chaos_schedule(std::uint64_t fault_seed) {
  const DayIndex burst = kDays / 2;
  FaultSchedule faults;
  faults.seed = fault_seed;
  faults.rules.push_back(
      {"cdn/front_end", FaultKind::kError, 0.02, 0, kFaultWindowOpen, 0.0});
  faults.rules.push_back(
      {"bgp/session", FaultKind::kError, 0.5, burst, burst + 1, 0.0});
  faults.rules.push_back(
      {"bgp/withdrawal", FaultKind::kDrop, 0.25, burst, burst + 1, 0.0});
  faults.rules.push_back({"beacon/http_fetch", FaultKind::kDrop, 0.10, 0,
                          kFaultWindowOpen, 0.0});
  return faults;
}

int effective_threads(const Workload& w) {
  return std::min(w.threads, default_thread_count());
}

/// Total daily query volume every seed's world is scaled to. The sum of
/// 4,000 Pareto(alpha 1.2) volumes is dominated by its largest draws and
/// varies almost twofold between seeds (338k to 653k over seeds 1-20),
/// and every timing with it; 360k is about that sum's median over those
/// seeds. Scaling keeps each seed's shape, including its heaviest /24's
/// share of the volume.
constexpr double kDailyQueries = 360000.0;

/// The scenario seed of round `round`. Round 0 uses --seed itself; later
/// rounds use seeds mixed from it (splitmix64), so one run measures many
/// worlds and its figures do not hang on a single world's draws (how
/// concentrated its volume is, how many points its CDFs have). The same
/// --seed gives the same sequence of worlds.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  if (round == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * round;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

ScenarioConfig make_config(const Args& args, std::uint64_t seed) {
  const Workload& w = *args.workload;
  ScenarioConfig config = ScenarioConfig::paper_default();
  config.seed = seed;
  config.schedule.beacon_sampling = w.sampling;
  config.simulation_threads = effective_threads(w);
  if (w.chaos) {
    config.faults = chaos_schedule(args.fault_seed.value_or(seed ^ 0xfa017ull));
  }
  return config;
}

/// The workload's config for `seed` with base_daily_queries scaled so the
/// world's total daily volume is kDailyQueries. Costs one extra World
/// construction: in the cold set-up for round 0, before the round's clock
/// starts for the others.
ScenarioConfig scaled_config(const Args& args, std::uint64_t seed) {
  ScenarioConfig config = make_config(args, seed);
  const World probe(config);
  config.workload.base_daily_queries *=
      kDailyQueries / probe.clients().total_query_weight();
  return config;
}

PipelineOptions pipeline_options(int threads) {
  PipelineOptions options;
  options.window = 2;
  options.threads = threads;
  PredictorConfig streaming;
  streaming.threads = threads;
  options.predictor = streaming;
  return options;
}

PredictorConfig predictor_config(Grouping grouping, int threads) {
  PredictorConfig config;
  config.grouping = grouping;
  config.threads = threads;
  return config;
}

double ms_between(std::int64_t a, std::int64_t b) {
  return double(b - a) / 1e6;
}

std::uint64_t counter(const MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double histogram_sum(const MetricsSnapshot& s, const char* name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

/// The p-quantile of `v`, interpolated between order statistics.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double k = p * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(k);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (k - double(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The quantile of the untraced rounds that the end-to-end timings report.
/// A shared 4-core VM ran the same code up to ~40% slower for stretches
/// of 10-30 s (thread CPU time slowed with wall time, so the process was
/// not waiting). A run's median moves with how much of it falls in such a
/// stretch; its 10th percentile, the fast tail of its worlds, moved about
/// half as much over eight runs of 50 s.
constexpr double kRoundQuantile = 0.1;

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

// ------------------------------------------------------------ check log

class CheckLog {
 public:
  void record(const std::string& name, const std::string& failure) {
    Entry& e = entries_[name];
    ++e.runs;
    if (!failure.empty()) {
      ++e.failures;
      if (e.first_failure.empty()) e.first_failure = failure;
    }
  }
  [[nodiscard]] bool all_passed() const {
    for (const auto& [name, e] : entries_) {
      if (e.failures > 0) return false;
    }
    return !entries_.empty();
  }
  void print() const {
    for (const auto& [name, e] : entries_) {
      if (e.failures == 0) {
        std::printf("check %-28s ok (%zu)\n", name.c_str(), e.runs);
      } else {
        std::printf("check %-28s FAILED %zu of %zu: %s\n", name.c_str(),
                    e.failures, e.runs, e.first_failure.c_str());
      }
    }
  }

 private:
  struct Entry {
    std::size_t runs = 0;
    std::size_t failures = 0;
    std::string first_failure;
  };
  std::map<std::string, Entry> entries_;
};

// ------------------------------------------------------------ tracing

/// What a layered round gathers beyond its spans: counts read from the
/// library's metrics registry around the calls, and the round's checks.
struct LayerCounts {
  std::uint64_t route_resolves = 0;
  std::uint64_t route_cache_hits = 0;
  std::uint64_t frontend_reroutes = 0;
  std::uint64_t prepare_frontend_fires = 0;
  std::uint64_t beacons = 0;
  std::uint64_t http_rows = 0;
  std::uint64_t dns_rows = 0;
  std::uint64_t passive_rows = 0;
  double heaviest_client_share = 0.0;
  std::uint64_t stored_targets = 0;
  std::uint64_t samples = 0;
  std::uint64_t groups_ecs = 0;
  std::uint64_t groups_ldns = 0;
  std::uint64_t predictions = 0;
  std::uint64_t gate_empty_groups = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t stale_days = 0;
  std::uint64_t figure_points = 0;
  std::uint64_t bytes_written = 0;
  double train_ms = 0.0;     // chaos: from the library's timers
  double evaluate_ms = 0.0;  // chaos: from the library's timers
  std::uint64_t executor_batches = 0;
  std::uint64_t executor_tasks = 0;
  double batch_steals_p50 = 0.0;
};

/// Non-null in layered rounds: spans, counts and (optionally) checks.
struct Tracer {
  SpanRecorder spans;
  LayerCounts counts;
  CheckLog* checks = nullptr;
};

/// Opens a span when tracing; a no-op otherwise.
std::optional<SpanRecorder::Scope> span(Tracer* t, std::string_view name,
                                        int day = -1) {
  if (t == nullptr) return std::nullopt;
  return std::optional<SpanRecorder::Scope>(std::in_place, t->spans, name,
                                            day);
}

/// Runs a check under its own span, so layered totals can leave it out.
void check(Tracer* t, const std::string& name,
           const std::function<std::string()>& body) {
  if (t == nullptr || t->checks == nullptr) return;
  const auto s = span(t, "check");
  t->checks->record(name, body());
}

// ------------------------------------------------------------ round

struct PredictOutputs {
  EvalSummary last_ecs;
  EvalSummary last_ldns;
  std::size_t steps = 0;
};

struct RoundResult {
  double setup_s = 0.0;
  double sim_ms_per_day = 0.0;
  double predict_ms_per_day = 0.0;
  double report_s = 0.0;
  double total_s = 0.0;
  std::size_t operations = 0;
  std::size_t failed = 0;
  std::uint64_t store_digest = 0;
  std::uint64_t passive_digest = 0;
  std::map<std::string, std::uint64_t> triggers;
  /// The first failed operation's description.
  std::string failure;
};

/// Same threshold fold as ScenarioPipeline::fold.
Fig5Day fold_prevalence(DayIndex day,
                        const FlatMap<std::uint32_t, Milliseconds>& improve,
                        const Fig5Config& config) {
  Fig5Day out;
  out.day = day;
  out.fraction_above.assign(config.thresholds.size(), 0.0);
  if (improve.empty()) return out;
  for (const auto& [group, improvement] : improve) {
    (void)group;
    for (std::size_t i = 0; i < config.thresholds.size(); ++i) {
      const Milliseconds threshold = config.thresholds[i] == 0.0
                                         ? config.epsilon_ms
                                         : config.thresholds[i];
      if (improvement > threshold) out.fraction_above[i] += 1.0;
    }
  }
  for (double& f : out.fraction_above) {
    f /= static_cast<double>(improve.size());
  }
  return out;
}

/// The layered day loop: the same days as the workload's own loop, made
/// through World::prepare_day, Simulation::run_day_kernel and
/// MeasurementStore::join (plus, for the pipeline workload, its per-day
/// Fig 5 fold and streaming-trainer update), each under its own span.
/// prepare_day runs before the kernel, which repeats the plan build from
/// a warm cache.
std::vector<Fig5Day> layered_days(const Workload& w, World& world, Simulation& sim,
                      Tracer& t) {
  const int threads = effective_threads(w);
  std::vector<DnsLogEntry> dns_log;
  std::vector<HttpLogEntry> http_log;
  const PipelineOptions options = pipeline_options(threads);
  std::optional<StreamingTrainer> trainer;
  if (w.pipeline) trainer.emplace(*options.predictor);
  ScratchArena arena;
  std::vector<Fig5Day> prevalence;
  MetricsRegistry& registry = MetricsRegistry::global();
  std::vector<std::uint32_t> per_client;

  for (DayIndex d = 0; d < kDays; ++d) {
    const auto day_span = span(&t, "day", d);
    MetricsSnapshot before = registry.snapshot();
    {
      const auto s = span(&t, "cdn.prepare_day", d);
      world.prepare_day(d, threads);
    }
    MetricsSnapshot after = registry.snapshot();
    t.counts.route_resolves += counter(after, "route_plan.resolves") -
                               counter(before, "route_plan.resolves");
    t.counts.route_cache_hits += counter(after, "route_plan.cache_hits") -
                                 counter(before, "route_plan.cache_hits");
    t.counts.frontend_reroutes +=
        counter(after, "fault.frontend_reroutes") -
        counter(before, "fault.frontend_reroutes");

    // run_day_kernel rebuilds the plan this call just built, and the
    // rebuild evaluates the front-end fail point again for the same
    // (day, front-end) coordinates. Count this call's fires so the
    // trigger check can compare like with like.
    t.counts.prepare_frontend_fires +=
        counter(after, "fault.fired.cdn/front_end") -
        counter(before, "fault.fired.cdn/front_end");

    DayStats stats;
    {
      const auto s = span(&t, "sim.kernel", d);
      stats = sim.run_day_kernel(dns_log, http_log);
    }
    t.counts.beacons += stats.beacons;
    t.counts.passive_rows += stats.passive_entries;
    t.counts.http_rows += http_log.size();
    t.counts.dns_rows += dns_log.size();
    per_client.assign(world.clients().size(), 0);
    std::uint32_t heaviest = 0;
    for (const HttpLogEntry& e : http_log) {
      if (e.client.value >= per_client.size()) {
        per_client.resize(e.client.value + 1, 0);
      }
      heaviest = std::max(heaviest, ++per_client[e.client.value]);
    }
    if (!http_log.empty()) {
      t.counts.heaviest_client_share =
          std::max(t.counts.heaviest_client_share,
                   double(heaviest) / double(http_log.size()));
    }

    before = registry.snapshot();
    {
      const auto s = span(&t, "beacon.join", d);
      sim.measurements_mut().join(dns_log, http_log, threads);
    }
    after = registry.snapshot();
    const std::uint64_t dropped = counter(after, "join.dropped_targets") -
                                  counter(before, "join.dropped_targets");
    const MeasurementColumns& columns = sim.measurements().columns(d);
    t.counts.stored_targets += columns.target_count();
    check(&t, "join_conservation", [&] {
      return perfbench::check_join_conservation(
          dns_log, http_log, columns.target_count(), dropped);
    });
    check(&t, "unique_beacon_ids",
          [&] { return perfbench::check_unique_beacon_ids(columns); });
    check(&t, "passive_total", [&] {
      return perfbench::check_passive_total(sim.passive(), d,
                                            world.clients(),
                                            world.schedule(),
                                            world.config().seed);
    });

    if (w.pipeline) {
      FlatMap<std::uint32_t, Milliseconds> improvements;
      {
        const auto s = span(&t, "analysis.fig5_fold", d);
        improvements =
            daily_improvement(columns, options.fig5, threads, &arena);
        prevalence.push_back(fold_prevalence(d, improvements, options.fig5));
      }
      {
        const auto s = span(&t, "core.observe", d);
        trainer->observe_all(columns);
      }
    }
  }
  return prevalence;
}

/// Day-pair prediction: train on day d-1, evaluate on day d, under ECS
/// and LDNS grouping. The chaos workload steps a DegradedPipeline per
/// grouping instead.
PredictOutputs predict(const Workload& w, const World& world,
                       const Simulation& sim, Tracer* t) {
  const int threads = effective_threads(w);
  const MeasurementStore& store = sim.measurements();
  PredictOutputs out;
  const Grouping groupings[] = {Grouping::kEcsPrefix, Grouping::kLdns};

  if (w.chaos) {
    std::vector<std::unique_ptr<DegradedPipeline>> pipelines;
    for (const Grouping g : groupings) {
      ResilienceConfig rc;
      rc.predictor = predictor_config(g, threads);
      rc.evaluator.threads = threads;
      pipelines.push_back(std::make_unique<DegradedPipeline>(
          world.clients(), world.ldns(), rc));
    }
    for (DayIndex d = 1; d < kDays; ++d) {
      for (std::size_t k = 0; k < pipelines.size(); ++k) {
        DegradedPipeline& p = *pipelines[k];
        DegradedPipeline::DayOutcome outcome;
        {
          const auto s = span(t, "core.step", d);
          outcome = p.step(store, d - 1, d);
        }
        ++out.steps;
        (k == 0 ? out.last_ecs : out.last_ldns) = outcome.summary;
        if (t == nullptr) continue;
        t->counts.predictions += p.predictor().predictions().size();
        t->counts.gate_empty_groups += p.predictor().gate_empty_groups();
        if (outcome.evaluated_fresh) {
          t->counts.evaluated += outcome.summary.evaluated;
        }
        if (outcome.trained_fresh) {
          check(t, "predictor_minimum", [&] {
            return perfbench::check_predictor_minimum(
                store.columns(d - 1), groupings[k],
                p.predictor().config().min_measurements,
                p.predictor().predictions());
          });
        }
        if (outcome.evaluated_fresh) {
          check(t, "evaluator_fractions", [&] {
            return perfbench::check_eval_summary(outcome.summary);
          });
        }
      }
    }
    if (t != nullptr) {
      for (const auto& p : pipelines) {
        t->counts.stale_days += p->stale_train_days() + p->stale_eval_days();
      }
    }
    return out;
  }

  PredictionEvaluator::Config eval_config;
  eval_config.threads = threads;
  const PredictionEvaluator evaluator(world.clients(), world.ldns(),
                                      eval_config);
  for (DayIndex d = 1; d < kDays; ++d) {
    for (const Grouping g : groupings) {
      HistoryPredictor predictor(predictor_config(g, threads));
      const MeasurementColumns& train_day = store.columns(d - 1);
      if (t == nullptr) {
        predictor.train(train_day);
      } else {
        // train(columns) is build + score; split so each is timed.
        std::optional<DayAggregates> agg;
        {
          const auto s = span(t, "analysis.aggregate", d);
          agg.emplace(DayAggregates::build(train_day, g, threads));
        }
        {
          const auto s = span(t, "core.train", d);
          predictor.train(*agg);
        }
        (g == Grouping::kEcsPrefix ? t->counts.groups_ecs
                                   : t->counts.groups_ldns) +=
            agg->group_count();
        if (g == Grouping::kEcsPrefix) {
          t->counts.samples += train_day.target_count();
        }
      }
      EvalSummary summary;
      {
        const auto s = span(t, "core.evaluate", d);
        const std::vector<EvalOutcome> outcomes =
            evaluator.evaluate(predictor, store.columns(d));
        summary = evaluator.summarize(outcomes);
      }
      ++out.steps;
      if (t != nullptr) {
        t->counts.predictions += predictor.predictions().size();
        t->counts.gate_empty_groups += predictor.gate_empty_groups();
        t->counts.evaluated += summary.evaluated;
        check(t, "predictor_minimum", [&] {
          return perfbench::check_predictor_minimum(
              train_day, g, predictor.config().min_measurements,
              predictor.predictions());
        });
        check(t, "evaluator_fractions",
              [&] { return perfbench::check_eval_summary(summary); });
      }
      (g == Grouping::kEcsPrefix ? out.last_ecs : out.last_ldns) =
          std::move(summary);
    }
  }
  return out;
}

/// Writes one figure CSV, counting its points and bytes when tracing.
void write_figure(const Figure& fig, const std::string& path, Tracer* t,
                  std::vector<std::string>& outputs) {
  {
    const auto s = span(t, "report.figure_csv");
    fig.write_csv(path);
  }
  outputs.push_back(path);
  if (t == nullptr) return;
  for (const Series& series : fig.series()) {
    t->counts.figure_points += series.points.size();
  }
}

/// The workload's report step: figure computations, then their CSVs and
/// the log exports. Returns the paths written.
std::vector<std::string> report(const Workload& w, const World& world,
                                const Simulation& sim,
                                const std::vector<Fig5Day>& prevalence,
                                const PredictOutputs& predicted,
                                const std::string& dir, Tracer* t) {
  const int threads = effective_threads(w);
  std::vector<std::string> outputs;

  if (w.pipeline) {
    Figure fig9("Figure 9: improvement over anycast (ms)", "improvement_ms",
                "CDF of weighted /24s");
    Figure fig5("Figure 5: daily prevalence", "day", "fraction of /24s");
    {
      const auto s = span(t, "analysis.figures");
      fig9.add_series(
          Series{"EDNS-0 Median", predicted.last_ecs.improvement_p50.cdf()});
      fig9.add_series(
          Series{"EDNS-0 75th", predicted.last_ecs.improvement_p75.cdf()});
      fig9.add_series(
          Series{"LDNS Median", predicted.last_ldns.improvement_p50.cdf()});
      fig9.add_series(
          Series{"LDNS 75th", predicted.last_ldns.improvement_p75.cdf()});
      const Fig5Config fig5_config;
      for (std::size_t i = 0; i < fig5_config.thresholds.size(); ++i) {
        Series series{"above_" + std::to_string(int(fig5_config.thresholds[i])),
                      {}};
        for (const Fig5Day& day : prevalence) {
          series.points.push_back(
              {double(day.day), day.fraction_above[i]});
        }
        fig5.add_series(std::move(series));
      }
    }
    write_figure(fig9, dir + "/fig09_prediction.csv", t, outputs);
    write_figure(fig5, dir + "/fig05_prevalence.csv", t, outputs);
  } else {
    std::vector<BeaconMeasurement> rows;
    DistributionBuilder diff;
    Fig4Distances d4;
    std::vector<double> switched;
    std::vector<CatchmentSummary> catchments;
    {
      const auto s = span(t, "analysis.figures");
      for (DayIndex d = 0; d < kDays; ++d) {
        const auto day = sim.measurements().by_day(d);
        rows.insert(rows.end(), day.begin(), day.end());
      }
      diff = fig3_anycast_minus_best_unicast(rows, world.clients(),
                                             std::nullopt, threads);
      d4 = fig4_distances(sim.passive(), 0, world.clients(),
                          world.cdn().deployment(), world.metros(),
                          &world.geolocation(), threads);
      switched = fig7_cumulative_switched(sim.passive(), kDays, threads);
      catchments = compute_catchments(world.clients(), world.router(),
                                      world.metros(), threads);
    }
    Figure fig3("anycast vs unicast", "difference_ms", "ccdf");
    fig3.add_series(Series{"world", diff.ccdf()});
    check(t, "fig3_ccdf", [&] {
      return perfbench::check_fig3_ccdf(fig3.series()[0].points, rows);
    });
    // chaos_week leaves out this one CSV: at its sampling the CCDF has
    // ~110k points and Figure::write_csv, quadratic in them, would take
    // ~90% of every round. paper_week keeps the writer measured.
    if (!w.chaos) {
      write_figure(fig3, dir + "/anycast_vs_unicast.csv", t, outputs);
    }

    Figure fig4("client to front-end distance", "km", "cdf");
    fig4.add_series(Series{"to_front_end", d4.to_front_end.cdf()});
    fig4.add_series(Series{"past_closest", d4.past_closest.cdf()});
    write_figure(fig4, dir + "/distance.csv", t, outputs);

    Figure fig7("front-end affinity", "day", "cumulative switched");
    Series s7{"switched", {}};
    for (std::size_t i = 0; i < switched.size(); ++i) {
      s7.points.push_back({double(i), switched[i]});
    }
    fig7.add_series(std::move(s7));
    write_figure(fig7, dir + "/affinity.csv", t, outputs);

    {
      const auto s = span(t, "report.export");
      const std::string path = dir + "/catchments.csv";
      CsvWriter csv(path);
      csv.write_header({"front_end", "name", "clients", "query_share",
                        "median_client_km", "p90_client_km"});
      for (const CatchmentSummary& c : catchments) {
        csv.write_row(std::initializer_list<std::string_view>{
            std::to_string(c.front_end.value), c.name,
            std::to_string(c.clients), std::to_string(c.query_share),
            std::to_string(c.median_client_km),
            std::to_string(c.p90_client_km)});
      }
      csv.flush();
      outputs.push_back(path);
      export_passive_log(sim.passive(), dir + "/passive_log.csv");
      outputs.push_back(dir + "/passive_log.csv");
      export_measurements(sim.measurements(), dir + "/measurements.csv");
      outputs.push_back(dir + "/measurements.csv");
    }
    check(t, "passive_round_trip", [&] {
      return perfbench::check_digests_equal(
          "imported passive log", perfbench::passive_digest(sim.passive()),
          perfbench::passive_digest(
              import_passive_log(dir + "/passive_log.csv")));
    });
  }
  if (t != nullptr) {
    for (const std::string& path : outputs) {
      t->counts.bytes_written += file_bytes(path);
    }
  }
  return outputs;
}

/// One whole round: World construction, the day loop, prediction and the
/// report. `start_ns` is when the round's clock starts — the process
/// start for the first (cold) round. Layered when `t` is non-null.
RoundResult run_round(const Workload& w, const ScenarioConfig& config,
                      std::int64_t start_ns, const std::string& dir,
                      Tracer* t) {
  RoundResult r;

  g_step = "set-up (World construction)";
  std::optional<SpanRecorder::Scope> setup_span = span(t, "setup");
  auto world = std::make_unique<World>(config);
  Simulation sim(*world);
  std::optional<ScenarioPipeline> pipeline;
  if (w.pipeline && t == nullptr) {
    pipeline.emplace(sim, pipeline_options(effective_threads(w)));
  }
  setup_span.reset();
  const std::int64_t t_setup = now_ns();

  g_step = "day loop";
  std::vector<Fig5Day> prevalence;
  {
    const auto s = span(t, "day_loop");
    if (t != nullptr) {
      prevalence = layered_days(w, *world, sim, *t);
    } else if (pipeline) {
      prevalence = pipeline->run_days(kDays).prevalence;
    } else {
      sim.run_days(kDays);
    }
  }
  const std::int64_t t_sim = now_ns();

  g_step = "predict";
  PredictOutputs predicted;
  {
    const auto s = span(t, "predict");
    predicted = predict(w, *world, sim, t);
  }
  const std::int64_t t_predict = now_ns();

  g_step = "report";
  std::vector<std::string> outputs;
  {
    const auto s = span(t, "report");
    outputs = report(w, *world, sim, prevalence, predicted, dir, t);
  }
  const std::int64_t t_end = now_ns();

  // Checks run under "check" spans; a layered round's figures leave them
  // out, so both kinds of round time the same work.
  const auto check_ms = [&](std::int64_t from, std::int64_t to) {
    double ms = 0.0;
    if (t == nullptr) return ms;
    for (const SpanRecorder::Span& s : t->spans.spans()) {
      if (s.name == "check" && s.start_ns >= from && s.end_ns <= to) {
        ms += s.ms();
      }
    }
    return ms;
  };
  r.setup_s = ms_between(start_ns, t_setup) / 1e3;
  r.sim_ms_per_day =
      (ms_between(t_setup, t_sim) - check_ms(t_setup, t_sim)) / kDays;
  r.predict_ms_per_day =
      (ms_between(t_sim, t_predict) - check_ms(t_sim, t_predict)) /
      double(kDays - 1);
  r.report_s =
      (ms_between(t_predict, t_end) - check_ms(t_predict, t_end)) / 1e3;
  r.total_s = (ms_between(start_ns, t_end) - check_ms(start_ns, t_end)) / 1e3;
  r.operations = std::size_t(kDays) + predicted.steps + outputs.size();
  r.store_digest = perfbench::store_digest(sim.measurements());
  if (!w.pipeline) {
    // Re-importing the measurement export is one more operation. It fails
    // on every input: export_measurements writes 0 for the front-end of
    // every anycast fetch and import_measurements restores an invalid id,
    // so the imported store never equals the one exported. (On some seeds
    // the import throws first: a beacon id whose shortest decimal form is
    // in exponent notation does not parse back as an integer.)
    ++r.operations;
    std::string failure;
    try {
      failure = perfbench::check_digests_equal(
          "imported measurements", r.store_digest,
          perfbench::store_digest(
              import_measurements(dir + "/measurements.csv")));
    } catch (const std::exception& e) {
      failure = std::string("import_measurements threw: ") + e.what();
    }
    if (!failure.empty()) {
      ++r.failed;
      r.failure = "measurement re-import: " + failure;
    }
  }
  r.passive_digest = perfbench::passive_digest(sim.passive());
  r.triggers = FailPointRegistry::global().trigger_counts();
  return r;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  return json + "}";
}

/// Compares a layered round with an untraced round of the same workload.
void compare_rounds(const Workload& w, const RoundResult& untraced,
                    const RoundResult& layered,
                    const LayerCounts& layered_counts,
                    const ScenarioConfig& config, CheckLog& checks) {
  checks.record("store_digest_traced",
                perfbench::check_digests_equal("layered store",
                                               untraced.store_digest,
                                               layered.store_digest));
  checks.record("passive_digest_traced",
                perfbench::check_digests_equal("layered passive log",
                                               untraced.passive_digest,
                                               layered.passive_digest));
  if (w.chaos) {
    // The layered round's own prepare_day calls fire cdn/front_end once
    // more per plan build than the workload's loop does.
    std::map<std::string, std::uint64_t> layered_triggers = layered.triggers;
    layered_triggers["cdn/front_end"] -= layered_counts.prepare_frontend_fires;
    checks.record("fault_triggers",
                  perfbench::check_fault_triggers(
                      config.faults, untraced.triggers, layered_triggers));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  try {
    const Workload& w = *args.workload;
    g_step = "output directory";
    const std::string dir = args.out_dir + "/" + w.name + "-" +
                            std::to_string(static_cast<long>(getpid()));
    std::filesystem::create_directories(dir);


    g_step = "set-up (volume scaling)";
    // Round i's world; configs[0] is built in the cold set-up.
    std::vector<ScenarioConfig> configs{scaled_config(args, args.seed)};
    const std::int64_t measure_start = now_ns();
    const auto elapsed_s = [&] { return ms_between(measure_start, now_ns()) / 1e3; };

    std::vector<RoundResult> untraced;
    std::vector<RoundResult> layered;
    std::vector<LayerCounts> layered_counts;
    std::vector<std::map<std::string, double>> layered_ms;
    CheckLog checks;
    Tracer last_trace;

    // Untraced rounds run with the metrics registry off (the library's
    // default); layered rounds turn it on to read counts around calls.
    auto run_layered = [&](const ScenarioConfig& config, bool with_checks) {
      auto t = std::make_unique<Tracer>();
      t->checks = with_checks ? &checks : nullptr;
      set_metrics_enabled(true);
      MetricsRegistry::global().reset();
      RoundResult r = run_round(w, config, now_ns(), dir, t.get());
      const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
      set_metrics_enabled(false);
      t->counts.executor_batches = counter(snap, "executor.batches");
      t->counts.executor_tasks = counter(snap, "executor.tasks");
      const auto steals = snap.histograms.find("executor.batch_steals");
      if (steals != snap.histograms.end()) {
        t->counts.batch_steals_p50 = steals->second.p50;
      }
      t->counts.train_ms = histogram_sum(snap, "predictor.train_ms");
      t->counts.evaluate_ms = histogram_sum(snap, "evaluator.evaluate_ms");
      std::map<std::string, double> ms;
      for (const char* name :
           {"cdn.prepare_day", "sim.kernel", "beacon.join",
            "analysis.fig5_fold", "core.observe", "analysis.aggregate",
            "core.train", "core.evaluate", "core.step", "analysis.figures",
            "report.figure_csv", "report.export", "day_loop"}) {
        ms[name] = t->spans.total_ms(name);
      }
      layered.push_back(r);
      layered_counts.push_back(t->counts);
      layered_ms.push_back(std::move(ms));
      last_trace = std::move(*t);
    };

    // Every round makes a new world (round_seed). With --trace 1 each
    // untraced round is followed by a layered round of the same world.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double rss_mb = 0.0;  // after the first round: one world's week
    do {
      if (configs.size() == untraced.size()) {
        g_step = "set-up (volume scaling)";
        configs.push_back(
            scaled_config(args, round_seed(args.seed, untraced.size())));
      }
      const ScenarioConfig& config = configs[untraced.size()];
      untraced.push_back(run_round(
          w, config, untraced.empty() ? process_start : now_ns(), dir,
          nullptr));
      attempted += untraced.back().operations;
      failed += untraced.back().failed;
      if (untraced.size() == 1) rss_mb = peak_rss_mb();
      if (args.trace) {
        run_layered(config, layered.empty());
        attempted += layered.back().operations;
        failed += layered.back().failed;
      }
    } while (elapsed_s() < args.seconds);

    // The check rounds, outside the timed ones: the first world again,
    // untraced, and (without --trace) layered.
    g_step = "checks";
    if (!args.trace) run_layered(configs[0], true);
    const RoundResult again = run_round(w, configs[0], now_ns(), dir, nullptr);
    checks.record("rounds_identical",
                  perfbench::check_digests_equal("repeated round store",
                                                 untraced[0].store_digest,
                                                 again.store_digest));
    for (std::size_t i = 0; i < layered.size(); ++i) {
      compare_rounds(w, args.trace ? untraced[i] : untraced[0], layered[i],
                     layered_counts[i], configs[i], checks);
    }

    auto field_quantile = [](const std::vector<RoundResult>& rs,
                             double RoundResult::*field, double p) {
      std::vector<double> v;
      for (const RoundResult& r : rs) v.push_back(r.*field);
      return quantile(v, p);
    };
    auto med = [&](const std::vector<RoundResult>& rs,
                   double RoundResult::*field) {
      return field_quantile(rs, field, 0.5);
    };
    auto low = [&](double RoundResult::*field) {
      return field_quantile(untraced, field, kRoundQuantile);
    };
    std::vector<Metric> metrics;
    if (!args.trace) {
      metrics = {
          {"setup_s", untraced.front().setup_s, "s"},
          {"sim_ms_per_day", low(&RoundResult::sim_ms_per_day), "ms/day"},
          {"predict_ms_per_day", low(&RoundResult::predict_ms_per_day),
           "ms/day"},
          {"report_s", low(&RoundResult::report_s), "s"},
          {"total_s", low(&RoundResult::total_s), "s"},
          {"peak_rss_mb", rss_mb, "MB"},
      };
    } else {
      const double days = kDays;
      const double pairs = kDays - 1;
      auto layer_ms = [&](const char* name) {
        std::vector<double> v;
        for (const auto& ms : layered_ms) v.push_back(ms.at(name));
        return median(v);
      };
      const LayerCounts& c = layered_counts.front();
      const double lookups = double(c.route_resolves + c.route_cache_hits);
      const double serial_day_ms =
          (layer_ms("cdn.prepare_day") + layer_ms("sim.kernel") +
           layer_ms("beacon.join") + layer_ms("analysis.fig5_fold") +
           layer_ms("core.observe")) /
          days;
      double train_ms = layer_ms("core.train");
      double evaluate_ms = layer_ms("core.evaluate");
      if (w.chaos) {
        // DegradedPipeline::step trains and evaluates inside one call;
        // split it with the library's own timers.
        std::vector<double> tr;
        std::vector<double> ev;
        for (const LayerCounts& lc : layered_counts) {
          tr.push_back(lc.train_ms);
          ev.push_back(lc.evaluate_ms);
        }
        train_ms = median(tr);
        evaluate_ms = median(ev);
      }
      metrics = {
          {"cdn.prepare_day_ms", layer_ms("cdn.prepare_day") / days, "ms/day"},
          {"cdn.route_resolves", double(c.route_resolves), "count"},
          {"cdn.route_cache_hit_ratio",
           lookups > 0 ? double(c.route_cache_hits) / lookups : 0.0, "ratio"},
          {"cdn.frontend_reroutes", double(c.frontend_reroutes), "count"},
          {"sim.kernel_ms_per_day", layer_ms("sim.kernel") / days, "ms/day"},
          {"sim.beacons_per_day", double(c.beacons) / days, "count/day"},
          {"sim.http_rows_per_day", double(c.http_rows) / days, "count/day"},
          {"sim.passive_rows_per_day", double(c.passive_rows) / days,
           "count/day"},
          {"sim.heaviest_client_share", c.heaviest_client_share, "ratio"},
          {"beacon.join_ms_per_day", layer_ms("beacon.join") / days,
           "ms/day"},
          {"beacon.join_ns_per_row",
           layer_ms("beacon.join") * 1e6 /
               double(std::max<std::uint64_t>(1, c.http_rows + c.dns_rows)),
           "ns/row"},
          {"beacon.joined_ratio",
           double(c.stored_targets) /
               double(std::max<std::uint64_t>(1, c.http_rows)),
           "ratio"},
          {"analysis.aggregate_ms_per_day",
           layer_ms("analysis.aggregate") / pairs, "ms/day"},
          {"analysis.samples_per_day", double(c.samples) / pairs,
           "count/day"},
          {"analysis.groups_ecs", double(c.groups_ecs) / pairs, "count/day"},
          {"analysis.groups_ldns", double(c.groups_ldns) / pairs,
           "count/day"},
          {"analysis.fig5_fold_ms_per_day",
           layer_ms("analysis.fig5_fold") / days, "ms/day"},
          {"analysis.figures_ms", layer_ms("analysis.figures"), "ms"},
          {"core.train_ms_per_day", train_ms / pairs, "ms/day"},
          {"core.evaluate_ms_per_day", evaluate_ms / pairs, "ms/day"},
          {"core.predictions", double(c.predictions) / pairs, "count/day"},
          {"core.gate_empty_groups", double(c.gate_empty_groups), "count"},
          {"core.evaluated", double(c.evaluated), "count"},
          {"core.stale_days", double(c.stale_days), "count"},
          {"report.figure_csv_ms", layer_ms("report.figure_csv"), "ms"},
          {"report.figure_points", double(c.figure_points), "count"},
          {"report.export_ms", layer_ms("report.export"), "ms"},
          {"report.bytes_written", double(c.bytes_written), "bytes"},
          {"common.executor_batches", double(c.executor_batches), "count"},
          {"common.executor_tasks", double(c.executor_tasks), "count"},
          {"common.batch_steals_p50", c.batch_steals_p50, "count"},
          {"pipeline.overlap_gain",
           serial_day_ms / med(untraced, &RoundResult::sim_ms_per_day),
           "ratio"},
          {"trace.overhead_s",
           med(layered, &RoundResult::total_s) -
               med(untraced, &RoundResult::total_s),
           "s"},
      };
      std::printf("layer self time (last layered round):\n");
      for (const auto& [name, ms] : last_trace.spans.self_ms_by_name()) {
        std::printf("self %-28s %10.3f ms\n", name.c_str(), ms);
      }
      g_step = "span file";
      const std::string span_dir = args.out_dir + "/../trace";
      std::filesystem::create_directories(span_dir);
      const std::string span_path = span_dir + "/" + w.name + "-seed" +
                                    std::to_string(args.seed) + ".spans.csv";
      last_trace.spans.write_csv(span_path);
      std::printf("spans written to %s\n", span_path.c_str());
    }

    std::printf("workload %s seed %llu threads %d days %d sampling %.2f "
                "worlds %zu\n",
                w.name, static_cast<unsigned long long>(args.seed),
                effective_threads(w), kDays, w.sampling, untraced.size());
    std::printf("host cores %u cpu \"%s\" compiler \"%s\" build %s simd %s\n",
                std::thread::hardware_concurrency(), cpu_model().c_str(),
                __VERSION__, PERFBENCH_BUILD_TYPE,
                simd::name(simd::active()));
    std::printf("rounds untraced %zu layered %zu\n", untraced.size(),
                layered.size());
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      const RoundResult& r = untraced[i];
      std::printf("round seed %llu base_daily_queries %.3f sim_ms_per_day "
                  "%.3f predict_ms_per_day %.3f report_s %.4f total_s %.4f\n",
                  static_cast<unsigned long long>(configs[i].seed),
                  configs[i].workload.base_daily_queries, r.sim_ms_per_day,
                  r.predict_ms_per_day, r.report_s, r.total_s);
    }
    print_metrics(metrics);
    std::printf("operations attempted %zu failed %zu\n", attempted, failed);
    if (failed > 0) {
      std::printf("failed operation: %s\n", untraced.front().failure.c_str());
    }
    checks.print();
    const bool correct = checks.all_passed();
    if (!correct) std::fprintf(stderr, "perfbench: an output check failed\n");

    g_step = "cleanup";
    std::filesystem::remove_all(dir);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics_json(metrics).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: step '%s' failed: %s\n", g_step.c_str(),
                 e.what());
    return 1;
  }
}
