#include "core/evaluator.h"

#include <optional>
#include <utility>

#include "common/executor.h"
#include "common/metrics.h"
#include "stats/quantile.h"

namespace acdn {

std::vector<EvalOutcome> PredictionEvaluator::evaluate(
    const HistoryPredictor& predictor,
    const MeasurementColumns& eval_day) const {
  const PhaseSpan eval_phase("evaluator.evaluate");
  const ScopedTimer eval_timer("evaluator.evaluate_ms");
  // The evaluation is always per-/24, regardless of how predictions were
  // grouped: clients inherit their LDNS group's prediction under LDNS
  // grouping.
  return evaluate_groups(
      predictor, DayAggregates::build(eval_day, Grouping::kEcsPrefix));
}

std::vector<EvalOutcome> PredictionEvaluator::evaluate(
    const HistoryPredictor& predictor,
    std::span<const BeaconMeasurement> eval_day_measurements) const {
  const PhaseSpan eval_phase("evaluator.evaluate");
  const ScopedTimer eval_timer("evaluator.evaluate_ms");
  return evaluate_groups(
      predictor,
      DayAggregates::build(eval_day_measurements, Grouping::kEcsPrefix));
}

std::vector<EvalOutcome> PredictionEvaluator::evaluate_groups(
    const HistoryPredictor& predictor,
    const DayAggregates& per_client) const {
  const Grouping grouping = predictor.config().grouping;

  // Score every /24 independently on the pool, then collect the
  // qualifying outcomes in ascending /24 order — the same sequence the
  // serial loop produced.
  const std::span<const DayAggregates::Group> groups = per_client.groups();
  std::vector<std::optional<EvalOutcome>> scored(groups.size());

  Executor::global().parallel_for(
      0, groups.size(), config_.threads, [&](std::size_t i) {
        const DayAggregates::Group& group = groups[i];
        const ClientId client_id(group.key);
        const Client24& client = clients_->client(client_id);

        const std::uint32_t prediction_key =
            grouping == Grouping::kEcsPrefix ? group.key
                                             : client.ldns.value;
        const std::optional<Prediction> prediction =
            predictor.predict(prediction_key);

        EvalOutcome outcome;
        outcome.client = client_id;
        outcome.weight = client.daily_queries;

        if (!prediction || prediction->anycast) {
          // The system would return the anycast address: performance is
          // anycast's by definition; improvement is exactly zero.
          outcome.predicted_anycast = true;
          scored[i] = outcome;
          return;
        }

        const DayAggregates::Target* anycast_target =
            per_client.find_target(group, TargetKey{true, FrontEndId{}});
        if (anycast_target == nullptr ||
            static_cast<int>(anycast_target->count) <
                config_.min_eval_samples) {
          // Cannot judge without anycast baselines.
          metric_count("eval.skipped_no_baseline");
          return;
        }
        const DayAggregates::Target* fe_target = per_client.find_target(
            group, TargetKey{false, prediction->front_end});
        if (fe_target == nullptr ||
            static_cast<int>(fe_target->count) < config_.min_eval_samples) {
          // Predicted front-end unmeasured on the evaluation day.
          metric_count("eval.skipped_unmeasured_fe");
          return;
        }

        const double qs[] = {0.50, 0.75};
        const auto anycast_q =
            quantiles(per_client.samples(*anycast_target), qs);
        const auto fe_q = quantiles(per_client.samples(*fe_target), qs);
        outcome.predicted_anycast = false;
        outcome.improvement_p50 = anycast_q[0] - fe_q[0];
        outcome.improvement_p75 = anycast_q[1] - fe_q[1];
        scored[i] = outcome;
      });

  std::vector<EvalOutcome> outcomes;
  std::size_t predicted_anycast = 0;
  for (const auto& maybe : scored) {
    if (!maybe) continue;
    if (maybe->predicted_anycast) {
      ++predicted_anycast;
    } else {
      metric_observe("eval.improvement_p50_ms", maybe->improvement_p50);
    }
    outcomes.push_back(*maybe);
  }
  metric_count("eval.outcomes", outcomes.size());
  metric_count("eval.predicted_anycast", predicted_anycast);
  return outcomes;
}

EvalSummary PredictionEvaluator::summarize(
    std::span<const EvalOutcome> outcomes) const {
  EvalSummary summary;
  double total_weight = 0.0;
  for (const EvalOutcome& o : outcomes) {
    summary.improvement_p50.add(o.improvement_p50, o.weight);
    summary.improvement_p75.add(o.improvement_p75, o.weight);
    total_weight += o.weight;
    if (o.improvement_p50 > config_.epsilon_ms) {
      summary.fraction_improved_p50 += o.weight;
    } else if (o.improvement_p50 < -config_.epsilon_ms) {
      summary.fraction_worse_p50 += o.weight;
    }
    if (o.improvement_p75 > config_.epsilon_ms) {
      summary.fraction_improved_p75 += o.weight;
    } else if (o.improvement_p75 < -config_.epsilon_ms) {
      summary.fraction_worse_p75 += o.weight;
    }
  }
  summary.evaluated = outcomes.size();
  if (total_weight > 0.0) {
    summary.fraction_improved_p50 /= total_weight;
    summary.fraction_worse_p50 /= total_weight;
    summary.fraction_improved_p75 /= total_weight;
    summary.fraction_worse_p75 /= total_weight;
  }
  return summary;
}

}  // namespace acdn
