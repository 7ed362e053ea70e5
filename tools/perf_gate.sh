#!/usr/bin/env bash
# Perf-smoke gate: fail when any gated smoke-benchmark phase regresses
# more than its tolerance against the committed reference.
#
#   tools/perf_gate.sh <smoke_json> [reference_json] [tolerance_pct]
#
# Gates the smoke run's small-scale `sim`, `join`, and `aggregate`
# ns_per_row (scale "small" — the only scale --smoke runs) against the
# same figures in the committed repo-root BENCH_pipeline.json. CI runners
# are noisy and the committed reference is a full (many-rep, warm) run,
# so the default tolerances are deliberately loose: the gate catches
# step-change regressions (an O(clients) loop reappearing in route
# resolution, a comparison sort sneaking back into the join — both were
# multiples, not percentages), not scheduler jitter. Small-scale smoke
# runs on a shared runner swing close to 2x between invocations; the
# pre-batch-kernel join was 9x the current reference, so a 2x sim band
# and a 3x join/aggregate band still have a wide margin to the failures
# they exist to catch. The two short phases get the wider band because
# their smoke rep counts are small, so their variance is higher.
# Override the base tolerance via argument 3 (join/aggregate run at 2x
# the base) or skip entirely with ACDN_PERF_GATE=off.
#
# Scaling gate: the same invocation also checks the large-scale thread
# sweep — for each deterministic stage (join, aggregate), ns/row at 4
# threads must not exceed ns/row at 1 thread by more than 10%: asking
# for more threads than a stage can use must never pay fan-out overhead
# (the join and the radix sorts are serial at every thread count). The smoke
# candidate only runs the small scale, so the sweep is read from
# whichever input file carries it (the candidate when it is a full run,
# else the committed reference — deterministic at gate time either way).
set -euo pipefail

smoke_json="${1:?usage: perf_gate.sh <smoke_json> [reference_json] [tolerance_pct]}"
reference_json="${2:-BENCH_pipeline.json}"
tolerance_pct="${3:-100}"

if [[ "${ACDN_PERF_GATE:-on}" == "off" ]]; then
  echo "perf_gate: skipped (ACDN_PERF_GATE=off)"
  exit 0
fi

for f in "$smoke_json" "$reference_json"; do
  if [[ ! -f "$f" ]]; then
    echo "perf_gate: missing $f" >&2
    exit 2
  fi
done

# First `"<phase>":` ns_per_row after the "small" scale header. The bench
# JSON is machine-written with one phase per line, so line-oriented awk is
# enough — no jq dependency. The thread_sweep section uses different key
# names (join_ns_per_row), so it cannot shadow the phase lines.
extract_small_phase_ns() {
  awk -v phase="\"$2\":" '
    /"name": "small"/ { in_small = 1 }
    in_small && index($0, phase) {
      if (match($0, /"ns_per_row": [0-9.]+/)) {
        print substr($0, RSTART + 14, RLENGTH - 14)
        exit
      }
    }
  ' "$1"
}

status=0
gate_phase() {
  local phase="$1" tol="$2"
  local smoke_ns ref_ns
  smoke_ns="$(extract_small_phase_ns "$smoke_json" "$phase")"
  ref_ns="$(extract_small_phase_ns "$reference_json" "$phase")"
  if [[ -z "$smoke_ns" || -z "$ref_ns" ]]; then
    echo "perf_gate: could not extract small-scale $phase.ns_per_row" >&2
    echo "  smoke:     '$smoke_ns' from $smoke_json" >&2
    echo "  reference: '$ref_ns' from $reference_json" >&2
    exit 2
  fi
  awk -v phase="$phase" -v smoke="$smoke_ns" -v ref="$ref_ns" -v tol="$tol" '
    BEGIN {
      limit = ref * (1 + tol / 100)
      printf "perf_gate: %-9s ns/row smoke=%.2f reference=%.2f limit=%.2f (+%s%%)\n", \
             phase, smoke, ref, limit, tol
      if (smoke > limit) {
        printf "perf_gate: FAIL — %s phase regressed %.1f%% (> %s%%)\n", \
               phase, (smoke / ref - 1) * 100, tol
        exit 1
      }
    }
  ' || status=1
}

gate_phase sim "$tolerance_pct"
gate_phase join "$((tolerance_pct * 2))"
gate_phase aggregate "$((tolerance_pct * 2))"

# `"<key>": <value>` from the large-scale thread_sweep entry with the
# given thread count. Sweep lines are the only place join_ns_per_row /
# aggregate_ns_per_row appear, so the scale-header "threads" line cannot
# satisfy both patterns.
extract_sweep_ns() {
  awk -v want="\"threads\": $2," -v key="\"$3\": " '
    /"name": "large"/ { in_large = 1 }
    in_large && /"name":/ && !/"name": "large"/ { in_large = 0 }
    in_large && index($0, want) && index($0, key) {
      if (match($0, key "[0-9.]+")) {
        print substr($0, RSTART + length(key), RLENGTH - length(key))
        exit
      }
    }
  ' "$1"
}

scale_file=""
for f in "$smoke_json" "$reference_json"; do
  if [[ -n "$(extract_sweep_ns "$f" 1 join_ns_per_row)" ]]; then
    scale_file="$f"
    break
  fi
done
if [[ -z "$scale_file" ]]; then
  echo "perf_gate: no large-scale thread_sweep in either input" >&2
  exit 2
fi

gate_scaling() {
  local key="$1"
  local one_ns four_ns
  one_ns="$(extract_sweep_ns "$scale_file" 1 "$key")"
  four_ns="$(extract_sweep_ns "$scale_file" 4 "$key")"
  if [[ -z "$one_ns" || -z "$four_ns" ]]; then
    echo "perf_gate: could not extract large-scale $key sweep from $scale_file" >&2
    exit 2
  fi
  awk -v key="$key" -v one="$one_ns" -v four="$four_ns" '
    BEGIN {
      limit = one * 1.10
      printf "perf_gate: %-24s 1t=%.2f 4t=%.2f limit=%.2f (+10%%)\n", \
             key, one, four, limit
      if (four > limit) {
        printf "perf_gate: FAIL — %s at 4 threads is %.1f%% over 1 thread (> 10%%)\n", \
               key, (four / one - 1) * 100
        exit 1
      }
    }
  ' || status=1
}

gate_scaling join_ns_per_row
gate_scaling aggregate_ns_per_row

if [[ "$status" -ne 0 ]]; then
  exit 1
fi
echo "perf_gate: OK"
