#!/usr/bin/env bash
# Run the experiment/bench binaries and dump a JSON index of the results,
# or compare two distilled bench JSON files.
#
# Usage: tools/run_benches.sh [build-dir] [output-dir]
#        tools/run_benches.sh --compare old.json new.json
#   build-dir   where the bench binaries live (default: build)
#   output-dir  where per-bench logs + results.json land
#               (default: bench-results)
#   BENCHES     (env) space-separated subset of benches to run
#               (default: all). An entry may carry arguments after a
#               colon, e.g. "bench_estimator:--dnn"; commas separate
#               multiple arguments ("bench_estimator:--dnn,--dnn-full").
#
# Every bench's stdout+stderr goes to <output-dir>/<bench>.txt; the JSON
# index records exit codes and wall-clock seconds, plus any machine
# readable "JSON {...}" lines the bench itself emitted. The performance
# records CI tracks are additionally distilled into
# <output-dir>/BENCH_pr4.json ... BENCH_pr10.json (the table at the end
# of this script) for artifact upload and --compare.
#
# --compare exits nonzero when any points-per-second record of new.json
# regresses more than 15% below old.json, any pinned hit-rate field
# drops, any materializations-per-point field RISES (the plan-first
# pipeline drives it toward zero; more IR built per point is a
# regression even when results stay identical), any *violations
# field RISES (the audit sweeps pin zero L3/L4 findings on healthy
# runs; a single new violation is a correctness bug, not noise), any
# *divergences field RISES (the smith differential corpus pins zero
# cross-path disagreements; one means two evaluation paths answered
# differently for the same design point), any
# *latency field RISES (the whole-model DSE results are deterministic,
# so a longer composed design is a real QoR regression), or any
# *utilization field DROPS (the allocator leaving budget on the table
# it previously spent means worse global allocation), or any
# warm_speedup field drops (the committed baseline pins the snapshot
# warm-start acceptance floor: a warm sweep must stay >= 2x cold). Only
# fields present in BOTH matched records are compared, so a committed
# baseline may carry just the deterministic fields (hit rates,
# materializations per point, audit violations) while
# artifact-vs-artifact comparisons also gate throughput.

set -u

if [ "${1:-}" = "--compare" ]; then
    if [ $# -ne 3 ]; then
        echo "usage: $0 --compare old.json new.json" >&2
        exit 2
    fi
    python3 - "$2" "$3" <<'EOF'
import json, sys

RATE_DROP = 0.15  # points/sec may regress at most 15%.

def records(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for section, recs in data.items():
        for rec in recs or []:
            key_fields = {k: v for k, v in rec.items()
                          if isinstance(v, (str, bool))}
            for k in ("threads", "kernels", "points", "reps"):
                if k in rec:
                    key_fields[k] = rec[k]
            key = (section, json.dumps(key_fields, sort_keys=True))
            out[key] = rec
    return out

old, new = records(sys.argv[1]), records(sys.argv[2])
failures = []
for key, old_rec in sorted(old.items()):
    new_rec = new.get(key)
    if new_rec is None:
        failures.append("missing record: %s %s" % key)
        continue
    for field, old_value in old_rec.items():
        if field not in new_rec:
            continue
        new_value = new_rec[field]
        if not isinstance(old_value, (int, float)) or isinstance(
                old_value, bool):
            continue
        if "warm_speedup" in field:
            # The snapshot warm-start speedup is a pinned floor (the
            # committed baseline carries the acceptance threshold): any
            # drop below it means persistence stopped paying for itself.
            if new_value < old_value - 1e-9:
                failures.append(
                    "%s %s: %s dropped %.2f -> %.2f (warm start "
                    "regressed)" % (key[0], key[1], field, old_value,
                                    new_value))
        elif "points_per_second" in field:
            if new_value < (1.0 - RATE_DROP) * old_value:
                failures.append(
                    "%s %s: %s regressed %.1f -> %.1f (>15%%)"
                    % (key[0], key[1], field, old_value, new_value))
        elif field.endswith("hit_rate"):
            if new_value < old_value - 1e-9:
                failures.append(
                    "%s %s: %s dropped %.3f -> %.3f"
                    % (key[0], key[1], field, old_value, new_value))
        elif "materializations_per_point" in field:
            if new_value > old_value + 1e-9:
                failures.append(
                    "%s %s: %s rose %.3f -> %.3f"
                    % (key[0], key[1], field, old_value, new_value))
        elif field.endswith("violations"):
            if new_value > old_value:
                failures.append(
                    "%s %s: %s rose %d -> %d (audit findings!)"
                    % (key[0], key[1], field, old_value, new_value))
        elif field.endswith("divergences"):
            # The smith corpus pins ZERO cross-path divergences: a
            # single one means two evaluation paths disagreed on a QoR
            # or broke a counter invariant — a correctness bug.
            if new_value > old_value:
                failures.append(
                    "%s %s: %s rose %d -> %d (differential failure!)"
                    % (key[0], key[1], field, old_value, new_value))
        elif field.endswith("latency"):
            if new_value > old_value:
                failures.append(
                    "%s %s: %s rose %d -> %d (composed QoR regression)"
                    % (key[0], key[1], field, old_value, new_value))
        elif field.endswith("utilization"):
            if new_value < old_value - 1e-9:
                failures.append(
                    "%s %s: %s dropped %.4f -> %.4f"
                    % (key[0], key[1], field, old_value, new_value))
for failure in failures:
    print("REGRESSION:", failure)
if failures:
    sys.exit(1)
print("compare: no regressions (%d records matched)" % len(old))
EOF
    exit $?
fi

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"
mkdir -p "$OUT_DIR"

DEFAULT_BENCHES="bench_parallel_dse bench_estimator bench_fig6 bench_fig7 \
bench_fig8 bench_table3 bench_table4 bench_table5 \
scalehls-smith:--corpus,100,--seed,1"
read -r -a BENCHES <<< "${BENCHES:-$DEFAULT_BENCHES}"

json="$OUT_DIR/results.json"
printf '{\n  "benches": [\n' > "$json"
first=1

for spec in "${BENCHES[@]}"; do
    bench="${spec%%:*}"
    args="${spec#"$bench"}"
    args="${args#:}"
    args="${args//,/ }"
    bin="$BUILD_DIR/$bench"
    log="$OUT_DIR/$bench.txt"
    if [ ! -x "$bin" ]; then
        echo "skip: $bench (not built)"
        continue
    fi
    echo "running $bench ${args:+($args) }..."
    start=$(date +%s.%N)
    # shellcheck disable=SC2086
    "$bin" $args > "$log" 2>&1
    code=$?
    end=$(date +%s.%N)
    secs=$(echo "$end $start" | awk '{printf "%.2f", $1 - $2}')

    [ $first -eq 0 ] && printf ',\n' >> "$json"
    first=0
    printf '    {"name": "%s", "exit_code": %d, "seconds": %s, "log": "%s"' \
        "$bench" "$code" "$secs" "$bench.txt" >> "$json"
    # Inline any JSON records the bench emitted.
    records=$(grep '^JSON ' "$log" | sed 's/^JSON //' | paste -sd, -)
    if [ -n "$records" ]; then
        printf ', "records": [%s]' "$records" >> "$json"
    fi
    printf '}' >> "$json"
done

printf '\n  ]\n}\n' >> "$json"
echo "wrote $json"

collect() {
    # collect <log> <bench-name-filter>
    [ -f "$1" ] || return 0
    grep '^JSON ' "$1" | sed 's/^JSON //' |
        grep "\"bench\":\"$2\"" | paste -sd, -
}

# Distill the performance records CI tracks into one BENCH_<pr>.json
# per table row: each "section:log:filter" entry becomes a JSON array of
# the records whose "bench" is <filter> in <output-dir>/<log>.txt.
#  - pr4: throughput, per-tier cache hit rates, materializations/point;
#  - pr5: the DNN fast-path sweep (hit rate, materializations/point);
#  - pr6: plan-first probe (full/overlay per point, zero-clone compose,
#    prediction mismatches, cross-band schedule sharing);
#  - pr7: audit mode (L3/L4 checks + violations, audited throughput);
#  - pr8: whole-model DSE (composed latency, bottleneck, DSP use);
#  - pr9: snapshot persistence (warm speedup, zero warm work);
#  - pr10: the smith corpus (counts, divergences, audit violations).
while read -r pr sections; do
    out="$OUT_DIR/BENCH_$pr.json"
    sep=''
    {
        printf '{'
        for entry in $sections; do
            IFS=: read -r section log filter <<< "$entry"
            printf '%s\n  "%s": [%s]' "$sep" "$section" \
                "$(collect "$OUT_DIR/$log.txt" "$filter")"
            sep=','
        done
        printf '\n}\n'
    } > "$out"
    echo "wrote $out"
done <<'TABLE'
pr4 parallel_dse:bench_parallel_dse:parallel_dse estimator_scaling:bench_estimator:estimator band_sweeps:bench_estimator:estimator_sweep incremental_materialize:bench_estimator:estimator_materialize
pr5 dnn_fast_path:bench_estimator:estimator_dnn
pr6 probe:bench_estimator:estimator_probe
pr7 audit:bench_estimator:estimator_audit
pr8 dnn_full:bench_estimator:estimator_dnn_full
pr9 persist:bench_estimator:estimator_persist
pr10 smith_corpus:scalehls-smith:smith_corpus
TABLE
