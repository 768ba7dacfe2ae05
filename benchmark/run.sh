#!/usr/bin/env bash
# Build the simulator benchmark (release, offline) and run it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       Runs one workload. The last line of standard output is the JSON
#       result; the report is also written to benchmark/out/.
#   bash benchmark/run.sh
#       Runs every workload untraced, then every workload traced, with
#       seed 0 and BENCHMARK.json's run_seconds per run.
#   bash benchmark/run.sh --test
#       Runs the benchmark's own tests.
#
# Cargo's build output goes to standard error. CARGO_TARGET_DIR is
# honoured; it defaults to benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
source benchmark/cargo.sh

if [[ ${1-} == --test ]]; then
    bench_cargo . test
    exit
fi

bench_cargo . build >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/noc_benchmark"

if [[ $# -gt 0 ]]; then
    exec "$bin" "$@"
fi

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=(ps_kilo_heavy tdm_kilo_fork fig4_quick fig8_hetero)
for trace in 0 1; do
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --seed 0 --seconds "$seconds" --trace "$trace"
    done
done
