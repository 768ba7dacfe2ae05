#!/usr/bin/env bash
# Interleaved A/B of this checkout against another revision.
#
#   bash benchmark/ab.sh <rev> [pairs]
#
# Exports <rev> into benchmark/out/ab/base (git archive), copies this
# checkout's benchmark/ over it so both sides run identical benchmark
# code, and builds both sides once, each with its own root release
# profile. It runs the benchmark's tests on this checkout first. Then it
# runs `pairs` (default 10) pairs; each side runs every workload untraced
# for BENCHMARK.json's run_seconds, the two sides alternate which goes
# first, and pair i uses seed i on both. For each end-to-end metric and
# workload it prints each side's median and quartiles, the fraction of
# pairs the change wins, whether `sim_digest` matches, and a verdict. With
# "base IQR" the distance between the base runs' quartiles and the bound
# from BENCHMARK.json, the first rule that applies gives the verdict:
#   regression  the change has more failed jobs than the base; or its median
#               is worse than the base median by more than the bound; or it
#               loses >= 90% of pairs and its median is worse by more than
#               the base IQR
#   gain        the change wins >= 90% of pairs and its median is better by
#               more than the base IQR
#   unresolved  the change median is worse by more than the base IQR; or the
#               base IQR over its median is wider than the bound and the
#               change does not beat every base run
#   no change   otherwise
set -euo pipefail
cd "$(dirname "$0")/.."
source benchmark/cargo.sh

rev="${1:?usage: benchmark/ab.sh <rev> [pairs]}"
pairs="${2:-10}"
root="$PWD"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
work="$root/benchmark/out/ab"
workloads=(ps_kilo_heavy tdm_kilo_fork fig4_quick fig8_hetero)

rm -rf "$work/base" "$work/runs"
mkdir -p "$work/base" "$work/runs"
git archive "$rev" | tar -x -C "$work/base"
rm -rf "$work/base/benchmark"
mkdir -p "$work/base/benchmark"
tar -c --exclude=./out --exclude=./target -C benchmark . | tar -x -C "$work/base/benchmark"

echo "testing the benchmark on this checkout" >&2
CARGO_TARGET_DIR="$work/target-change" bench_cargo "$root" test >&2

declare -A bin
for side in base change; do
    tree="$root"
    [[ $side == base ]] && tree="$work/base"
    echo "building $side ($tree)" >&2
    CARGO_TARGET_DIR="$work/target-$side" bench_cargo "$tree" build >&2
    bin[$side]="$work/target-$side/release/noc_benchmark"
done

for ((i = 1; i <= pairs; i++)); do
    order=(base change)
    ((i % 2 == 0)) && order=(change base)
    for side in "${order[@]}"; do
        for w in "${workloads[@]}"; do
            echo "pair $i/$pairs: $side $w" >&2
            "${bin[$side]}" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
                --out "$work/runs/out-$side" >"$work/runs/$side-$w-$i.log"
        done
    done
done

python3 - "$work/runs" "$pairs" "$root/BENCHMARK.json" "${workloads[@]}" <<'PY'
import json, statistics, sys

runs, pairs, bench_path, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
bench = json.load(open(bench_path))

def load(side, w, i):
    lines = open(f"{runs}/{side}-{w}-{i}.log").read().splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[1] for l in lines if l.strip().startswith("sim_digest"))
    return result, digest

def quartiles(v):
    # Linear interpolation between order statistics, as the benchmark's
    # own report computes them.
    return statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [v[0]] * 3

print(f"A/B over {pairs} pairs (base = exported revision, change = this checkout)")
print(f"{'workload':<14} {'metric':<12} {'base q1/med/q3':>30} {'change q1/med/q3':>30} "
      f"{'wins':>5} {'digest':>7}  verdict")
for w in workloads:
    res = {s: [load(s, w, i) for i in range(1, pairs + 1)] for s in ("base", "change")}
    failed = {s: sum(r["failed"] for r, _ in res[s]) for s in res}
    digests = "match" if all(a[1] == b[1] for a, b in zip(res["base"], res["change"])) else "CHANGED"
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        base = [r["metrics"][name]["value"] for r, _ in res["base"]]
        change = [r["metrics"][name]["value"] for r, _ in res["change"]]
        qb, qc = quartiles(base), quartiles(change)
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change)) / pairs
        losses = sum(sign * (c - b) > 0 for b, c in zip(base, change)) / pairs
        better_by = sign * (qb[1] - qc[1])
        base_iqr = qb[2] - qb[0]
        all_better = max(sign * c for c in change) < min(sign * b for b in base)
        if failed["change"] > failed["base"]:
            verdict = "regression (more failed jobs)"
        elif -better_by / qb[1] > bound or (losses >= 0.9 and -better_by > base_iqr):
            verdict = "regression"
        elif wins >= 0.9 and better_by > base_iqr:
            verdict = "gain"
        elif -better_by > base_iqr or (base_iqr / qb[1] > bound and not all_better):
            verdict = "unresolved"
        else:
            verdict = "no change"
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"{w:<14} {name:<12} {fmt(qb):>30} {fmt(qc):>30} {wins:>5.2f} {digests:>7}  "
              f"{verdict} (change median {100 * (qc[1] / qb[1] - 1):+.1f}%, bound {100 * bound:.0f}%)")
    if failed["base"] or failed["change"]:
        print(f"{w:<14} failed jobs: base {failed['base']}, change {failed['change']}")
PY
