#!/usr/bin/env bash
# CI gate: build, test, lint. Pass --offline (or set CI_OFFLINE=1) to run
# against vendored dependencies only — the default in the sandboxed build
# environment, where crates.io is unreachable.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${1:-}" == "--offline" || "${CI_OFFLINE:-}" == "1" ]]; then
    OFFLINE=(--offline)
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== manifests: every [dependencies] entry is referenced by its package's src/ =="
# An edge nothing uses still builds and links with the package; crates
# only tests use belong in [dev-dependencies].
UNUSED=0
for MANIFEST in Cargo.toml crates/*/Cargo.toml; do
    DIR="$(dirname "$MANIFEST")"
    for DEP in $(awk '/^\[/ { in_deps = ($0 == "[dependencies]"); next }
                      in_deps && /^[A-Za-z0-9_-]+ *=/ { print $1 }' "$MANIFEST"); do
        if ! grep -rqw -- "${DEP//-/_}" "$DIR/src"; then
            echo "$MANIFEST: $DEP is in [dependencies] but $DIR/src never names ${DEP//-/_}"
            UNUSED=1
        fi
    done
done
[[ $UNUSED == 0 ]] || exit 1
echo "every manifest dependency is referenced"

echo "== cargo build --release =="
cargo build --release --workspace "${OFFLINE[@]}"

echo "== experiment binaries: unknown flag exits 2, --help exits 0, neither simulates =="
# Every bench binary checks its command line before it runs anything:
# the figure, table and ablation binaries against the shared flag table,
# network_step against its own. The timeout catches a binary that starts
# a sweep instead.
FLAG_TMP="$(mktemp -d)"
for SRC in crates/bench/src/bin/*.rs; do
    BIN="$(basename "$SRC" .rs)"
    LISTED="--sweep-threads <n>"
    [[ "$BIN" == network_step ]] && LISTED="--json-out <path>"
    EXE="${CARGO_TARGET_DIR:-target}/release/$BIN"
    CODE=0
    timeout 5 "$EXE" --qiuck > "$FLAG_TMP/out" 2> "$FLAG_TMP/err" || CODE=$?
    [[ $CODE == 2 ]] || { echo "$BIN --qiuck exited $CODE, want 2"; exit 1; }
    grep -q 'unknown flag "--qiuck"' "$FLAG_TMP/err" || { echo "$BIN: no unknown-flag error"; exit 1; }
    [[ ! -s "$FLAG_TMP/out" ]] || { echo "$BIN --qiuck printed output"; exit 1; }
    CODE=0
    timeout 5 "$EXE" --help > "$FLAG_TMP/out" 2> "$FLAG_TMP/err" || CODE=$?
    [[ $CODE == 0 ]] || { echo "$BIN --help exited $CODE, want 0"; exit 1; }
    grep -q -- "$LISTED" "$FLAG_TMP/out" || { echo "$BIN --help: no flag list"; exit 1; }
    # Only three built-in figures write a --json envelope; the others
    # take --json with --scenario alone and refuse it without.
    case "$BIN" in
        network_step | fig4_load_latency | fig5_energy_saving | ablation_profiled_circuits) continue ;;
    esac
    CODE=0
    timeout 5 "$EXE" --quick --json "$FLAG_TMP/env.json" > "$FLAG_TMP/out" 2> "$FLAG_TMP/err" || CODE=$?
    [[ $CODE == 2 ]] || { echo "$BIN --json without --scenario exited $CODE, want 2"; exit 1; }
    grep -q '^error: --json needs --scenario' "$FLAG_TMP/err" || { echo "$BIN --json: no usage error"; exit 1; }
    [[ ! -s "$FLAG_TMP/out" && ! -e "$FLAG_TMP/env.json" ]] || { echo "$BIN --json ran"; exit 1; }
done
# noc-serve checks its own flag table: a misspelt mode flag must not
# fall through to the stdin one-shot mode, and a bad value exits 2.
SERVE="${CARGO_TARGET_DIR:-target}/release/noc-serve"
for ARGS in "--lisen $FLAG_TMP/sock" "--workers x"; do
    CODE=0
    # shellcheck disable=SC2086
    timeout 5 "$SERVE" $ARGS < /dev/null > "$FLAG_TMP/out" 2> "$FLAG_TMP/err" || CODE=$?
    [[ $CODE == 2 ]] || { echo "noc-serve $ARGS exited $CODE, want 2"; exit 1; }
    grep -q -- "--listen <socket>" "$FLAG_TMP/err" || { echo "noc-serve $ARGS: no flag list"; exit 1; }
done
[[ ! -e "$FLAG_TMP/sock" ]] || { echo "noc-serve --lisen created a socket"; exit 1; }
CODE=0
timeout 5 "$SERVE" --help < /dev/null > "$FLAG_TMP/out" 2> "$FLAG_TMP/err" || CODE=$?
[[ $CODE == 0 ]] || { echo "noc-serve --help exited $CODE, want 0"; exit 1; }
grep -q -- "--listen <socket>" "$FLAG_TMP/out" || { echo "noc-serve --help: no flag list"; exit 1; }
rm -rf "$FLAG_TMP"
echo "every experiment binary and noc-serve reject unknown flags and answer --help"

echo "== cargo test -q =="
cargo test -q --workspace "${OFFLINE[@]}"

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets "${OFFLINE[@]}" -- -D warnings

echo "== clippy (exhaustive-schedule hook) =="
# The feature-gated phase-2 override is outside the workspace clippy run
# above; lint it explicitly.
cargo clippy -p noc-sim --features exhaustive --all-targets "${OFFLINE[@]}" -- -D warnings
cargo clippy -p tdm-noc --features exhaustive --all-targets "${OFFLINE[@]}" -- -D warnings

echo "== exhaustive schedule permutations (2x2, all 24 orders, packet and hybrid) =="
cargo test -q -p noc-sim --features exhaustive --test exhaustive_order "${OFFLINE[@]}"
cargo test -q -p tdm-noc --features exhaustive --test exhaustive_order "${OFFLINE[@]}"

echo "== zero-allocation steady state (counting global allocator) =="
cargo test -q -p noc-bench --test zero_alloc "${OFFLINE[@]}"

echo "== network_step kernel bench (every point once, JSON schema smoke) =="
# Runs every network_step point, including the 0.004 flits/node/cycle
# low-load points that exercise the activity-driven scheduler.
NS_TMP="$(mktemp -d)"
cargo run --release -p noc-bench --bin network_step "${OFFLINE[@]}" -- \
    --quick --json-out "$NS_TMP/ns.json" > /dev/null
python3 - "$NS_TMP/ns.json" <<'PY'
import json, re, sys
env = json.load(open(sys.argv[1]))
assert env["schema_version"] == 1, env["schema_version"]
assert env["bench"] == "network_step"
names = {p["name"] for p in env["points"]}
for want in ("packet_64n_0.06flits",
             "packet_1024n_0.004flits", "tdm_hybrid_1024n_0.06flits"):
    assert want in names, (want, names)
for p in env["points"]:
    assert p["best_ns_per_cycle"] > 0 and p["packets_delivered"] > 0, p["name"]
    assert len(p["wall_ns"]) == env["reps"], p["name"]
    # The name states the load the point really offers.
    label = float(re.search(r"_([0-9.]+)flits", p["name"]).group(1))
    assert label == p["flits_per_node_cycle"], (p["name"], p["flits_per_node_cycle"])
print(f"network_step JSON ok: {len(env['points'])} points")
PY
rm -rf "$NS_TMP"

echo "== figure determinism (fig4 --quick at --sweep-threads 1 vs 2, byte-identical JSON) =="
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --quick --json "$SWEEP_TMP/fig4_t1.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --quick --json "$SWEEP_TMP/fig4_t2.json" --sweep-threads 2 > /dev/null
cmp "$SWEEP_TMP/fig4_t1.json" "$SWEEP_TMP/fig4_t2.json"
echo "fig4 --quick JSON identical across thread counts"

echo "== sweep determinism (--sweep-threads 1 vs 4, byte-identical JSON) =="
cat > "$SWEEP_TMP/sweep.json" <<'JSON'
[
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.05 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 11 },
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.10 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 12 },
  { "backend": "PacketVc4", "mesh": 4,
    "traffic": { "pattern": "TR", "rate": 0.08 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 13 },
  { "backend": "HybridSdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.12 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 14 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --json "$SWEEP_TMP/t1.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --json "$SWEEP_TMP/t4.json" --sweep-threads 4 > /dev/null
cmp "$SWEEP_TMP/t1.json" "$SWEEP_TMP/t4.json"
echo "sweep JSON identical across thread counts"

echo "== tracing on/off bit-identity (envelope data block) =="
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --json "$SWEEP_TMP/traced_sweep.json" \
    --trace-out "$SWEEP_TMP/sweeptrace.json" --metrics-window 500 > /dev/null
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
plain = json.load(open(f"{tmp}/t1.json"))
traced = json.load(open(f"{tmp}/traced_sweep.json"))
assert plain["data"] == traced["data"], "tracing perturbed the measurements"
assert "telemetry" not in plain, "untraced run must not add a telemetry block"
assert "telemetry" in traced, "traced run missing its telemetry block"
# The merged windows are the element-wise sum of the specs' windows.
specs = [s["windows"] for s in traced["telemetry"]["specs"] if s is not None]
merged = traced["telemetry"]["merged_metrics"]["windows"]
assert merged and len(merged) == max(map(len, specs)), "merged window count"
for i, w in enumerate(merged):
    parts = [s[i]["values"] for s in specs if i < len(s)]
    assert w["values"] == [sum(col) for col in zip(*parts)], f"merged window {i}"
print(f"data blocks identical with tracing on vs off; {len(merged)} merged "
      "windows sum the specs' windows")
PY

echo "== 256-node torus smoke (packet + TDM + SDM, dateline VC classes) =="
cat > "$SWEEP_TMP/torus.json" <<'JSON'
[
  { "backend": "PacketVc4", "mesh": 16, "topology": "torus",
    "traffic": { "pattern": "UR", "rate": 0.08 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1200, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 21 },
  { "backend": "HybridTdmVc4", "mesh": 16, "topology": "torus",
    "traffic": { "pattern": "UR", "rate": 0.05 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1200, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 22 },
  { "backend": "HybridSdmVc4", "mesh": 16, "topology": "torus",
    "traffic": { "pattern": "UR", "rate": 0.03 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1200, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 25 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/torus.json" --json "$SWEEP_TMP/torus1.json" --sweep-threads 1 > /dev/null
echo "256-node torus scenarios ran"

echo "== non-mesh sweep determinism (torus + cmesh, --sweep-threads 1 vs 4) =="
cat > "$SWEEP_TMP/topo_sweep.json" <<'JSON'
[
  { "backend": "PacketVc4", "mesh": 4, "topology": "torus",
    "traffic": { "pattern": "UR", "rate": 0.08 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 23 },
  { "backend": "HybridTdmVc4", "mesh": 4, "topology": "cmesh", "concentration": 2,
    "traffic": { "pattern": "UR", "rate": 0.05 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 24 },
  { "backend": "HybridSdmVc4", "mesh": 4, "topology": "torus",
    "traffic": { "pattern": "UR", "rate": 0.08 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 26 },
  { "backend": "HybridSdmVc4", "mesh": 4, "topology": "cmesh", "concentration": 2,
    "traffic": { "pattern": "UR", "rate": 0.05 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 27 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/topo_sweep.json" --json "$SWEEP_TMP/topo1.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/topo_sweep.json" --json "$SWEEP_TMP/topo4.json" --sweep-threads 4 > /dev/null
cmp "$SWEEP_TMP/topo1.json" "$SWEEP_TMP/topo4.json"
echo "non-mesh sweep JSON identical across thread counts"

echo "== 1024-node smoke (packet + TDM + SDM, sweep-thread determinism) =="
# Kilo-node points on all three router datapaths (20480 VC rings, one
# ring table per router): a short loaded run must be byte-identical
# across sweep-thread counts.
cat > "$SWEEP_TMP/kilo.json" <<'JSON'
[
  { "backend": "PacketVc4", "mesh": 32,
    "traffic": { "pattern": "UR", "rate": 0.06 },
    "phases": { "warmup_cycles": 200, "warmup_packets": 50,
                "measure_cycles": 600, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 51 },
  { "backend": "HybridTdmVc4", "mesh": 32,
    "traffic": { "pattern": "UR", "rate": 0.04 },
    "phases": { "warmup_cycles": 200, "warmup_packets": 50,
                "measure_cycles": 600, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 52 },
  { "backend": "HybridSdmVc4", "mesh": 32,
    "traffic": { "pattern": "UR", "rate": 0.02 },
    "phases": { "warmup_cycles": 200, "warmup_packets": 50,
                "measure_cycles": 600, "measure_packets": 2000,
                "drain_cycles": 4000 },
    "seed": 53 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/kilo.json" --json "$SWEEP_TMP/kilo1.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/kilo.json" --json "$SWEEP_TMP/kilo2.json" --sweep-threads 2 > /dev/null
cmp "$SWEEP_TMP/kilo1.json" "$SWEEP_TMP/kilo2.json"
echo "1024-node smoke ok: JSON identical across thread counts"

echo "== traced TDM hetero scenario (Perfetto trace + heatmap + envelope v3) =="
cat > "$SWEEP_TMP/traced.json" <<'JSON'
[ {"backend": "HybridTdmVc4", "cpu": "AMMP", "gpu": "BLACKSCHOLES", "quick": true, "seed": 7} ]
JSON
cargo run --release -p noc-bench --bin fig8_hetero "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/traced.json" --json "$SWEEP_TMP/traced_out.json" \
    --trace-out "$SWEEP_TMP/trace.json" --trace-events all --trace-sample 8 \
    --metrics-window 2000 > /dev/null
python3 - "$SWEEP_TMP" <<'PY'
import collections, csv, json, sys
tmp = sys.argv[1]
trace = json.load(open(f"{tmp}/trace.json"))
evs = trace["traceEvents"]
cats = collections.Counter(e.get("cat") for e in evs if e.get("ph") != "M")
assert any(e["ph"] == "b" for e in evs), "no circuit span open"
assert any(e["ph"] == "e" for e in evs), "no circuit span close"
for cat in ("flit", "circuit"):
    assert cats[cat] > 0, f"no {cat} events in the trace"
env = json.load(open(f"{tmp}/traced_out.json"))
assert env["schema_version"] == 3, env["schema_version"]
tel = env["telemetry"]["specs"][0]
link = tel["link_flits"]
rows = list(csv.DictReader(open(f"{tmp}/trace.heatmap.csv")))
assert len(rows) == len(link), "heatmap rows vs envelope link count"
assert sum(int(r["flits"]) for r in rows) == sum(link), "heatmap sum vs envelope"
assert tel["windows"], "no metric windows despite --metrics-window"
# Each window column sums to the counter it is a delta of.
col = {name: i for i, name in enumerate(tel["metric_names"])}
total = lambda name: sum(w["values"][col[name]] for w in tel["windows"])
stats = env["data"][0]["stats"]
assert total("link_flits") == sum(link), "window link_flits vs per-link counters"
for name in ("packets_delivered", "flits_delivered"):
    assert total(name) == stats[name], f"window {name} vs the mix's stats"
assert all(w["values"][col["packet_latency"]] == w["values"][col["packets_delivered"]]
           for w in tel["windows"]), "packet_latency counts deliveries"
print(f"trace ok: {len(evs)} events, categories {dict(cats)}, "
      f"{len(tel['windows'])} metric windows")
PY

echo "== checkpoint/restore determinism (continuous vs --checkpoint-out vs --checkpoint-from) =="
# 4x4 on every backend, and the hybrid backends at 32x32, where the slot
# tables hold 256 entries per port and the per-node tables index a
# 1024-node universe. UR restores replay the source's trials; the TR point
# restores by jumping the source's generator. Each point: backend, mesh,
# pattern, rate, warm-up, measure.
for POINT in "PacketVc4 4 UR 0.10 300 1500" "HybridTdmVc4 4 UR 0.10 300 1500" \
    "HybridSdmVc4 4 UR 0.10 300 1500" "HybridTdmVc4 32 UR 0.04 200 600" \
    "HybridSdmVc4 32 UR 0.02 200 600" "HybridTdmVc4 32 TR 0.01 2000 600"; do
    read -r BACKEND MESH PATTERN RATE WARMUP MEASURE <<< "$POINT"
    cat > "$SWEEP_TMP/ckpt_spec.json" <<JSON
[
  { "backend": "$BACKEND", "mesh": $MESH,
    "traffic": { "pattern": "$PATTERN", "rate": $RATE },
    "phases": { "warmup_cycles": $WARMUP, "warmup_packets": 50,
                "measure_cycles": $MEASURE, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 31 }
]
JSON
    cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
        --scenario "$SWEEP_TMP/ckpt_spec.json" --json "$SWEEP_TMP/ckpt_cont.json" > /dev/null
    cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
        --scenario "$SWEEP_TMP/ckpt_spec.json" --json "$SWEEP_TMP/ckpt_out.json" \
        --checkpoint-out "$SWEEP_TMP/warm.ckpt" > /dev/null
    cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
        --scenario "$SWEEP_TMP/ckpt_spec.json" --json "$SWEEP_TMP/ckpt_from.json" \
        --checkpoint-from "$SWEEP_TMP/warm.ckpt" > /dev/null
    cmp "$SWEEP_TMP/ckpt_cont.json" "$SWEEP_TMP/ckpt_out.json"
    cmp "$SWEEP_TMP/ckpt_cont.json" "$SWEEP_TMP/ckpt_from.json"
    rm -f "$SWEEP_TMP/warm.ckpt"
    echo "$BACKEND ${MESH}x${MESH} $PATTERN: restore byte-identical to continuous run"
done

echo "== transient-fault TDM scenario (kill + revive, repair FSM, drain) =="
cat > "$SWEEP_TMP/fault.json" <<'JSON'
[
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "TR", "rate": 0.15 },
    "phases": { "warmup_cycles": 500, "warmup_packets": 50,
                "measure_cycles": 3000, "measure_packets": 10000,
                "drain_cycles": 3000 },
    "seed": 9,
    "faults": [ { "at": 1400, "node": 5, "dir": "east" },
                { "at": 2000, "node": 5, "dir": "east", "up": true } ] }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/fault.json" --json "$SWEEP_TMP/fault_out.json" > /dev/null
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
env = json.load(open(f"{tmp}/fault_out.json"))
stats = env["data"][0]["result"]["stats"]
# Fault counters serialize only when non-zero.
assert stats.get("link_down_events", 0) == 1, stats
assert stats.get("link_up_events", 0) == 1, stats
assert stats.get("repairs", 0) == 2, "kill + revive must each complete a repair"
assert stats.get("repair_cycle_sum", 0) > 0, "repair latency missing"
assert stats["packets_delivered"] > 100, "network starved across the outage"
spec = env["scenario"][0]
assert len(spec["faults"]) == 2, "fault schedule must echo into the envelope"
print(f"transient fault ok: repairs={stats['repairs']}, "
      f"mean repair latency {stats['repair_cycle_sum'] / stats['repairs']:.0f} cycles")
PY

echo "== noc-serve smoke (socket batch twice: second pass all cache hits, byte-identical) =="
SERVE_SOCK="$SWEEP_TMP/noc-serve.sock"
cargo run --release -p noc-serve --bin noc-serve "${OFFLINE[@]}" -- \
    --listen "$SERVE_SOCK" --workers 2 --cache-dir "$SWEEP_TMP/serve-cache" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SERVE_SOCK" ]] && break; sleep 0.1; done
[[ -S "$SERVE_SOCK" ]] || { echo "noc-serve did not come up"; exit 1; }
cat > "$SWEEP_TMP/serve_batch.jsonl" <<'JSONL'
{"op":"run","id":"s1","spec":{"backend":"HybridTdmVc4","mesh":4,"traffic":{"pattern":"UR","rate":0.05},"phases":{"warmup_cycles":300,"warmup_packets":50,"measure_cycles":1500,"measure_packets":2000,"drain_cycles":3000},"seed":11}}
{"op":"run","id":"s2","spec":{"backend":"HybridTdmVc4","mesh":4,"traffic":{"pattern":"UR","rate":0.10},"phases":{"warmup_cycles":300,"warmup_packets":50,"measure_cycles":1500,"measure_packets":2000,"drain_cycles":3000},"seed":12}}
{"op":"run","id":"s3","spec":{"backend":"PacketVc4","mesh":4,"traffic":{"pattern":"TR","rate":0.08},"phases":{"warmup_cycles":300,"warmup_packets":50,"measure_cycles":1500,"measure_packets":2000,"drain_cycles":3000},"seed":13}}
JSONL
cargo run --release -p noc-serve --bin noc-serve "${OFFLINE[@]}" -- \
    --connect "$SERVE_SOCK" < "$SWEEP_TMP/serve_batch.jsonl" | sort > "$SWEEP_TMP/serve_pass1.jsonl"
cargo run --release -p noc-serve --bin noc-serve "${OFFLINE[@]}" -- \
    --connect "$SERVE_SOCK" < "$SWEEP_TMP/serve_batch.jsonl" | sort > "$SWEEP_TMP/serve_pass2.jsonl"
echo '{"op":"shutdown"}' | cargo run --release -p noc-serve --bin noc-serve "${OFFLINE[@]}" -- \
    --connect "$SERVE_SOCK" > /dev/null
wait "$SERVE_PID"
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
def raw_envelope(line):
    # Slice the raw bytes rather than comparing parsed JSON: the cache
    # contract is *byte* identity of the replayed envelope.
    return line[line.index('"envelope":') + len('"envelope":'):].rstrip().rstrip("}")

l1 = open(f"{tmp}/serve_pass1.jsonl").readlines()
l2 = open(f"{tmp}/serve_pass2.jsonl").readlines()
assert len(l1) == len(l2) == 3, (len(l1), len(l2))
for a, b in zip(l1, l2):
    ja, jb = json.loads(a), json.loads(b)
    assert ja["kind"] == jb["kind"] == "result", (ja["kind"], jb["kind"])
    assert ja["id"] == jb["id"], (ja["id"], jb["id"])
    assert ja["cache"] == "miss", f'first pass must simulate, got {ja["cache"]}'
    assert jb["cache"] == "hit", f'second pass must hit the cache, got {jb["cache"]}'
    assert raw_envelope(a) == raw_envelope(b), f'cache hit for {ja["id"]} not byte-identical'
print("serve smoke ok: 3 misses then 3 byte-identical hits")
PY

echo "== trace capture -> replay (closed loop, sweep-thread invariant) =="
cat > "$SWEEP_TMP/capture.json" <<'JSON'
[
  { "backend": "HybridTdmVc4", "mesh": 4,
    "traffic": { "pattern": "UR", "rate": 0.10 },
    "phases": { "warmup_cycles": 300, "warmup_packets": 50,
                "measure_cycles": 1500, "measure_packets": 2000,
                "drain_cycles": 3000 },
    "seed": 41 }
]
JSON
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/capture.json" --json "$SWEEP_TMP/cap_out.json" \
    --trace-export "$SWEEP_TMP/run.trace" > /dev/null
[[ -s "$SWEEP_TMP/run.trace" ]] || { echo "trace export wrote nothing"; exit 1; }
# Replay the captured trace against the whole mesh-4 sweep (every spec's
# traffic is replaced by the trace): twice serially for determinism, and
# once with 4 sweep threads for thread invariance.
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --trace-in "$SWEEP_TMP/run.trace" \
    --json "$SWEEP_TMP/replay_a.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --trace-in "$SWEEP_TMP/run.trace" \
    --json "$SWEEP_TMP/replay_b.json" --sweep-threads 1 > /dev/null
cargo run --release -p noc-bench --bin fig4_load_latency "${OFFLINE[@]}" -- \
    --scenario "$SWEEP_TMP/sweep.json" --trace-in "$SWEEP_TMP/run.trace" \
    --json "$SWEEP_TMP/replay_t4.json" --sweep-threads 4 > /dev/null
cmp "$SWEEP_TMP/replay_a.json" "$SWEEP_TMP/replay_b.json"
cmp "$SWEEP_TMP/replay_a.json" "$SWEEP_TMP/replay_t4.json"
python3 - "$SWEEP_TMP" <<'PY'
import json, sys
tmp = sys.argv[1]
env = json.load(open(f"{tmp}/replay_a.json"))
for spec in env["scenario"]:
    t = spec["traffic"]
    assert t["mode"] == "trace" and len(t["sha256"]) == 64, t
    assert "path" not in t, "trace path leaked into the envelope"
assert all(p["result"]["stats"]["packets_delivered"] > 0 for p in env["data"])
print("trace replay ok: deterministic, thread-invariant, content-addressed echo")
PY

echo "== reactive vs profiled TDM circuit plan (A/B smoke) =="
cargo run --release -p noc-bench --bin ablation_profiled_circuits "${OFFLINE[@]}" -- \
    --quick | tee "$SWEEP_TMP/profiled_ab.txt"
grep -q "TR traffic" "$SWEEP_TMP/profiled_ab.txt"
grep -q "latency profiled" "$SWEEP_TMP/profiled_ab.txt"
echo "profiled-circuits A/B ran (measured point in results/network_step_speedup.txt)"

echo "CI OK"
