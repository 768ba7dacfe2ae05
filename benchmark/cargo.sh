# Sourced by run.sh and ab.sh.
#
# The benchmark is a package of its own (benchmark/Cargo.toml has an empty
# [workspace] table), so Cargo would build it with the default release
# profile and ignore the repository's. `bench_cargo <repo root> <command>
# [args...]` runs a Cargo command on the benchmark of the tree at
# <repo root>, release and offline, with every key of that tree's root
# [profile.release] passed as a --config override. The benchmark is then
# built as users build the simulator, and a change to that profile shows in
# the benchmark's numbers.
bench_cargo() {
    local root=$1 command=$2
    shift 2
    local overrides
    overrides=$(python3 - "$root/Cargo.toml" <<'PY'
import json, re, sys, tomllib

def key(k):
    return k if re.fullmatch(r"[A-Za-z0-9_-]+", k) else json.dumps(k)

def flat(prefix, table):
    for k, v in table.items():
        if isinstance(v, dict):
            yield from flat(f"{prefix}.{key(k)}", v)
        else:
            yield f"{prefix}.{key(k)}={json.dumps(v)}"

with open(sys.argv[1], "rb") as f:
    release = tomllib.load(f).get("profile", {}).get("release", {})
for line in flat("profile.release", release):
    print("--config")
    print(line)
PY
    )
    local -a config=()
    [[ -n $overrides ]] && mapfile -t config <<<"$overrides"
    cargo "$command" --release --offline --quiet \
        --manifest-path "$root/benchmark/Cargo.toml" "${config[@]}" "$@"
}
