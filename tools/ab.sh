#!/usr/bin/env bash
# A/B the frozen benchmark: the working tree ("change") against a parent ref.
#
#   tools/ab.sh <parent-ref> [--pairs N] [--seconds S]
#               [--claim <workload>:<metric>] [--layers] [workload...]
#
# Both sides are built from clean copies under the git-ignored .bench_build/
# (parent: `git archive <ref>`; change: the working tree's tracked and
# untracked-but-not-ignored files), so neither build touches the checkout —
# not even benchmark/Cargo.lock. Pair i runs seed i on both sides, and pairs
# alternate which side runs first. Reads only each side's
# benchmark/out/<workload>.trace0.json; keeps a copy of every run under
# benchmark/out/ab/ (git-ignored). Prints, per end-to-end metric of
# BENCHMARK.json: median [quartiles] per side, the ratio of the medians, the
# pairs the change won (ties count for neither), and OUTSIDE BOUND where the
# change's median is worse than the parent's by more than the metric's bound.
# With --claim, the last line is `CLAIM MET` or `CLAIM NOT MET` for that
# workload's metric, by the rule the pipeline applies to a claimed gain: the
# change wins at least nine in ten of the pairs, and its median is better than
# the parent's by more than the distance between the parent's quartiles. The
# exit status does not depend on it (1 only if an operation failed).
# With --layers, one traced run (`--trace 1`, seed 1) per side per workload
# follows the pairs, and a table headed `<workload> per-layer metric` lists
# every per-layer metric of BENCHMARK.json as parent -> change with the ratio
# of the two: where a saving sits, from one run each, so no spread is given.
#
# Defaults: 10 pairs, the benchmark's own run length, every workload.
# The ranks are pinned one per core: run nothing else meanwhile.
set -euo pipefail

usage() {
    sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"

[ $# -ge 1 ] || usage
parent_ref=$1
shift
pairs=10
seconds=
claim=
layers=
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=${2:?--pairs takes a count}; shift 2 ;;
        --seconds) seconds=${2:?--seconds takes a number}; shift 2 ;;
        --claim) claim=${2:?--claim takes <workload>:<metric>}; shift 2 ;;
        --layers) layers=1; shift ;;
        -h | --help) usage ;;
        -*) echo "unknown option $1" >&2; usage ;;
        *) workloads+=("$1"); shift ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

case $claim in
    "" | ?*:?*) ;;
    *) echo "--claim takes <workload>:<metric>, got $claim" >&2; usage ;;
esac

build=$root/.bench_build
runs=$root/benchmark/out/ab
rm -rf "$runs"
mkdir -p "$build/parent" "$build/change" "$runs"

# Fresh sources, kept target directories: a second A/B rebuilds only what
# changed. Everything but the cargo target directory is replaced.
refresh() { # <side>: reads a tar stream of the side's sources on stdin
    local dir=$build/$1
    find "$dir" -mindepth 1 -maxdepth 1 ! -name benchmark -exec rm -rf {} +
    if [ -d "$dir/benchmark" ]; then
        find "$dir/benchmark" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
    fi
    tar -x -C "$dir"
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
}
echo "# building parent ($(git rev-parse --short "$parent_ref")) and change (working tree)" >&2
git archive "$parent_ref" | refresh parent
git ls-files -co --exclude-standard -z |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar -c --null -T - | refresh change

run_side() { # <side> <workload> <seed> [trace]
    local bin=$build/$1/benchmark/target/release/archetype-benchmark trace=${4:-0}
    "$bin" run --workload "$2" --seed "$3" --trace "$trace" ${seconds:+--seconds "$seconds"} >/dev/null
    if [ "$trace" = 1 ]; then
        cp "$build/$1/benchmark/out/$2.trace1.json" "$runs/$2.$1.layers.json"
    else
        cp "$build/$1/benchmark/out/$2.trace0.json" "$runs/$2.$1.seed$3.json"
    fi
}

for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "# $workload pair $pair/$pairs: $side" >&2
            run_side "$side" "$workload" "$pair"
        done
    done
done
if [ -n "$layers" ]; then
    for workload in "${workloads[@]}"; do
        for side in parent change; do
            echo "# $workload traced run: $side" >&2
            run_side "$side" "$workload" 1 1
        done
    done
fi

python3 - "$runs" "$pairs" "$claim" "$layers" "${workloads[@]}" <<'EOF'
import json, statistics, sys

runs, pairs, claim, layers, workloads = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5:])
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def cell(xs):
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.4g} [{q1:.4g}-{q3:.4g}]"


failed = 0
verdict = None
for w in workloads:
    side = {}
    for s in ("parent", "change"):
        side[s] = [json.load(open(f"{runs}/{w}.{s}.seed{i}.json")) for i in range(1, pairs + 1)]
        bad = sum(r["failed"] for r in side[s])
        failed += bad
        print(f"# {w} {s}: failed ops {bad} of {sum(r['attempted'] for r in side[s])}")
    print(f"{w:18} {'metric':18} {'parent':>28} {'change':>28} {'ratio':>7}  pairs won")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in side["parent"]]
        c = [r["metrics"][name]["value"] for r in side["change"]]
        won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        pm, cm = quartiles(p)[1], quartiles(c)[1]
        worse = (pm - cm if higher else cm - pm) / pm if pm else 0.0
        flag = "  OUTSIDE BOUND" if worse > m["bound"] else ""
        ratio = f"{cm / pm:.3f}" if pm else "n/a"
        print(f"{'':18} {name:18} {cell(p):>28} {cell(c):>28} {ratio:>7}  {won}/{pairs}{flag}")
        if claim == f"{w}:{name}":
            q1, _, q3 = quartiles(p)
            gain = cm - pm if higher else pm - cm
            met = 10 * won >= 9 * pairs and gain > q3 - q1
            verdict = (
                f"CLAIM {'MET' if met else 'NOT MET'}: {claim} won {won}/{pairs} pairs, "
                f"medians {pm:.4g} -> {cm:.4g}, parent quartiles {q3 - q1:.4g} apart"
            )
fmt = lambda v: "n/a" if v is None else f"{v:.5g}"
if layers:
    for w in workloads:
        side = {s: json.load(open(f"{runs}/{w}.{s}.layers.json")) for s in ("parent", "change")}
        for s, r in side.items():
            failed += r["failed"]
            print(f"# {w} traced {s}: failed ops {r['failed']} of {r['attempted']}")
        print(f"{w:18} {'per-layer metric':42} {'parent':>12}    {'change':>12} {'ratio':>7}  unit")
        for m in bench["per_layer"]:
            name = m["name"]
            p, c = (side[s]["metrics"].get(name, {}).get("value") for s in ("parent", "change"))
            if p is None and c is None:
                continue
            ratio = f"{c / p:.3f}" if p and c is not None else "n/a"
            print(f"{'':18} {name:42} {fmt(p):>12} -> {fmt(c):>12} {ratio:>7}  {m['unit']}")
if claim:
    print(verdict or f"CLAIM NOT MET: {claim} was not measured (not a workload run, or not an end-to-end metric)")
sys.exit(1 if failed else 0)
EOF
