#!/usr/bin/env bash
# Run the full untraced set twice on this commit — workloads in order,
# then in reverse order — and compare the two: per workload and
# end-to-end metric, both values, their relative difference and the
# bound from BENCHMARK.json. One traced unit_grid run per set supplies
# the exact counts, which must not differ at all.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
#
# Exits non-zero when a pair disagrees by more than its bound, when an
# exact count differs, or when a run was incorrect.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workloads=(unit_grid cpu_closed durable_closed open_waiting delta_mixed)
status=0
for set in 1 2; do
    out="benchmark/out/repeat-$set"
    rm -rf "$out"
    order=("${workloads[@]}")
    if [ "$set" = 2 ]; then
        order=(delta_mixed open_waiting durable_closed cpu_closed unit_grid)
    fi
    for w in "${order[@]}"; do
        echo "set $set: $w" >&2
        benchmark/run.sh --workload "$w" --trace 0 --out "$out" "$@" >/dev/null || status=1
    done
    echo "set $set: unit_grid, traced" >&2
    benchmark/run.sh --workload unit_grid --trace 1 --out "$out" "$@" >/dev/null || status=1
done

python3 - "${workloads[@]}" <<'EOF' || status=1
import json, sys

spec = json.load(open("BENCHMARK.json"))
load = lambda s, name: json.load(open(f"benchmark/out/repeat-{s}/result-{name}.json"))["result"]
bad = 0
print(f"{'workload':15} {'metric':26} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
for w in sys.argv[1:]:
    a, b = load(1, w), load(2, w)
    bad += not (a["correct"] and b["correct"])
    for m in spec["end_to_end"]:
        x, y = (r["metrics"][m["name"]]["value"] for r in (a, b))
        diff = abs(x - y) / min(abs(x), abs(y)) if x and y else float(x != y)
        over = diff > m["bound"]
        bad += over
        print(f"{w:15} {m['name']:26} {x:14.5f} {y:14.5f} {diff:8.2%} {m['bound']:6.0%}{'  DISAGREE' if over else ''}")
a, b = (load(s, "unit_grid-traced")["metrics"] for s in (1, 2))
exact = [k for k in a if k.startswith(("engine.work_units.", "engine.time_units.")) or k == "simdb.mean_gmpl"]
for k in exact:
    if a[k]["value"] != b[k]["value"]:
        bad += 1
        print(f"exact count {k} differs: {a[k]['value']!r} against {b[k]['value']!r}")
print(f"{len(exact)} exact counts compared")
sys.exit(bad != 0)
EOF
exit $status
