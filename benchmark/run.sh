#!/usr/bin/env bash
# Build the benchmark in release mode and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR]
#       every workload, untraced and then traced: prints every metric by
#       name with its unit and exits non-zero if any run was incorrect
#   benchmark/run.sh --trace 0|1 [...]
#       every workload, in that mode only
#   benchmark/run.sh --workload NAME --trace 0|1 [...]
#       one run; the last line of standard output is its JSON result
set -euo pipefail

# Paths below are relative to the repository root.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dfbench"

workload= trace=
passed=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) workload=$2 ;;
        --trace) trace=$2 ;;
        *) passed+=("$1" "$2") ;;
    esac
    shift 2
done

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --trace "${trace:-0}" ${passed[@]+"${passed[@]}"}
fi

status=0
for t in ${trace:-0 1}; do
    for w in unit_grid cpu_closed durable_closed open_waiting delta_mixed; do
        # The JSON line is for machines; the table above it says the same.
        "$bin" --workload "$w" --trace "$t" ${passed[@]+"${passed[@]}"} | grep -v '^{' || status=1
        echo
    done
done
exit $status
