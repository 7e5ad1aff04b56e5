#!/usr/bin/env bash
# Parent-versus-change comparison on the ruler (benchmark/, BENCHMARK.json):
# the procedure every perf, simplicity or feature PR reports, in one place.
#
#   ci/ab_compare.sh PARENT_DIR CHANGE_DIR [PAIRS=10]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository (a `git
# clone` or `git archive` of the parent commit, and the change). The script
#   - builds benchmark/ in both (offline, release),
#   - runs PAIRS pairs of every workload at the driver's settings (25 s
#     window, --trace 0, seed = pair number), alternating which side runs
#     first, each run started from its own checkout, and appends their
#     --record lines to A.jsonl (parent) and B.jsonl (change) in the
#     current directory,
#   - adds one traced run per side and workload (per-layer metrics; they
#     carry no verdict),
#   - prints `bench_e2e --compare A.jsonl B.jsonl` and exits with its
#     status: 1 on a `Regressed` row or a higher share of failed ops.
#
# Every run made is in the two files; nothing is dropped or re-run. Both
# sides must hold the same benchmark/ — a change to the ruler is its own
# PR — and the script refuses to compare otherwise. SECONDS_PER_RUN
# overrides the window for a quick look (the driver's is 25).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: ci/ab_compare.sh PARENT_DIR CHANGE_DIR [PAIRS=10]" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
pairs="${3:-10}"
window="${SECONDS_PER_RUN:-25}"
out="$PWD"
workloads="select-cold verify-oracle sweep-front serve-mixed"

if ! diff -r -x target -x out "$parent/benchmark" "$change/benchmark" >/dev/null ||
    ! cmp -s "$parent/BENCHMARK.json" "$change/BENCHMARK.json"; then
    echo "ab_compare: the two checkouts hold different rulers (benchmark/ or BENCHMARK.json)" >&2
    exit 2
fi

# Each checkout builds into its own benchmark/target.
unset CARGO_TARGET_DIR
for side in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

# One run of one workload from one checkout, recorded to that side's file.
run() { # side-dir record-file workload seed trace
    (cd "$1" && benchmark/target/release/bench_e2e --workload "$3" --seed "$4" \
        --seconds "$window" --trace "$5" --record "$2" >/dev/null)
}

started=$SECONDS
for pair in $(seq 1 "$pairs"); do
    for workload in $workloads; do
        if [ $((pair % 2)) -eq 1 ]; then
            run "$parent" "$out/A.jsonl" "$workload" "$pair" 0
            run "$change" "$out/B.jsonl" "$workload" "$pair" 0
        else
            run "$change" "$out/B.jsonl" "$workload" "$pair" 0
            run "$parent" "$out/A.jsonl" "$workload" "$pair" 0
        fi
    done
    echo "ab_compare: pair $pair of $pairs done at $((SECONDS - started)) s" >&2
done
for workload in $workloads; do
    run "$parent" "$out/A.jsonl" "$workload" 1 1
    run "$change" "$out/B.jsonl" "$workload" 1 1
done

"$change/benchmark/target/release/bench_e2e" --compare "$out/A.jsonl" "$out/B.jsonl"
