#!/usr/bin/env bash
# Parent-versus-change comparison on the ruler (benchmark/, BENCHMARK.json):
# the procedure every perf, simplicity or feature PR reports, in one place.
#
#   ci/ab_compare.sh PARENT_DIR CHANGE_DIR [PAIRS=10]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository (a `git
# clone` or `git archive` of the parent commit, and the change). The script
#   - builds benchmark/ in both (offline, release),
#   - runs PAIRS pairs of every workload BENCHMARK.json lists, each run
#     over its `run_seconds` window (--trace 0, seed = pair number),
#     alternating which side runs first, each run started from its own
#     checkout, and appends their --record lines to A.jsonl (parent)
#     and B.jsonl (change) in the current directory,
#   - adds 3 traced pairs per workload (seeds 1-3, alternating the same
#     way), so each per-layer row `--compare` prints is a median of 3
#     runs per side (per-layer metrics carry no verdict),
#   - prints `bench_e2e --compare A.jsonl B.jsonl`,
#   - then prints, per workload over the untraced runs, each side's median
#     `ops_per_s` as measured on the wall clock and median
#     `machine.reference_ms`, and in how many pairs the change was faster
#     as measured: `--compare` scales every rate by the run's reference,
#     which the product's own heap use can move,
#   - and exits with `--compare`'s status: 1 on a `Regressed` row or a
#     higher share of failed ops.
#
# Every run made is in the two files; nothing is dropped or re-run. Both
# sides must hold the same benchmark/ — a change to the ruler is its own
# PR — and the script refuses to compare otherwise. SECONDS_PER_RUN
# overrides the window for a quick look. Needs `jq`.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: ci/ab_compare.sh PARENT_DIR CHANGE_DIR [PAIRS=10]" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
pairs="${3:-10}"
out="$PWD"

if ! diff -r -x target -x out "$parent/benchmark" "$change/benchmark" >/dev/null ||
    ! cmp -s "$parent/BENCHMARK.json" "$change/BENCHMARK.json"; then
    echo "ab_compare: the two checkouts hold different rulers (benchmark/ or BENCHMARK.json)" >&2
    exit 2
fi

# The workloads and the window are the ruler's own.
workloads="$(jq -r '.workloads[].name' "$change/BENCHMARK.json")"
window="${SECONDS_PER_RUN:-$(jq -r '.run_seconds' "$change/BENCHMARK.json")}"

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

# One run per side, the parent first on odd seeds and the change first on
# even ones.
pair() { # workload seed trace
    if [ $(($2 % 2)) -eq 1 ]; then
        run "$parent" "$out/A.jsonl" "$1" "$2" "$3"
        run "$change" "$out/B.jsonl" "$1" "$2" "$3"
    else
        run "$change" "$out/B.jsonl" "$1" "$2" "$3"
        run "$parent" "$out/A.jsonl" "$1" "$2" "$3"
    fi
}

started=$SECONDS
for seed in $(seq 1 "$pairs"); do
    for workload in $workloads; do
        pair "$workload" "$seed" 0
    done
    echo "ab_compare: pair $seed of $pairs done at $((SECONDS - started)) s" >&2
done
for seed in 1 2 3; do
    for workload in $workloads; do
        pair "$workload" "$seed" 1
    done
done

status=0
"$change/benchmark/target/release/bench_e2e" --compare "$out/A.jsonl" "$out/B.jsonl" || status=$?

# The rates as measured, beside the reference each side sampled.
jq -rn --slurpfile a "$out/A.jsonl" --slurpfile b "$out/B.jsonl" \
    --argjson workloads "$(jq -c '[.workloads[].name]' "$change/BENCHMARK.json")" '
    def median: sort | if length == 0 then null
        else (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2 end;
    def cell: (. // "-") | tostring | if length < 14 then . + " " * (14 - length) else . end;
    def runs($side; $w): [$side[] | select(.workload == $w and (.traced | not))];
    def rate: .provenance.as_measured.ops_per_s;
    def reference: .provenance["machine.reference_ms"];
    def rounded($places): if . == null then null else . * $places | round / $places end;
    "\nas measured (untraced runs, medians; A = parent, B = change):",
    (["workload", "A ops/s", "B ops/s", "A ref ms", "B ref ms", "B faster"] | map(cell) | add),
    ($workloads[] as $w | runs($a; $w) as $ra | runs($b; $w) as $rb
        | [$ra[] as $x | $rb[] | select(.provenance.seed == $x.provenance.seed)
            | rate > ($x | rate)] as $won
        | [$w,
           ([$ra[] | rate] | median | rounded(1)),
           ([$rb[] | rate] | median | rounded(1)),
           ([$ra[] | reference] | median | rounded(1000)),
           ([$rb[] | reference] | median | rounded(1000)),
           "\([$won[] | select(.)] | length) of \($won | length) pairs"]
        | map(cell) | add)'
exit "$status"
