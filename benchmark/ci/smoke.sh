#!/usr/bin/env bash
# bench_e2e smoke: every workload's traced run at a 2 s window.
#
# A traced run holds both an untraced and a traced window plus the layer
# tour, so it exercises everything the timed run does and adds the traced
# assertions. The script fails unless every run
#   - reports "correct": true with zero failed ops (oracle verdicts
#     bitwise, daemon replies equal to library answers, decomposed equal
#     to composite, layer counts repeating for the seed),
#   - has trace.coverage >= 0.90, zero oracle mismatches and zero journal
#     entries lost across the daemon restart,
#   - wrote benchmark/out/<workload>.trace.json.
#
# Run from the repository root. Not wired into .github/workflows/ci.yml
# yet: that file is outside what the benchmark's own change may edit.
set -euo pipefail

cd "$(dirname "$0")/../.."

started=$SECONDS
for workload in select-cold verify-oracle sweep-front serve-mixed; do
    rm -f "benchmark/out/$workload.trace.json"
    line="$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1)"
    python3 - "$line" "$workload" <<'PY'
import json, sys
result, workload = json.loads(sys.argv[1]), sys.argv[2]
m = {k: v["value"] for k, v in result["metrics"].items()}
problems = []
if not result["correct"] or result["failed"] != 0:
    problems.append(f'{result["failed"]} of {result["attempted"]} ops failed')
if m["trace.coverage"] < 0.90:
    problems.append(f'trace.coverage {m["trace.coverage"]:.4f} < 0.90')
if m["ppcg.oracle.mismatches"] != 0:
    problems.append(f'{m["ppcg.oracle.mismatches"]} oracle mismatches')
if m["serve.restart_lost_entries"] != 0:
    problems.append(f'{m["serve.restart_lost_entries"]} journal entries lost')
shares = sum(v for k, v in m.items() if k.startswith("share."))
if abs(shares - m["trace.coverage"]) > 0.01:
    problems.append(f"shares sum to {shares:.4f}, coverage is {m['trace.coverage']:.4f}")
if problems:
    sys.exit(f"smoke: {workload}: " + "; ".join(problems))
print(f"smoke: {workload}: ok ({result['attempted']} ops, coverage {m['trace.coverage']:.3f})")
PY
    test -s "benchmark/out/$workload.trace.json" || { echo "smoke: $workload: no trace file" >&2; exit 1; }
done
echo "smoke: all workloads ok in $((SECONDS - started)) s"
