#!/usr/bin/env bash
# Builds the benchmark package — bench_e2e and the `eatss` CLI it spawns
# for `core.cli.*`; `cargo run` would build only the first — and runs
# bench_e2e with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload select-cold --seed 1 --seconds 25 --trace 0
set -euo pipefail

here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/bench_e2e" "$@"
