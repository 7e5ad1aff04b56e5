//! Seeded differential-oracle sweep over the whole benchmark suite.
//!
//! ```text
//! cargo run --release -p eatss-bench --bin oracle_sweep -- \
//!     [--seed N] [--random N] [--space-cap N] [--time-cap N] [--jobs N]
//! ```
//!
//! For every PolyBench kernel, runs solve → map → emulate on shrunk
//! problem sizes and asserts bitwise agreement with the affine
//! interpreter across EATSS-selected tiles, the PPCG `32^d` default, the
//! pinned adversarial configurations, and `--random` seeded samples of
//! the tile space (non-divisible boundaries included by construction).
//! The seed is printed so any failure is reproducible; it can also be
//! set via `EATSS_ORACLE_SEED`. With `--jobs N` benchmarks are verified
//! by N worker threads; random samples come from per-benchmark seeded
//! RNGs, so the output is byte-identical to the sequential run (see
//! `eatss_bench::oracle`). Each benchmark's configurations are verified as
//! one batch (one reference interpretation, shared emulator plans).
//! Exits non-zero on a failure count > 0. Its no-argument run is the
//! `oracle_sweep` entry of `eatss_bench::EXPERIMENTS`, whose report is
//! `results/oracle_sweep.txt` (that entry ignores `EATSS_ORACLE_SEED`).

use eatss_bench::oracle::{run_oracle_sweep, OracleSweepOptions};
use std::process::ExitCode;

fn parse_args() -> Result<OracleSweepOptions, String> {
    let mut opts = OracleSweepOptions {
        seed: std::env::var("EATSS_ORACLE_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(OracleSweepOptions::default().seed),
        ..OracleSweepOptions::default()
    };
    let mut args = std::env::args().skip(1);
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        let parse = |flag: &str, text: String| -> Result<i64, String> {
            text.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = parse("--seed", next_value(&mut args, "--seed")?)? as u64,
            "--random" => {
                opts.random = parse("--random", next_value(&mut args, "--random")?)? as usize;
            }
            "--space-cap" => {
                opts.space_cap = parse("--space-cap", next_value(&mut args, "--space-cap")?)?;
            }
            "--time-cap" => {
                opts.time_cap = parse("--time-cap", next_value(&mut args, "--time-cap")?)?;
            }
            "--jobs" => {
                opts.jobs = parse("--jobs", next_value(&mut args, "--jobs")?)?.max(1) as usize;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: oracle_sweep [--seed N] [--random N] [--space-cap N] [--time-cap N] [--jobs N]"
            );
            return ExitCode::from(2);
        }
    };
    let summary = run_oracle_sweep(&opts);
    print!("{}", summary.report);
    if summary.failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
