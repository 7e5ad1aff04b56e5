//! `bench_e2e` — the repository's end-to-end benchmark: four workloads
//! over the parse → select → codegen → simulate → verify pipeline and the
//! daemon around it, seven end-to-end metrics each, and a traced run that
//! says which layer owns the time. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! bench_e2e --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--record FILE]
//! bench_e2e --compare A B
//! bench_e2e --list-ops <workload> [--seed N]
//! ```
//!
//! The last line of standard output of a run is one JSON object with
//! exactly `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod inputs;
mod metrics;
mod pipeline;
mod run;
mod spans;
mod tour;
mod workloads;

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload exists (restated in `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "select-cold",
        why: "the paper's compile-time cost: parse, select, evaluate per kernel, nothing cached; smt and core.model own it, the oracle and serve do nothing",
    },
    WorkloadDef {
        name: "verify-oracle",
        why: "bitwise oracle over pre-selected and random tilings; ppcg.exec and affine.interp own it, smt does nothing, so only an emulator or interpreter gain moves it",
    },
    WorkloadDef {
        name: "sweep-front",
        why: "32-point sweep plus Pareto front: many related warm-started solves under the retry ladder, the syrk long solve; smt used unlike select-cold, so a cold-solve gain that costs warm sweeps shows",
    },
    WorkloadDef {
        name: "serve-mixed",
        why: "daemon on loopback, 2 closed-loop clients: 80% cache hits beside 15% journaled misses and 5% inline source on one mutex; only here serve, cache and journal own time",
    },
];

/// Where a run writes (journal directories, the trace file), relative to
/// the directory the benchmark is started from: the repository root.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: bench_e2e --workload <select-cold|verify-oracle|sweep-front|serve-mixed|all> \
[--seed N] [--seconds S] [--trace 0|1] [--record FILE]\n       \
bench_e2e --compare A B\n       \
bench_e2e --list-ops <workload> [--seed N]";

enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        traced: bool,
        record: Option<String>,
    },
    Compare(String, String),
    ListOps(String, u64),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25.0f64;
    let mut traced = false;
    let mut record = None;
    let mut list_ops = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--record" => record = Some(value()?.clone()),
            "--list-ops" => list_ops = Some(value()?.clone()),
            "--compare" => {
                let a = value()?.clone();
                let b = value()?.clone();
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(workload) = list_ops {
        return Ok(Command::ListOps(workload, seed));
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        record,
    })
}

/// Runs one workload, prints its metrics, and leaves the result line
/// last.
fn run_one(
    def: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    traced: bool,
    record_to: Option<&str>,
) -> Result<(), String> {
    let record = run::run(&run::RunArgs {
        workload: def,
        seed,
        seconds,
        traced,
        out_dir: Path::new(OUT_DIR),
    })?;
    let line = record.contract_line()?;
    if let Some(path) = record_to {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", record.record_line()?).map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{}", record.render());
    println!("{line}");
    Ok(())
}

fn execute(command: Command) -> Result<ExitCode, String> {
    match command {
        Command::Compare(a, b) => Ok(if compare::compare(&a, &b)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }),
        Command::ListOps(workload, seed) => {
            let text = inputs::render(&workload, seed, 200)
                .ok_or_else(|| format!("no workload named `{workload}`"))?;
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Command::Run {
            workload,
            seed,
            seconds,
            traced,
            record,
        } => {
            let chosen: Vec<&'static WorkloadDef> = WORKLOADS
                .iter()
                .filter(|w| workload == "all" || w.name == workload)
                .collect();
            if chosen.is_empty() {
                return Err(format!("no workload named `{workload}`"));
            }
            for def in chosen {
                run_one(def, seed, seconds, traced, record.as_deref())?;
            }
            // A run that completed exits 0; failed ops are counted in its
            // result line (`correct`, `failed`), not in the exit code.
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args)
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(execute)
    {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}
