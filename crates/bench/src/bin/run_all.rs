//! Runs every table/figure experiment — each one its own sibling
//! binary, spawned in turn — and writes each output under `results/`:
//! the one-command regeneration entry point.
//!
//! ```text
//! cargo run --release -p eatss-bench --bin run_all -- [out-dir] \
//!     [--trace OUT.json] [--trace-format jsonl|chrome] \
//!     [--log-level off|error|info|debug]
//! ```

use eatss_trace::{Level, Provenance, TraceFormat};
use std::path::PathBuf;
use std::process::Command;

const EXPERIMENTS: [&str; 18] = [
    "tab01_arch_params",
    "tab02_access_patterns",
    "tab03_testbed",
    "tab04_vendor_comparison",
    "fig01_power_vs_size",
    "fig02_tilespace_sorted",
    "fig03_tilespace_scatter",
    "fig07_polybench",
    "fig08_shmem_splits",
    "fig09_l2_power_correlation",
    "fig10_nonpolybench_speedup",
    "fig11_nonpolybench_hist",
    "fig12_size_sensitivity",
    "fig13_size_sensitivity_np",
    "fig14_vs_ytopt",
    "secVg_solver_overhead",
    "ablation_model_terms",
    "ext_precision_study",
];

struct Options {
    out_dir: PathBuf,
    trace: Option<String>,
    trace_format: TraceFormat,
    log_level: Level,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out_dir: PathBuf::from("results"),
        trace: None,
        trace_format: TraceFormat::Chrome,
        log_level: Level::Info,
    };
    let mut positional = None;
    let mut args = std::env::args().skip(1);
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => opts.trace = Some(next_value(&mut args, "--trace")?),
            "--trace-format" => {
                let text = next_value(&mut args, "--trace-format")?;
                opts.trace_format = TraceFormat::parse(&text)
                    .ok_or_else(|| format!("unknown trace format `{text}`"))?;
            }
            "--log-level" => {
                let text = next_value(&mut args, "--log-level")?;
                opts.log_level = Level::parse(&text)
                    .ok_or_else(|| format!("unknown log level `{text}`"))?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            dir => {
                if positional.replace(dir.to_owned()).is_some() {
                    return Err("multiple output directories given".to_owned());
                }
            }
        }
    }
    if let Some(dir) = positional {
        opts.out_dir = PathBuf::from(dir);
    }
    Ok(opts)
}

fn run_experiments(opts: &Options) -> usize {
    // Each experiment binary lives next to this one.
    let self_path = std::env::current_exe().expect("current exe path");
    let bin_dir = self_path.parent().expect("exe has a parent directory");
    let mut failures = 0;
    for name in EXPERIMENTS {
        let bin = bin_dir.join(name);
        let out_file = opts.out_dir.join(format!("{name}.txt"));
        print!("{name:<32} ");
        let mut span = eatss_trace::span("bench", "experiment");
        if span.is_active() {
            span.arg("name", name);
        }
        let output = Command::new(&bin).output();
        match output {
            Ok(output) if output.status.success() => {
                span.arg("ok", true);
                if let Err(e) = std::fs::write(&out_file, &output.stdout) {
                    println!("write failed: {e}");
                    failures += 1;
                } else {
                    println!("ok -> {}", out_file.display());
                }
            }
            Ok(output) => {
                span.arg("ok", false);
                println!("FAILED (status {})", output.status);
                failures += 1;
            }
            Err(e) => {
                span.arg("ok", false);
                println!("FAILED to launch ({e}); build with `cargo build --release -p eatss-bench` first");
                failures += 1;
            }
        }
    }
    failures
}

fn main() -> std::process::ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eatss_trace::error!("{e}");
            return std::process::ExitCode::from(2);
        }
    };
    eatss_trace::set_log_level(opts.log_level);
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eatss_trace::error!("cannot create {}: {e}", opts.out_dir.display());
        return std::process::ExitCode::FAILURE;
    }
    if opts.trace.is_some() {
        eatss_trace::start_collecting();
    }
    let failures = run_experiments(&opts);
    if let Some(path) = &opts.trace {
        let trace = eatss_trace::drain(Provenance::collect(None));
        match trace.write(std::path::Path::new(path), opts.trace_format) {
            Ok(()) => eatss_trace::info!(
                "trace: {} event(s) written to {path} ({:?})",
                trace.events.len(),
                opts.trace_format
            ),
            Err(e) => eatss_trace::error!("cannot write trace `{path}`: {e}"),
        }
    }
    if failures == 0 {
        println!("\nall {} experiments regenerated", EXPERIMENTS.len());
        std::process::ExitCode::SUCCESS
    } else {
        println!("\n{failures} experiment(s) failed");
        std::process::ExitCode::FAILURE
    }
}
