//! Runs every table/figure experiment — each one its own sibling
//! binary, spawned in turn — and writes each output under `results/`:
//! the one-command regeneration entry point.
//!
//! ```text
//! cargo run --release -p eatss-bench --bin run_all -- [out-dir]
//! ```

use eatss_bench::EXPERIMENTS;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The output directory: the one optional positional argument.
fn parse_args() -> Result<PathBuf, String> {
    let mut out_dir = None;
    for arg in std::env::args().skip(1) {
        if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        }
        if out_dir.replace(PathBuf::from(arg)).is_some() {
            return Err("multiple output directories given".to_owned());
        }
    }
    Ok(out_dir.unwrap_or_else(|| PathBuf::from("results")))
}

fn run_experiments(out_dir: &Path) -> usize {
    // Each experiment binary lives next to this one.
    let self_path = std::env::current_exe().expect("current exe path");
    let bin_dir = self_path.parent().expect("exe has a parent directory");
    let mut failures = 0;
    for name in EXPERIMENTS {
        let bin = bin_dir.join(name);
        let out_file = out_dir.join(format!("{name}.txt"));
        print!("{name:<32} ");
        match Command::new(&bin).output() {
            Ok(output) if output.status.success() => {
                if let Err(e) = std::fs::write(&out_file, &output.stdout) {
                    println!("write failed: {e}");
                    failures += 1;
                } else {
                    println!("ok -> {}", out_file.display());
                }
            }
            Ok(output) => {
                // The experiment's own account of why (a failed check's
                // `REGRESSION:` lines) belongs in the log.
                println!("FAILED ({})", output.status);
                print!("{}", String::from_utf8_lossy(&output.stderr));
                failures += 1;
            }
            Err(e) => {
                println!("FAILED to launch ({e}); build with `cargo build --release -p eatss-bench` first");
                failures += 1;
            }
        }
    }
    failures
}

fn main() -> std::process::ExitCode {
    let out_dir = match parse_args() {
        Ok(out_dir) => out_dir,
        Err(e) => {
            eatss_trace::error!("{e}");
            return std::process::ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eatss_trace::error!("cannot create {}: {e}", out_dir.display());
        return std::process::ExitCode::FAILURE;
    }
    let failures = run_experiments(&out_dir);
    if failures == 0 {
        println!("\nall {} experiments regenerated", EXPERIMENTS.len());
        std::process::ExitCode::SUCCESS
    } else {
        println!("\n{failures} experiment(s) failed");
        std::process::ExitCode::FAILURE
    }
}
