//! Regenerates the reproduction's reports, every experiment in this one
//! process.
//!
//! ```text
//! cargo run --release -p eatss-bench --bin run_all -- [OUT_DIR]
//! cargo run --release -p eatss-bench --bin run_all -- --only NAME [--profiles LIST]
//! ```
//!
//! Without `--only` it writes each of [`EXPERIMENTS`] to
//! `OUT_DIR/<name>.txt` (`results/` by default). `--only NAME` prints one
//! experiment's report to stdout; `--profiles LIST` retargets it onto
//! comma-separated builtin profile names or profile files (Figs. 7, 8 and
//! 10; Fig. 10 takes one device). Bad arguments exit 2, a failed
//! experiment exits 1.

use eatss_bench::{profiles, ExperimentError, EXPERIMENTS};
use std::path::Path;
use std::process::ExitCode;

/// Prints one experiment's report, as far as it got.
fn run_one(name: &str, device_list: Option<&str>) -> Result<(), ExperimentError> {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| ExperimentError::Usage(format!("no experiment named `{name}`")))?;
    let devices = device_list
        .map(|list| profiles::resolve(list.split(',')))
        .transpose()?;
    let mut report = String::new();
    let result = run.write(&mut report, devices.as_deref());
    print!("{report}");
    result
}

/// Writes every report under `out_dir`, going on past a failed one.
fn run_all(out_dir: &Path) -> Result<(), ExperimentError> {
    std::fs::create_dir_all(out_dir).map_err(|e| {
        ExperimentError::Failed(format!("cannot create {}: {e}", out_dir.display()))
    })?;
    let mut failures = 0;
    for (name, run) in EXPERIMENTS {
        let out_file = out_dir.join(format!("{name}.txt"));
        print!("{name:<32} ");
        let mut report = String::new();
        let written = run
            .write(&mut report, None)
            .and_then(|()| Ok(std::fs::write(&out_file, &report)?));
        if let Err(e) = written {
            // The experiment's own account of why (a failed check's
            // `REGRESSION:` lines) belongs in the log.
            println!("FAILED");
            eatss_trace::error!("{name}: {e}");
            failures += 1;
        } else {
            println!("ok -> {}", out_file.display());
        }
    }
    if failures > 0 {
        return Err(ExperimentError::Failed(format!(
            "{failures} experiment(s) failed"
        )));
    }
    println!("\nall {} experiments regenerated", EXPERIMENTS.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args[..] {
        [] => run_all(Path::new("results")),
        [dir] if !dir.starts_with('-') => run_all(Path::new(dir)),
        ["--only", name] => run_one(name, None),
        ["--only", name, "--profiles", list] => run_one(name, Some(list)),
        _ => Err(ExperimentError::Usage(format!(
            "cannot run `{}`",
            args.join(" ")
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(ExperimentError::Usage(e)) => {
            eatss_trace::error!(
                "{e}\nusage: run_all [OUT_DIR] | run_all --only NAME [--profiles LIST]"
            );
            ExitCode::from(2)
        }
        Err(ExperimentError::Failed(e)) => {
            eatss_trace::error!("{e}");
            ExitCode::FAILURE
        }
    }
}
