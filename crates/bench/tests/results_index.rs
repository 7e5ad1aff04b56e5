//! The committed `results/*.txt` are exactly what `run_all` regenerates
//! and what each experiment's test compares: one file per
//! [`EXPERIMENTS`] entry, `oracle_sweep.txt` among them. An orphan file
//! is compared by nothing and rots; an experiment without a file is
//! compared with nothing.

use eatss_bench::{deterministic_part, EXPERIMENTS};
use std::collections::BTreeSet;
use std::process::Command;

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn committed_results_are_exactly_the_experiments() {
    let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let expected: BTreeSet<String> = EXPERIMENTS
        .iter()
        .map(|(name, _)| format!("{name}.txt"))
        .collect();
    assert_eq!(expected.len(), EXPERIMENTS.len(), "a name is listed twice");
    assert_eq!(committed, expected);
}

fn run_all(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env("EATSS_ORACLE_SEED", "7")
        .output()
        .expect("run_all starts")
}

#[test]
fn run_all_only_prints_the_committed_report_whatever_the_environment() {
    // The seed variable is the `oracle_sweep` tool's; the experiment
    // ignores it.
    for name in ["tab01_arch_params", "oracle_sweep"] {
        let output = run_all(&["--only", name]);
        assert!(output.status.success(), "{name}: {output:?}");
        let committed = std::fs::read_to_string(results_dir().join(format!("{name}.txt")))
            .expect("committed report");
        let printed = String::from_utf8_lossy(&output.stdout);
        assert!(
            deterministic_part(&printed) == deterministic_part(&committed),
            "{name}"
        );
    }
}

#[test]
fn run_all_refuses_bad_arguments_with_exit_2() {
    for (args, why) in [
        (&["--only", "fig99"][..], "no experiment named `fig99`"),
        (&["--profiles", "ga100"], "cannot run `--profiles ga100`"),
        (
            &["--only", "tab01_arch_params", "--profiles", "ga100"],
            "this experiment takes no devices",
        ),
        (
            &[
                "--only",
                "fig10_nonpolybench_speedup",
                "--profiles",
                "ga100,xavier",
            ],
            "takes exactly one device, not 2",
        ),
        (&["--only"], "cannot run `--only`"),
        (&["--only", "fig07_polybench", "--profiles", "tpu9"], "tpu9"),
    ] {
        let output = run_all(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
