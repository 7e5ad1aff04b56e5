//! The committed `results/*.txt` are exactly what a gate regenerates:
//! one file per [`EXPERIMENTS`] entry (`run_all`, CI's `results-gate`)
//! plus `oracle_sweep.txt` (CI's `oracle-smoke`). An orphan file is
//! compared by nothing and rots; an experiment without a file is compared
//! with nothing.

use eatss_bench::EXPERIMENTS;
use std::collections::BTreeSet;

#[test]
fn committed_results_are_exactly_the_experiments_plus_the_oracle_sweep() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(&dir)
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
        .chain(&["oracle_sweep"])
        .map(|name| format!("{name}.txt"))
        .collect();
    assert_eq!(expected.len(), EXPERIMENTS.len() + 1, "a name is listed twice");
    assert_eq!(committed, expected);
}
