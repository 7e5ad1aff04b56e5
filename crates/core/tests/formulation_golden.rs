//! The printed formulation of every registry kernel, pinned byte for byte:
//! GA100, the default configuration, STANDARD sizes. A change to the model
//! generator or to the solver's SMT-LIB export shows up here as a diff of
//! `tests/golden/formulations.smt2`, so the formulation only changes on
//! purpose. Regenerate with `EATSS_UPDATE_GOLDEN=1 cargo test -p eatss
//! --test formulation_golden` and review the diff.

use eatss::{EatssConfig, ModelGenerator};
use eatss_gpusim::GpuArch;
use eatss_kernels::Dataset;

#[test]
fn every_registry_formulation_matches_its_golden_text() {
    let arch = GpuArch::ga100();
    let generator = ModelGenerator::new(&arch, EatssConfig::default());
    let mut rendered = String::new();
    for bench in eatss_kernels::all() {
        let program = bench.program().expect("registry kernels parse");
        let sizes = bench.sizes(Dataset::Standard);
        let model = generator
            .build(&program, Some(&sizes))
            .expect("build succeeds");
        rendered.push_str(&format!("; {}\n{}", bench.name, model.to_smtlib()));
    }
    assert_eq!(eatss_kernels::all().len(), 21);
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/formulations.smt2"
    );
    if std::env::var_os("EATSS_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("update golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file");
    assert!(
        rendered == golden,
        "the printed formulations drifted from {golden_path}"
    );
}
