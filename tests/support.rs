//! Shared helpers for the cross-crate integration tests.

#![forbid(unsafe_code)]

use eatss_affine::{ProblemSizes, Program};
use eatss_kernels::{Benchmark, Dataset};

/// Parses a registered benchmark and returns its program plus the sizes
/// for the given dataset.
///
/// # Panics
///
/// Panics if the benchmark is missing or fails to parse — both indicate
/// a corrupted registry, which integration tests should surface loudly.
pub fn load(name: &str, dataset: Dataset) -> (Program, ProblemSizes) {
    let b: Benchmark = eatss_kernels::by_name(name)
        .unwrap_or_else(|| panic!("benchmark `{name}` not in registry"));
    let program = b
        .program()
        .unwrap_or_else(|e| panic!("benchmark `{name}` failed to parse: {e}"));
    let sizes = b.sizes(dataset);
    (program, sizes)
}

/// Max trip count per dim position across kernels — the domain
/// `sample_tile_config` draws tiles from.
pub fn trips(program: &Program, sizes: &ProblemSizes) -> Vec<i64> {
    let mut out = vec![1i64; program.max_depth()];
    for k in &program.kernels {
        for (d, slot) in out.iter_mut().enumerate().take(k.depth()) {
            *slot = (*slot).max(k.trip_count(d, sizes).unwrap_or(1));
        }
    }
    out
}
