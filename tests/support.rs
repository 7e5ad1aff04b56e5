//! Shared helpers for the cross-crate integration tests.

#![forbid(unsafe_code)]

use eatss::{Eatss, EatssConfig};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::{DeviceProfile, GpuArch};
use eatss_kernels::{Benchmark, Dataset};
use eatss_ppcg::oracle::{sample_tile_config, sweep_rng};
use eatss_ppcg::verify_sizes;

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

/// One op of the benchmark's `verify-oracle` workload: a kernel on a
/// device, verified at shrunk sizes under its EATSS tiles, `32^d` and
/// four seeded draws.
pub struct OracleOp {
    /// `kernel on device`, for failure messages.
    pub what: String,
    pub program: Program,
    pub arch: GpuArch,
    /// The shrunk sizes the oracle runs at.
    pub sizes: ProblemSizes,
    pub configs: Vec<TileConfig>,
}

/// The seed of the workload's input stores and of its tile draws.
pub const ORACLE_SEED: u64 = 0xEA75_50AC;

/// The `verify-oracle` workload's seed mix (`benchmark/src/inputs.rs`),
/// from which each op's random tile draws are seeded.
fn mix(seed: u64, tag: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Iteration points of one reference interpretation.
pub fn reference_points(program: &Program, sizes: &ProblemSizes) -> u64 {
    (program.kernels.iter())
        .map(|k| k.iteration_space_size(sizes).expect("bound") as u64)
        .sum()
}

/// The `verify-oracle` catalogue (restated from `benchmark/src/`, which
/// is not a dependency): every registry kernel on both testbeds (GA100 at
/// ExtraLarge, Xavier at Standard), its EATSS tiles selected at warp
/// fraction 1/8 for fdtd-apml, b2mm, conv-2d and heat-3d and 1/2
/// otherwise, then shrunk to the first spatial cap of 19, 13, 9, 7 whose
/// reference run stays within 20 000 points (time steps capped at 3).
///
/// # Panics
///
/// Panics if a kernel fails to parse or select, or fits no cap.
pub fn oracle_catalogue() -> Vec<OracleOp> {
    let mut ops = Vec::new();
    for bench in eatss_kernels::all() {
        let program = bench.program().expect("registry parses");
        for (device, dataset) in [
            ("ga100", Dataset::ExtraLarge),
            ("xavier", Dataset::Standard),
        ] {
            let arch = DeviceProfile::builtin(device).expect("builtin").into_arch();
            let full = bench.sizes(dataset);
            let eighth = ["fdtd-apml", "b2mm", "conv-2d", "heat-3d"].contains(&bench.name);
            let config = EatssConfig {
                warp_fraction: if eighth { 0.125 } else { 0.5 },
                ..EatssConfig::default()
            };
            let selected = Eatss::new(arch.clone())
                .select_tiles(&program, &full, &config)
                .expect("selects");
            let sizes = ([19, 13, 9, 7].iter())
                .map(|&cap| verify_sizes(&program, &full, cap, 3))
                .find(|sizes| reference_points(&program, sizes) <= 20_000)
                .expect("a cap fits");
            let mut configs = vec![
                selected.tiles,
                TileConfig::ppcg_default(program.max_depth()),
            ];
            let mut rng = sweep_rng(mix(ORACLE_SEED, &format!("draws/{}/{device}", bench.name)));
            let domain = trips(&program, &sizes);
            configs.extend((0..4).map(|_| sample_tile_config(&mut rng, &domain)));
            ops.push(OracleOp {
                what: format!("{} on {device}", bench.name),
                program: program.clone(),
                arch,
                sizes,
                configs,
            });
        }
    }
    ops
}
