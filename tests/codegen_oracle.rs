//! Differential execution oracle over the whole benchmark suite: for
//! every PolyBench program, the emulated GPU execution of the compiled
//! mapping must agree bitwise with the affine interpreter — across the
//! PPCG 32^d default, EATSS-selected tiles, seeded random samples of the
//! tile space, and pinned adversarial configurations (single-element
//! tiles, primes, tiles exceeding the trip count).
//!
//! Problem sizes are shrunk so exhaustive interpretation stays fast; the
//! `oracle_sweep` experiment in `eatss-bench` runs the same check on
//! larger samples, its report committed as `results/oracle_sweep.txt`.

use eatss::{Eatss, EatssConfig};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_integration::trips;
use eatss_ppcg::oracle::{sample_tile_config, sweep_rng, verify_sizes};
use eatss_ppcg::{verify, OracleOptions};

const SEED: u64 = 0xEA75_50AC;

fn shrunk(program: &Program, sizes: &ProblemSizes) -> ProblemSizes {
    // Deep nests get smaller spatial extents to bound point counts.
    let cap = if program.max_depth() >= 4 { 7 } else { 13 };
    verify_sizes(program, sizes, cap, 2)
}

fn check(name: &str, program: &Program, tiles: &TileConfig, sizes: &ProblemSizes) {
    let report = verify(
        program,
        tiles,
        &GpuArch::ga100(),
        sizes,
        &OracleOptions::default(),
        SEED,
    )
    .unwrap_or_else(|e| panic!("{name} tiles {tiles}: {e}"));
    assert!(report.points > 0, "{name}: oracle executed nothing");
}

#[test]
fn polybench_agrees_on_default_and_adversarial_tiles() {
    for bench in eatss_kernels::all() {
        let program = bench.program().expect("registry parses");
        let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
        let depth = program.max_depth();
        let trips = trips(&program, &sizes);
        // PPCG default.
        check(
            bench.name,
            &program,
            &TileConfig::ppcg_default(depth),
            &sizes,
        );
        // Single-element tiles: every min guard and point loop degenerate.
        check(
            bench.name,
            &program,
            &TileConfig::new(vec![1; depth]),
            &sizes,
        );
        // Primes: nothing divides anything.
        let primes = [3, 5, 7, 11, 13];
        check(
            bench.name,
            &program,
            &TileConfig::new((0..depth).map(|d| primes[d % primes.len()]).collect()),
            &sizes,
        );
        // Tiles one past the trip count: a single ragged block per dim.
        check(
            bench.name,
            &program,
            &TileConfig::new(trips.iter().map(|t| t + 1).collect()),
            &sizes,
        );
    }
}

#[test]
fn polybench_agrees_on_seeded_random_tiles() {
    let mut rng = sweep_rng(SEED);
    for bench in eatss_kernels::polybench() {
        let program = bench.program().expect("registry parses");
        let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
        let trips = trips(&program, &sizes);
        for round in 0..4 {
            let tiles = sample_tile_config(&mut rng, &trips);
            let label = format!("{} (random round {round})", bench.name);
            check(&label, &program, &tiles, &sizes);
        }
    }
}

#[test]
fn eatss_selected_tiles_agree() {
    // Solve at the standard dataset (the realistic shapes the selection
    // targets), then verify the chosen tiles on shrunk sizes.
    let eatss = Eatss::new(GpuArch::ga100());
    for name in ["gemm", "syrk", "doitgen", "jacobi-2d", "conv-2d", "mttkrp"] {
        let bench = eatss_kernels::by_name(name).expect("registered");
        let program = bench.program().expect("parses");
        let std_sizes = bench.sizes(eatss_kernels::Dataset::Standard);
        let solution = match eatss.select_tiles(&program, &std_sizes, &EatssConfig::default()) {
            Ok(s) => s,
            // §V-D "missing configurations": some benchmarks are genuinely
            // unsatisfiable under the default warp alignment. Nothing to
            // verify then — the sweep still covers them with other tiles.
            Err(eatss::EatssError::Unsatisfiable { .. }) => continue,
            Err(e) => panic!("{name}: selection failed: {e}"),
        };
        let sizes = shrunk(&program, &std_sizes);
        check(
            &format!("{name} (EATSS tiles)"),
            &program,
            &solution.tiles,
            &sizes,
        );
    }
}

#[test]
fn oracle_catches_a_wrong_execution() {
    // Sanity for the oracle itself: skipping the staging load barrier is
    // a wrong execution, and the oracle must report a mismatch for a
    // kernel that stages through shared memory.
    let bench = eatss_kernels::by_name("gemm").expect("registered");
    let program = bench.program().expect("parses");
    let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
    let opts = OracleOptions {
        exec: eatss_ppcg::ExecOptions {
            barrier_fidelity: eatss_ppcg::BarrierFidelity::SkipLoadBarrier,
            ..eatss_ppcg::ExecOptions::default()
        },
        ..OracleOptions::default()
    };
    let err = verify(
        &program,
        &TileConfig::ppcg_default(program.max_depth()),
        &GpuArch::ga100(),
        &sizes,
        &opts,
        SEED,
    )
    .expect_err("a barrier-less execution must be flagged");
    assert!(
        matches!(err, eatss_ppcg::OracleError::Mismatch { .. }),
        "unexpected failure kind: {err}"
    );
}
