//! Differential proof for the compiled execution plans: the fast paths
//! — the plan-backed affine interpreter ([`eatss_affine::interp`]) and
//! the GPU emulator's plan engine ([`eatss_ppcg::ExecEngine::Plan`]) —
//! must reproduce the retained tree-walking references **bitwise**, with
//! identical execution counters, for every PolyBench kernel across the
//! pinned adversarial tile configurations and seeded random samples.
//!
//! The `bench_engines` gate in `eatss-bench` re-checks the same pairs on
//! the oracle-sweep configurations before timing them.

use eatss_affine::interp::{self, compare_stores, Store};
use eatss_affine::plan::set_simd_enabled;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_integration::trips;
use eatss_ppcg::oracle::{sample_tile_config, sweep_rng, verify_sizes};
use eatss_ppcg::{
    execute_compiled, seed_store, CompileOptions, ExecEngine, ExecOptions, Ppcg,
};
use proptest::prelude::*;

const SEED: u64 = 0xEA75_50AC;

fn shrunk(program: &Program, sizes: &ProblemSizes) -> ProblemSizes {
    // Deep nests get smaller spatial extents to bound point counts.
    let cap = if program.max_depth() >= 4 { 7 } else { 13 };
    verify_sizes(program, sizes, cap, 2)
}

/// The adversarial configurations PR 4's codegen oracle pinned, plus
/// seeded random samples: single-element tiles, primes (nothing divides
/// anything), tiles one past the trip count (a single ragged block).
fn adversarial_tiles(depth: usize, trips: &[i64], random: usize, seed: u64) -> Vec<TileConfig> {
    let primes = [3i64, 5, 7, 11, 13];
    let mut tiles = vec![
        TileConfig::ppcg_default(depth),
        TileConfig::new(vec![1; depth]),
        TileConfig::new((0..depth).map(|d| primes[d % primes.len()]).collect()),
        TileConfig::new(trips.iter().map(|t| t + 1).collect()),
    ];
    let mut rng = sweep_rng(seed);
    for _ in 0..random {
        tiles.push(sample_tile_config(&mut rng, trips));
    }
    tiles
}

fn assert_bitwise(label: &str, got: &Store, want: &Store) {
    let mismatches = compare_stores(got, want);
    assert!(
        mismatches.is_empty(),
        "{label}: stores diverge: {}",
        mismatches[0]
    );
}

/// The plan-backed interpreter reproduces the tree-walker bitwise on
/// untiled whole-program runs.
#[test]
fn compiled_interp_matches_reference_on_polybench() {
    for bench in eatss_kernels::polybench() {
        let program = bench.program().expect("registry parses");
        let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
        let mut fast = seed_store(&program, &sizes, SEED).expect("store seeds");
        let mut reference = seed_store(&program, &sizes, SEED).expect("store seeds");
        interp::run_program(&program, &sizes, &mut fast).expect("fast interp");
        interp::reference::run_program(&program, &sizes, &mut reference).expect("reference interp");
        assert_bitwise(bench.name, &fast, &reference);
    }
}

/// The emulator's plan engine reproduces its reference engine bitwise —
/// same stores *and* identical execution counters — across adversarial
/// and random configurations of every mappable registry kernel (PolyBench
/// plus conv-2d, heat-3d, mttkrp and b2mm, the oracle's deepest nests).
#[test]
fn plan_engine_matches_reference_engine_on_adversarial_tiles() {
    let arch = GpuArch::ga100();
    let ppcg = Ppcg::new(arch);
    for bench in eatss_kernels::all() {
        let program = bench.program().expect("registry parses");
        let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
        let trips = trips(&program, &sizes);
        for (c, tiles) in adversarial_tiles(program.max_depth(), &trips, 4, SEED)
            .iter()
            .enumerate()
        {
            let compiled = match ppcg.compile(&program, tiles, &sizes, &CompileOptions::default()) {
                Ok(compiled) => compiled,
                // Unmappable configurations are covered by the mapping
                // tests; there is nothing to execute here.
                Err(_) => continue,
            };
            let label = format!("{} config {c} ({tiles})", bench.name);
            let mut fast = seed_store(&program, &sizes, SEED).expect("store seeds");
            let mut reference = seed_store(&program, &sizes, SEED).expect("store seeds");
            let fast_stats = execute_compiled(
                &program,
                &compiled.mappings,
                &sizes,
                &mut fast,
                &ExecOptions {
                    engine: ExecEngine::Plan,
                    ..ExecOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{label}: plan engine: {e}"));
            let ref_opts = ExecOptions {
                engine: ExecEngine::Reference,
                ..ExecOptions::default()
            };
            let ref_stats =
                execute_compiled(&program, &compiled.mappings, &sizes, &mut reference, &ref_opts)
                    .unwrap_or_else(|e| panic!("{label}: reference engine: {e}"));
            assert_eq!(
                fast_stats, ref_stats,
                "{label}: execution counters diverge"
            );
            assert_bitwise(&label, &fast, &reference);
        }
    }
}

/// Serializes `set_simd_enabled` flips across this binary's threads —
/// the vector/scalar comparisons are only meaningful while the global
/// flag holds still. (Every *other* test here is valid under either
/// setting, so only these tests need the lock.)
static SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs both fast paths — the plan interpreter (whose rows span a whole
/// innermost trip count, whatever the tiles) and, where the configuration
/// is mappable, the emulator's plan engine (whose rows are tile-clipped)
/// — with the chunked (SIMD-style) row loop forced on or off.
fn run_fast_paths(
    program: &Program,
    sizes: &ProblemSizes,
    tiles: &TileConfig,
    simd: bool,
) -> Vec<Store> {
    set_simd_enabled(simd);
    let mut out = Vec::new();
    let mut store = seed_store(program, sizes, SEED).expect("store seeds");
    interp::run_program(program, sizes, &mut store).expect("plan interp");
    out.push(store);
    let ppcg = Ppcg::new(GpuArch::ga100());
    if let Ok(compiled) = ppcg.compile(program, tiles, sizes, &CompileOptions::default()) {
        let mut store = seed_store(program, sizes, SEED).expect("store seeds");
        let opts = ExecOptions {
            engine: ExecEngine::Plan,
            ..ExecOptions::default()
        };
        execute_compiled(program, &compiled.mappings, sizes, &mut store, &opts)
            .expect("plan engine");
        out.push(store);
    }
    set_simd_enabled(true);
    out
}

/// The chunked row loop reproduces the scalar loop bitwise on both fast
/// paths, across the pinned adversarial tiles plus tiles of 2 and 3 —
/// shapes whose every row ends in a tail shorter than a lane (or *is*
/// one).
#[test]
fn simd_rows_match_scalar_rows_on_adversarial_tiles() {
    let _guard = SIMD_LOCK.lock().unwrap();
    for bench in eatss_kernels::polybench() {
        let program = bench.program().expect("registry parses");
        let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
        let trips = trips(&program, &sizes);
        let depth = program.max_depth();
        let mut configs = adversarial_tiles(depth, &trips, 2, SEED ^ 1);
        configs.push(TileConfig::new(vec![2; depth]));
        configs.push(TileConfig::new(vec![3; depth]));
        for (c, tiles) in configs.iter().enumerate() {
            let vector = run_fast_paths(&program, &sizes, tiles, true);
            let scalar = run_fast_paths(&program, &sizes, tiles, false);
            assert_eq!(vector.len(), scalar.len());
            for (path, (v, s)) in vector.iter().zip(&scalar).enumerate() {
                assert_bitwise(
                    &format!("{} config {c} ({tiles}) path {path} simd-vs-scalar", bench.name),
                    v,
                    s,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random tiles over random kernels: the emulator's plan engine stays
    /// bitwise equal to its reference engine.
    #[test]
    fn compiled_paths_match_references_on_random_tiles(
        kernel_idx in 0usize..17,
        tile_seed in 0u64..1u64 << 32,
    ) {
        let benches = eatss_kernels::polybench();
        let bench = &benches[kernel_idx % benches.len()];
        let program = bench.program().expect("registry parses");
        let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
        let trips = trips(&program, &sizes);
        let mut rng = sweep_rng(tile_seed);
        let tiles = sample_tile_config(&mut rng, &trips);

        let ppcg = Ppcg::new(GpuArch::ga100());
        if let Ok(compiled) = ppcg.compile(&program, &tiles, &sizes, &CompileOptions::default()) {
            let mut fast = seed_store(&program, &sizes, SEED).expect("store seeds");
            let mut reference = seed_store(&program, &sizes, SEED).expect("store seeds");
            let plan_opts = ExecOptions {
                engine: ExecEngine::Plan,
                ..ExecOptions::default()
            };
            let fast_stats = execute_compiled(
                &program, &compiled.mappings, &sizes, &mut fast, &plan_opts,
            ).expect("plan engine");
            let ref_opts = ExecOptions {
                engine: ExecEngine::Reference,
                ..ExecOptions::default()
            };
            let ref_stats = execute_compiled(
                &program, &compiled.mappings, &sizes, &mut reference, &ref_opts,
            ).expect("reference engine");
            prop_assert_eq!(fast_stats, ref_stats);
            assert_bitwise(&format!("{} emulator ({tiles})", bench.name), &fast, &reference);
        }
    }

    /// Random *small* tiles (1..=6) force rows that are pure tails,
    /// exact chunks, and chunk-plus-tail mixes: the chunked row loop
    /// stays bitwise identical to the scalar loop on both fast paths.
    #[test]
    fn simd_rows_match_scalar_rows_on_random_small_tiles(
        kernel_idx in 0usize..17,
        dims in proptest::collection::vec(1i64..=6, 10),
    ) {
        let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let benches = eatss_kernels::polybench();
        let bench = &benches[kernel_idx % benches.len()];
        let program = bench.program().expect("registry parses");
        let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
        let tiles = TileConfig::new(dims[..program.max_depth()].to_vec());
        let vector = run_fast_paths(&program, &sizes, &tiles, true);
        let scalar = run_fast_paths(&program, &sizes, &tiles, false);
        prop_assert_eq!(vector.len(), scalar.len());
        for (path, (v, s)) in vector.iter().zip(&scalar).enumerate() {
            assert_bitwise(
                &format!("{} ({tiles}) path {path} simd-vs-scalar", bench.name),
                v,
                s,
            );
        }
    }
}
