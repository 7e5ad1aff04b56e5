//! Differential proof for the compiled execution plans: the fast paths
//! — the plan-backed affine interpreter ([`eatss_affine::interp`]) and
//! the GPU emulator's plan engine ([`eatss_ppcg::ExecEngine::Plan`]) —
//! must reproduce the retained tree-walking references **bitwise**, with
//! identical execution counters, for every PolyBench kernel across the
//! pinned adversarial tile configurations and seeded random samples.
//!
//! The emulator pair also runs the product's own inputs: the EATSS
//! selection beside the adversarial tiles, and the oracle's path, every
//! configuration of a kernel in one [`verify_batch`], on its working
//! stores.

use eatss::{Eatss, EatssConfig};
use eatss_affine::interp::{self, compare_stores, Store};
use eatss_affine::plan::set_simd_enabled;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_integration::trips;
use eatss_ppcg::oracle::{sample_tile_config, sweep_rng, verify_sizes};
use eatss_ppcg::{
    execute_compiled, seed_store, verify_batch, CompileOptions, ExecEngine, ExecOptions,
    OracleOptions, Ppcg,
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
/// plus conv-2d, heat-3d, mttkrp and b2mm, the oracle's deepest nests) and
/// its EATSS selection, run one by one and as the oracle runs them, all of
/// a kernel's configurations in one `verify_batch`, whose reports carry
/// the reference engine's counters.
#[test]
fn plan_engine_matches_reference_engine_on_adversarial_tiles() {
    let arch = GpuArch::ga100();
    let ppcg = Ppcg::new(arch.clone());
    let eatss = Eatss::new(arch.clone());
    let plan_opts = ExecOptions {
        engine: ExecEngine::Plan,
        ..ExecOptions::default()
    };
    let ref_opts = ExecOptions {
        engine: ExecEngine::Reference,
        ..ExecOptions::default()
    };
    for bench in eatss_kernels::all() {
        let program = bench.program().expect("registry parses");
        let std_sizes = bench.sizes(eatss_kernels::Dataset::Standard);
        let sizes = shrunk(&program, &std_sizes);
        let trips = trips(&program, &sizes);
        let mut configs = adversarial_tiles(program.max_depth(), &trips, 4, SEED);
        // Four registry kernels are unsatisfiable at half-warp alignment.
        if let Ok(selection) = eatss.select_tiles(&program, &std_sizes, &EatssConfig::default()) {
            configs.push(selection.tiles);
        }
        let mut interpreted = seed_store(&program, &sizes, SEED).expect("store seeds");
        interp::run_program(&program, &sizes, &mut interpreted).expect("plan interp");
        // (label, tiles, the reference engine's counters)
        let mut checked = Vec::new();
        for (c, tiles) in configs.iter().enumerate() {
            let compiled = match ppcg.compile(&program, tiles, &sizes, &CompileOptions::default()) {
                Ok(compiled) => compiled,
                // Unmappable configurations are covered by the mapping
                // tests; there is nothing to execute here.
                Err(_) => continue,
            };
            let label = format!("{} config {c} ({tiles})", bench.name);
            let mut fast = seed_store(&program, &sizes, SEED).expect("store seeds");
            let mut reference = seed_store(&program, &sizes, SEED).expect("store seeds");
            let fast_stats =
                execute_compiled(&program, &compiled.mappings, &sizes, &mut fast, &plan_opts)
                    .unwrap_or_else(|e| panic!("{label}: plan engine: {e}"));
            let ref_stats = execute_compiled(
                &program,
                &compiled.mappings,
                &sizes,
                &mut reference,
                &ref_opts,
            )
            .unwrap_or_else(|e| panic!("{label}: reference engine: {e}"));
            assert_eq!(fast_stats, ref_stats, "{label}: execution counters diverge");
            assert_bitwise(&label, &fast, &reference);
            assert_bitwise(&format!("{label} interpreter"), &reference, &interpreted);
            checked.push((label, tiles.clone(), ref_stats));
        }
        let batch: Vec<TileConfig> = checked.iter().map(|(_, t, _)| t.clone()).collect();
        let options = OracleOptions {
            compile: CompileOptions::default(),
            exec: plan_opts,
        };
        let verdicts = verify_batch(&program, &batch, &arch, &sizes, &options, SEED);
        for ((label, _, ref_stats), verdict) in checked.iter().zip(verdicts) {
            let report = verdict.unwrap_or_else(|e| panic!("{label}: batched plan engine: {e}"));
            assert_eq!(
                (
                    report.launches,
                    report.blocks,
                    report.points,
                    report.barriers,
                    report.staged_elems
                ),
                (
                    ref_stats.launches,
                    ref_stats.blocks,
                    ref_stats.points,
                    ref_stats.barriers,
                    ref_stats.staged_elems
                ),
                "{label}: batched execution counters diverge"
            );
        }
    }
}

/// Serializes `set_simd_enabled` flips across this binary's threads —
/// the block/scalar comparisons are only meaningful while the global
/// flag holds still. (Every *other* test here is valid under either
/// setting, so only these tests need the lock.)
static SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The compile options the block-versus-scalar comparisons run under:
/// PPCG's default (no staging) and the oracle's staged split, whose
/// shared-memory reads reach the rows as routed reads.
fn compile_options() -> [CompileOptions; 2] {
    [
        CompileOptions::default(),
        EatssConfig::with_split(0.5).compile_options(&GpuArch::ga100()),
    ]
}

/// The oracle's seeded store, every value divided by 3 when `thirds`. The
/// seeded values are integers in −3..=3, so every sum over them is exact
/// and a change in the order of adds cannot show; thirds make it show.
fn seeded(program: &Program, sizes: &ProblemSizes, thirds: bool) -> Store {
    let mut store = seed_store(program, sizes, SEED).expect("store seeds");
    if thirds {
        for (_, array) in store.arrays_mut() {
            for v in array.data_mut() {
                *v /= 3.0;
            }
        }
    }
    store
}

/// Runs both fast paths — the plan interpreter (whose rows span a whole
/// innermost trip count, whatever the tiles) and, where the configuration
/// is mappable, the emulator's plan engine (whose rows are tile-clipped)
/// under each of [`compile_options`] — with the block row loop forced on
/// or off, from the [`seeded`] store.
fn run_fast_paths(
    program: &Program,
    sizes: &ProblemSizes,
    tiles: &TileConfig,
    simd: bool,
    thirds: bool,
) -> Vec<Store> {
    set_simd_enabled(simd);
    let mut out = Vec::new();
    let mut store = seeded(program, sizes, thirds);
    interp::run_program(program, sizes, &mut store).expect("plan interp");
    out.push(store);
    let ppcg = Ppcg::new(GpuArch::ga100());
    for options in compile_options() {
        if let Ok(compiled) = ppcg.compile(program, tiles, sizes, &options) {
            let mut store = seeded(program, sizes, thirds);
            let opts = ExecOptions {
                engine: ExecEngine::Plan,
                ..ExecOptions::default()
            };
            execute_compiled(program, &compiled.mappings, sizes, &mut store, &opts)
                .expect("plan engine");
            out.push(store);
        }
    }
    set_simd_enabled(true);
    out
}

/// The block row loop reproduces the scalar loop bitwise on both fast
/// paths, staged and unstaged, across the pinned adversarial tiles plus
/// tiles of 2 and 3 — shapes whose every row is shorter than a block —
/// from the seeded integers and again from their thirds.
#[test]
fn simd_rows_match_scalar_rows_on_adversarial_tiles() {
    let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for bench in eatss_kernels::polybench() {
        let program = bench.program().expect("registry parses");
        let sizes = shrunk(&program, &bench.sizes(eatss_kernels::Dataset::Standard));
        let trips = trips(&program, &sizes);
        let depth = program.max_depth();
        let mut configs = adversarial_tiles(depth, &trips, 2, SEED ^ 1);
        configs.push(TileConfig::new(vec![2; depth]));
        configs.push(TileConfig::new(vec![3; depth]));
        for (c, tiles) in configs.iter().enumerate() {
            for thirds in [false, true] {
                let vector = run_fast_paths(&program, &sizes, tiles, true, thirds);
                let scalar = run_fast_paths(&program, &sizes, tiles, false, thirds);
                assert_eq!(vector.len(), scalar.len());
                for (path, (v, s)) in vector.iter().zip(&scalar).enumerate() {
                    assert_bitwise(
                        &format!(
                            "{} config {c} ({tiles}) thirds {thirds} path {path} block-vs-scalar",
                            bench.name
                        ),
                        v,
                        s,
                    );
                }
            }
        }
    }
}

/// Rows of 70 points span three blocks (32 + 32 + 6): gemm at `NK = 70`
/// is a fixed-cell reduction carried across blocks, and the scaling
/// kernel a distinct-cell row of 70. The seeded values are integers, so
/// each gemm term is divided by 3 to make the sums depend on their
/// order. Both paths match the scalar loop and the tree-walker bitwise;
/// the emulator runs tiles whose `k` and `j` tiles hold the whole row,
/// staged and unstaged.
#[test]
fn block_rows_spanning_several_blocks_match_scalar_rows() {
    let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let program = eatss_affine::parser::parse_program(
        "kernel gemm(NI, NJ, NK) {
           for (i: NI) for (j: NJ) for (k: NK)
             C[i][j] += alpha * A[i][k] * B[k][j] / 3.0;
         }
         kernel scale(NI, NJ) {
           for (i: NI) for (j: NJ)
             D[i][j] = C[i][j] / 3.0 - 0.5 * A[i][j];
         }",
    )
    .expect("parses");
    let sizes = ProblemSizes::new([("NI", 3), ("NJ", 70), ("NK", 70)]);
    let mut reference = seed_store(&program, &sizes, SEED).expect("store seeds");
    interp::reference::run_program(&program, &sizes, &mut reference).expect("reference interp");
    let tiles = TileConfig::new(vec![1, 96, 96]);
    let block = run_fast_paths(&program, &sizes, &tiles, true, false);
    let scalar = run_fast_paths(&program, &sizes, &tiles, false, false);
    assert_eq!(block.len(), 3, "the interpreter and both emulator runs");
    assert_eq!(scalar.len(), block.len());
    for (path, (b, s)) in block.iter().zip(&scalar).enumerate() {
        assert_bitwise(&format!("path {path} block-vs-scalar"), b, s);
        assert_bitwise(&format!("path {path} block-vs-reference"), b, &reference);
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

    /// Random *small* tiles (1..=6) force short rows, each one partial
    /// block: the block row loop stays bitwise identical to the scalar
    /// loop on both fast paths, staged and unstaged.
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
        let vector = run_fast_paths(&program, &sizes, &tiles, true, false);
        let scalar = run_fast_paths(&program, &sizes, &tiles, false, false);
        prop_assert_eq!(vector.len(), scalar.len());
        for (path, (v, s)) in vector.iter().zip(&scalar).enumerate() {
            assert_bitwise(
                &format!("{} ({tiles}) path {path} block-vs-scalar", bench.name),
                v,
                s,
            );
        }
    }
}
