//! End-to-end pipeline integration tests: kernel source → analyses →
//! EATSS formulation → solved tiles → PPCG mapping → simulated
//! measurement, across every registered benchmark and both GPUs.

use eatss::{Eatss, EatssConfig};
use eatss_affine::tiling::TileConfig;
use eatss_gpusim::GpuArch;
use eatss_integration::{load, trips};
use eatss_kernels::Dataset;

/// The full pipeline runs for every benchmark on the GA100 with the
/// default configuration (falling back to smaller warp fractions where
/// the default alignment is infeasible) and produces a valid
/// measurement.
#[test]
fn every_benchmark_runs_end_to_end_on_ga100() {
    let eatss = Eatss::new(GpuArch::ga100());
    for b in eatss_kernels::all() {
        let (program, sizes) = load(b.name, Dataset::ExtraLarge);
        let sweep = eatss
            .sweep(&program, &sizes, &[0.0, 0.5], &[0.5, 0.25, 0.125])
            .unwrap_or_else(|e| panic!("{}: sweep failed: {e}", b.name));
        let best = sweep
            .best_by_ppw()
            .unwrap_or_else(|| panic!("{}: no valid EATSS point", b.name));
        assert!(best.report.valid, "{}", b.name);
        assert!(best.report.gflops > 0.0, "{}", b.name);
        assert!(
            best.report.avg_power_w > 0.0 && best.report.avg_power_w <= 251.0,
            "{}: power {}",
            b.name,
            best.report.avg_power_w
        );
        assert!(best.report.energy_j.is_finite(), "{}", b.name);
    }
}

/// Same smoke check on the Xavier with STANDARD datasets.
#[test]
fn every_benchmark_runs_end_to_end_on_xavier() {
    let eatss = Eatss::new(GpuArch::xavier());
    for b in eatss_kernels::all() {
        let (program, sizes) = load(b.name, Dataset::Standard);
        let sweep = eatss
            .sweep(&program, &sizes, &[0.0, 0.5], &[0.5, 0.25, 0.125])
            .unwrap_or_else(|e| panic!("{}: sweep failed: {e}", b.name));
        let best = sweep
            .best_by_ppw()
            .unwrap_or_else(|| panic!("{}: no valid EATSS point", b.name));
        assert!(best.report.valid, "{}", b.name);
        assert!(
            best.report.avg_power_w <= 31.0,
            "{}: power above the Xavier TDP: {}",
            b.name,
            best.report.avg_power_w
        );
    }
}

/// EATSS tile selections always satisfy the architectural constraints
/// they were derived from: warp alignment, shared-memory capacity when
/// mapped, and executability.
#[test]
fn selections_respect_their_constraints() {
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    for name in ["gemm", "2mm", "covariance", "mvt", "jacobi-2d"] {
        let (program, sizes) = load(name, Dataset::ExtraLarge);
        for split in [0.0, 0.5, 0.67] {
            let config = EatssConfig::with_split(split);
            let Ok(solution) = eatss.select_tiles(&program, &sizes, &config) else {
                continue;
            };
            let waf = config.warp_alignment_factor(&arch);
            for (d, &t) in solution.tiles.sizes().iter().enumerate() {
                // Time dims are fixed at 1; others must be warp-aligned.
                assert!(
                    t == 1 || t % waf == 0,
                    "{name}: tile {t} at dim {d} not aligned to {waf}"
                );
                assert!((1..=1024).contains(&t), "{name}: tile {t} out of range");
            }
            let report = eatss
                .evaluate(&program, &solution.tiles, &sizes, &config)
                .expect("selection compiles");
            assert!(report.valid, "{name} split {split}: unexecutable selection");
        }
    }
}

/// The generated CUDA for every benchmark is structurally sound
/// (balanced braces, a kernel per affine kernel, min guards with tiling).
#[test]
fn cuda_codegen_is_structurally_sound_for_all_benchmarks() {
    use eatss_ppcg::{CompileOptions, Ppcg};
    let arch = GpuArch::ga100();
    let ppcg = Ppcg::new(arch);
    for b in eatss_kernels::all() {
        let (program, sizes) = load(b.name, Dataset::Standard);
        let tiles = TileConfig::ppcg_default(program.max_depth());
        let compiled = ppcg
            .compile(&program, &tiles, &sizes, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        let cuda = &compiled.cuda_source;
        assert_eq!(
            cuda.matches('{').count(),
            cuda.matches('}').count(),
            "{}: unbalanced braces",
            b.name
        );
        assert_eq!(
            cuda.matches("__global__").count(),
            program.kernels.len(),
            "{}",
            b.name
        );
        assert_eq!(compiled.mappings.len(), program.kernels.len(), "{}", b.name);
    }
}

/// `Ppcg::map` — what measurement and the oracle consume — is exactly the
/// mapping half of `Ppcg::compile`, on every registered kernel and for
/// the errors either can return.
#[test]
fn map_is_the_mapping_half_of_compile() {
    use eatss_ppcg::oracle::{sample_tile_config, sweep_rng};
    use eatss_ppcg::{CompileOptions, Ppcg};
    let arch = GpuArch::ga100();
    let ppcg = Ppcg::new(arch.clone());
    let options = CompileOptions::default();
    let both = |program: &eatss_affine::Program, tiles: &TileConfig, sizes: &eatss_affine::ProblemSizes| {
        let mapped = Ppcg::map(&arch, program, tiles, sizes, &options);
        let compiled = ppcg.compile(program, tiles, sizes, &options).map(|c| c.mappings);
        // `GpuMapping` is not `PartialEq`; its `Debug` prints every field.
        assert_eq!(format!("{mapped:?}"), format!("{compiled:?}"), "{} {tiles}", program.name);
        mapped
    };
    let mut rng = sweep_rng(24);
    let benchmarks = eatss_kernels::all();
    assert_eq!(benchmarks.len(), 21);
    for b in benchmarks {
        let (program, sizes) = load(b.name, Dataset::Standard);
        let depth = program.max_depth();
        let random = sample_tile_config(&mut rng, &trips(&program, &sizes));
        for tiles in [TileConfig::ppcg_default(depth), random] {
            let mapped = both(&program, &tiles, &sizes).expect("registry kernels map");
            assert_eq!(mapped.len(), program.kernels.len(), "{}", b.name);
        }
        // A tile tuple shorter than the deepest kernel.
        let short = both(&program, &TileConfig::ppcg_default(depth - 1), &sizes);
        assert!(
            matches!(short, Err(eatss_ppcg::CompileError::NotEnoughTileSizes { .. })),
            "{}: {short:?}",
            b.name
        );
    }
    let serial = eatss_affine::parser::parse_program("kernel s(N) { for (i: N) A[i] = A[i-1] + 1.0; }")
        .expect("parses");
    let sizes = eatss_affine::ProblemSizes::new([("N", 100)]);
    assert!(both(&serial, &TileConfig::ppcg_default(1), &sizes).is_err());
}

/// Bigger problems take longer and consume more energy, given fixed
/// tiles (sanity of the measurement substrate).
#[test]
fn measurements_scale_with_problem_size() {
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch);
    let (program, _) = load("gemm", Dataset::ExtraLarge);
    let config = EatssConfig::default();
    let tiles = TileConfig::ppcg_default(3);
    let mut last_time = 0.0;
    let mut last_energy = 0.0;
    for n in [1000, 2000, 4000] {
        let sizes =
            eatss_affine::ProblemSizes::new([("NI", n), ("NJ", n), ("NK", n)]);
        let r = eatss
            .evaluate(&program, &tiles, &sizes, &config)
            .expect("gemm compiles");
        assert!(r.time_s > last_time, "time must grow with N");
        assert!(r.energy_j > last_energy, "energy must grow with N");
        last_time = r.time_s;
        last_energy = r.energy_j;
    }
}

/// The two interpretations of the §IV-F block bound both yield feasible,
/// executable selections for matmul.
#[test]
fn both_cap_modes_produce_valid_gemm_selections() {
    use eatss::ThreadBlockCap;
    let eatss = Eatss::new(GpuArch::ga100());
    let (program, sizes) = load("gemm", Dataset::ExtraLarge);
    for cap in [ThreadBlockCap::Virtual, ThreadBlockCap::Strict] {
        let config = EatssConfig {
            cap,
            ..EatssConfig::default()
        };
        let solution = eatss
            .select_tiles(&program, &sizes, &config)
            .expect("feasible");
        if cap == ThreadBlockCap::Strict {
            let t = solution.tiles.sizes();
            assert!(t[0] * t[1] <= 1024, "strict cap violated: {t:?}");
        }
        let report = eatss
            .evaluate(&program, &solution.tiles, &sizes, &config)
            .expect("compiles");
        assert!(report.valid);
    }
}
