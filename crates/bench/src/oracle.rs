//! The seeded differential-oracle sweep as a library: every PolyBench
//! kernel × {pinned adversarial tiles, EATSS-selected tiles, seeded
//! random samples}, verified bitwise against the affine interpreter —
//! with a deterministic parallel executor.
//!
//! The sweep is embarrassingly parallel across benchmarks, so
//! [`run_oracle_sweep`] maps them over
//! [`eatss_trace::par_map_ordered`]: each worker produces a fully
//! buffered per-benchmark report, and the merge concatenates them in
//! canonical benchmark order. Random tile samples are drawn from a
//! per-benchmark RNG seeded by mixing the sweep seed with the benchmark
//! name, so the configurations a benchmark sees do not depend on worker
//! count or scheduling. The resulting [`OracleSweepSummary::report`] is
//! byte-identical for `jobs = 1` and `jobs = N`.

use eatss::{Eatss, EatssConfig, EatssError};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_ppcg::oracle::{sample_tile_config, sweep_rng, verify_sizes};
use eatss_ppcg::{verify_batch, OracleError, OracleOptions};
use std::fmt::Write as _;

/// Sweep knobs (see the `oracle_sweep` binary for the CLI surface).
#[derive(Debug, Clone)]
pub struct OracleSweepOptions {
    /// Base seed: store seeding and the per-benchmark sample RNGs all
    /// derive from it.
    pub seed: u64,
    /// Random tile configurations per benchmark.
    pub random: usize,
    /// Problem-size cap for spatial parameters.
    pub space_cap: i64,
    /// Problem-size cap for time-loop parameters.
    pub time_cap: i64,
    /// Worker threads (1 = sequential; the report is identical either way).
    pub jobs: usize,
}

impl Default for OracleSweepOptions {
    fn default() -> Self {
        OracleSweepOptions {
            seed: 0xEA75_50AC,
            random: 8,
            space_cap: 17,
            time_cap: 3,
            jobs: 1,
        }
    }
}

/// What a sweep run covered, plus the canonical printable report.
#[derive(Debug, Clone)]
pub struct OracleSweepSummary {
    /// Configurations verified clean.
    pub configs: u64,
    /// Iteration points executed (per execution side).
    pub points: u64,
    /// Failures (mismatches, emulation faults, selection errors).
    pub failures: u64,
    /// The full report text (header, per-benchmark lines in canonical
    /// order, summary line) — byte-identical across `jobs` values.
    pub report: String,
}

/// Derives the per-benchmark sample seed: FNV-1a over the benchmark name,
/// keyed by the sweep seed. Independent of benchmark order and worker
/// scheduling.
pub fn bench_seed(seed: u64, name: &str) -> u64 {
    eatss_trace::fnv1a64_from(seed ^ eatss_trace::FNV1A64_OFFSET, name.as_bytes())
}

/// Max trip count per dim position across kernels — the sampling domain.
pub fn trips(program: &Program, sizes: &ProblemSizes) -> Vec<i64> {
    let mut out = vec![1i64; program.max_depth()];
    for k in &program.kernels {
        for (d, slot) in out.iter_mut().enumerate().take(k.depth()) {
            *slot = (*slot).max(k.trip_count(d, sizes).unwrap_or(1));
        }
    }
    out
}

/// The shrunk verification sizes for one benchmark: deep nests (depth ≥ 4)
/// get their spatial cap tightened so point counts stay bounded.
pub fn sweep_sizes(program: &Program, std_sizes: &ProblemSizes, opts: &OracleSweepOptions) -> ProblemSizes {
    let cap = if program.max_depth() >= 4 {
        opts.space_cap.min(9)
    } else {
        opts.space_cap
    };
    verify_sizes(program, std_sizes, cap, opts.time_cap)
}

/// The pinned adversarial tile configurations every benchmark is checked
/// with: the PPCG `32^d` default, single-element tiles, and tiles one
/// past the trip count.
pub fn pinned_configs(depth: usize, trips: &[i64]) -> Vec<(String, TileConfig)> {
    vec![
        ("32^d".into(), TileConfig::ppcg_default(depth)),
        ("1^d".into(), TileConfig::new(vec![1; depth])),
        (
            "trip+1".into(),
            TileConfig::new(trips.iter().map(|t| t + 1).collect()),
        ),
    ]
}

/// One benchmark's buffered contribution.
struct BenchReport {
    text: String,
    configs: u64,
    points: u64,
    failures: u64,
}

fn sweep_benchmark(
    bench: &eatss_kernels::Benchmark,
    eatss: &Eatss,
    arch: &GpuArch,
    oracle_opts: &OracleOptions,
    opts: &OracleSweepOptions,
) -> BenchReport {
    let mut out = BenchReport {
        text: String::new(),
        configs: 0,
        points: 0,
        failures: 0,
    };
    let program = match bench.program() {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(out.text, "  {}: registry parse error: {e}", bench.name);
            out.failures += 1;
            return out;
        }
    };
    let std_sizes = bench.sizes(eatss_kernels::Dataset::Standard);
    let sizes = sweep_sizes(&program, &std_sizes, opts);
    let trips = trips(&program, &sizes);
    let depth = program.max_depth();

    let mut plan = pinned_configs(depth, &trips);
    match eatss.select_tiles(&program, &std_sizes, &EatssConfig::default()) {
        Ok(solution) => plan.push(("EATSS".into(), solution.tiles)),
        Err(EatssError::Unsatisfiable { .. }) => {
            let _ = writeln!(
                out.text,
                "  {}: EATSS selection unsatisfiable (skipped)",
                bench.name
            );
        }
        Err(e) => {
            let _ = writeln!(out.text, "  {}: EATSS selection failed: {e}", bench.name);
            out.failures += 1;
        }
    }
    let mut rng = sweep_rng(bench_seed(opts.seed, bench.name));
    for i in 0..opts.random {
        plan.push((format!("random#{i}"), sample_tile_config(&mut rng, &trips)));
    }

    // One batch per benchmark: one reference interpretation, shared
    // emulator plans.
    let configs: Vec<TileConfig> = plan.iter().map(|(_, t)| t.clone()).collect();
    let verdicts = verify_batch(&program, &configs, arch, &sizes, oracle_opts, opts.seed);
    for ((label, tiles), verdict) in plan.iter().zip(verdicts) {
        match verdict {
            Ok(report) => {
                out.configs += 1;
                out.points += report.points;
            }
            Err(OracleError::Compile(e)) => {
                // Mapping rejections (e.g. too few tile sizes) are not
                // oracle findings; report and move on.
                let _ = writeln!(
                    out.text,
                    "  {} {label} {tiles}: not mappable: {e}",
                    bench.name
                );
            }
            Err(e) => {
                let _ = writeln!(out.text, "FAIL {} {label} {tiles}: {e}", bench.name);
                out.failures += 1;
            }
        }
    }
    let _ = writeln!(out.text, "  {}: {} config(s) checked", bench.name, plan.len());
    out
}

/// Runs the whole sweep, parallel over benchmarks. The returned report is
/// byte-identical for any `jobs` value (see the module docs).
pub fn run_oracle_sweep(opts: &OracleSweepOptions) -> OracleSweepSummary {
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    let oracle_opts = OracleOptions::default();
    let benches = eatss_kernels::polybench();

    let reports = eatss_trace::par_map_ordered(&benches, opts.jobs, |bench| {
        sweep_benchmark(bench, &eatss, &arch, &oracle_opts, opts)
    });

    let mut summary = OracleSweepSummary {
        configs: 0,
        points: 0,
        failures: 0,
        report: format!(
            "oracle sweep: seed {} ({} random config(s)/benchmark, caps {}/{})\n",
            opts.seed, opts.random, opts.space_cap, opts.time_cap
        ),
    };
    for r in reports {
        summary.configs += r.configs;
        summary.points += r.points;
        summary.failures += r.failures;
        summary.report.push_str(&r.text);
    }
    let _ = writeln!(
        summary.report,
        "oracle sweep: {} config(s), {} point(s) executed, {} failure(s) [seed {}]",
        summary.configs, summary.points, summary.failures, opts.seed
    );
    summary
}
