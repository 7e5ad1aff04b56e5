//! Execution-engine benchmark over the PolyBench oracle sweep, emitting
//! `BENCH_oracle.json` with per-kernel wall-clock and points/sec plus
//! aggregate ratios.
//!
//! Two comparisons, over the same oracle-sweep configurations:
//!
//! * **interp** (the headline aggregate): the compiled-plan interpreter
//!   fast path ([`eatss_affine::interp::run_program`]) against the
//!   retained tree-walker ([`eatss_affine::interp::reference`]), one
//!   whole-program interpretation per configuration — exactly the
//!   interpreter side of the differential oracle.
//! * **emulator**: the GPU emulator's plan engine
//!   ([`eatss_ppcg::ExecEngine::Plan`]) against its reference engine,
//!   one emulated launch sequence per configuration.
//!
//! The emulator also runs a **batched** arm — the path the oracle takes:
//! [`eatss_ppcg::execute_compiled_batch`] (compiled plans shared across
//! configurations by route signature), timed against the same reference
//! and reporting both the ratio over the reference and the speedup over
//! the per-config fast path.
//!
//! All sides of every comparison execute from identically seeded stores
//! and every run is cross-checked bitwise — a divergence is a bug, not a
//! benchmark artifact.
//!
//! Usage: `bench_oracle [--mode smoke|full] [--out PATH]`
//!   --mode smoke   4-kernel subset, tighter caps, 1 rep (CI smoke)
//!   --mode full    whole suite at the oracle-sweep caps (default)
//!   --out PATH     output path (default: BENCH_oracle.json)

use eatss::{Eatss, EatssConfig};
use eatss_affine::interp::{self, compare_stores, Store};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_bench::oracle::{bench_seed, pinned_configs, sweep_sizes, trips, OracleSweepOptions};
use eatss_gpusim::GpuArch;
use eatss_ppcg::oracle::{sample_tile_config, sweep_rng};
use eatss_ppcg::{
    execute_compiled, execute_compiled_batch, seed_store, CompileOptions, ExecEngine, ExecOptions,
    ExecStats, GpuMapping, Ppcg,
};
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 0xEA75_50AC;

/// Wall-clock repetitions per engine per kernel; the minimum is reported.
fn reps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        5
    }
}

#[derive(Clone, Copy)]
struct EngineSample {
    wall_s: f64,
    /// Iteration points executed in the timed region.
    points: u64,
}

impl EngineSample {
    fn points_per_s(&self) -> f64 {
        self.points as f64 / self.wall_s.max(1e-9)
    }
}

#[derive(Clone, Copy)]
struct EnginePair {
    fast: EngineSample,
    reference: EngineSample,
}

impl EnginePair {
    fn wall_ratio(&self) -> f64 {
        self.reference.wall_s / self.fast.wall_s.max(1e-9)
    }
}

struct KernelRow {
    name: String,
    configs: usize,
    interp: EnginePair,
    emulator: EnginePair,
    /// Batched emulator arm: fast = one `execute_compiled_batch`,
    /// reference = the reference engine per config.
    emulator_batch: EnginePair,
    /// What [`ExecEngine::Auto`] resolves to for this kernel's domain.
    auto_engine: &'static str,
}

/// A kernel whose compiled path is *slower* than its reference
/// (wall_ratio < 1.0) on one side of the comparison. These are exactly
/// the cases [`ExecEngine::Auto`] exists to avoid; the bench surfaces
/// them instead of letting them hide in the aggregate.
struct Regression {
    name: String,
    side: &'static str,
    wall_ratio: f64,
}

/// One mappable configuration, compiled once outside any timed region.
struct ConfigPlan {
    mappings: Vec<GpuMapping>,
}

/// What the emulator produced from one configuration (for cross-checking).
struct ConfigOutcome {
    store: Store,
    stats: ExecStats,
}

fn config_plans(
    program: &Program,
    sizes: &ProblemSizes,
    bench: &eatss_kernels::Benchmark,
    eatss: &Eatss,
    arch: &GpuArch,
    random: usize,
) -> Vec<ConfigPlan> {
    let trips = trips(program, sizes);
    let depth = program.max_depth();
    let mut tiles = pinned_configs(depth, &trips);
    let primes = [3i64, 5, 7, 11, 13];
    tiles.push((
        "primes".into(),
        TileConfig::new((0..depth).map(|d| primes[d % primes.len()]).collect()),
    ));
    if let Ok(solution) = eatss.select_tiles(
        program,
        &bench.sizes(eatss_kernels::Dataset::Standard),
        &EatssConfig::default(),
    ) {
        tiles.push(("EATSS".into(), solution.tiles));
    }
    let mut rng = sweep_rng(bench_seed(SEED, bench.name));
    for i in 0..random {
        tiles.push((format!("random#{i}"), sample_tile_config(&mut rng, &trips)));
    }

    let ppcg = Ppcg::new(arch.clone());
    tiles
        .into_iter()
        // Mapping rejections (too few tile sizes for a deeper kernel)
        // are not execution findings; both engines skip them alike.
        .filter_map(|(_, t)| {
            ppcg.compile(program, &t, sizes, &CompileOptions::default())
                .ok()
        })
        .map(|c| ConfigPlan {
            mappings: c.mappings,
        })
        .collect()
}

/// Runs every configuration through one emulator engine. Store seeding
/// stays outside the timed region.
fn run_emulator(
    program: &Program,
    sizes: &ProblemSizes,
    plans: &[ConfigPlan],
    engine: ExecEngine,
) -> (EngineSample, Vec<ConfigOutcome>) {
    let opts = ExecOptions {
        engine,
        ..ExecOptions::default()
    };
    let mut wall_s = 0.0;
    let mut points = 0u64;
    let mut outcomes = Vec::with_capacity(plans.len());
    for plan in plans {
        let mut store = seed_store(program, sizes, SEED).expect("store seeds");
        let started = Instant::now();
        let stats = execute_compiled(program, &plan.mappings, sizes, &mut store, &opts)
            .expect("emulated execution");
        wall_s += started.elapsed().as_secs_f64();
        points += stats.points;
        outcomes.push(ConfigOutcome { store, stats });
    }
    (EngineSample { wall_s, points }, outcomes)
}

/// Runs one whole-program interpretation per configuration — the
/// interpreter side of the differential oracle — through the compiled
/// fast path (`fast = true`) or the tree-walking reference.
fn run_interp(
    program: &Program,
    sizes: &ProblemSizes,
    configs: usize,
    points_per_config: u64,
    fast: bool,
) -> (EngineSample, Store) {
    let mut wall_s = 0.0;
    let mut last = None;
    for _ in 0..configs {
        let mut store = seed_store(program, sizes, SEED).expect("store seeds");
        let started = Instant::now();
        if fast {
            interp::run_program(program, sizes, &mut store)
        } else {
            interp::reference::run_program(program, sizes, &mut store)
        }
        .expect("interpretation");
        wall_s += started.elapsed().as_secs_f64();
        last = Some(store);
    }
    (
        EngineSample {
            wall_s,
            points: points_per_config * configs as u64,
        },
        last.expect("configs >= 1"),
    )
}

/// Runs every configuration through [`execute_compiled_batch`]: plans are
/// compiled once per distinct route signature and shared across the
/// batch. Store seeding stays outside the timed region.
fn run_emulator_batch(
    program: &Program,
    sizes: &ProblemSizes,
    plans: &[ConfigPlan],
) -> (EngineSample, Vec<ConfigOutcome>) {
    let opts = ExecOptions {
        engine: ExecEngine::Plan,
        ..ExecOptions::default()
    };
    let configs: Vec<Vec<GpuMapping>> = plans.iter().map(|p| p.mappings.clone()).collect();
    let mut stores: Vec<Store> = plans
        .iter()
        .map(|_| seed_store(program, sizes, SEED).expect("store seeds"))
        .collect();
    let started = Instant::now();
    let results = execute_compiled_batch(program, &configs, sizes, &mut stores, &opts);
    let wall_s = started.elapsed().as_secs_f64();
    let mut points = 0u64;
    let outcomes = stores
        .into_iter()
        .zip(results)
        .map(|(store, stats)| {
            let stats = stats.expect("emulated execution");
            points += stats.points;
            ConfigOutcome { store, stats }
        })
        .collect();
    (EngineSample { wall_s, points }, outcomes)
}

/// Bitwise cross-check: the fast paths must reproduce the references
/// exactly — same stores, same counters.
fn cross_check(
    name: &str,
    emul_fast: &[ConfigOutcome],
    emul_ref: &[ConfigOutcome],
    emul_batch: &[ConfigOutcome],
    interp_fast: &Store,
    interp_ref: &Store,
) {
    assert_eq!(
        emul_fast.len(),
        emul_ref.len(),
        "{name}: config count differs"
    );
    assert_eq!(
        emul_batch.len(),
        emul_ref.len(),
        "{name}: batched config count differs"
    );
    for (i, (f, r)) in emul_fast.iter().zip(emul_ref).enumerate() {
        assert_eq!(
            f.stats, r.stats,
            "{name} config {i}: execution counters diverge"
        );
        let emul = compare_stores(&f.store, &r.store);
        assert!(
            emul.is_empty(),
            "{name} config {i}: emulated stores diverge: {}",
            emul[0]
        );
    }
    for (i, (b, r)) in emul_batch.iter().zip(emul_ref).enumerate() {
        assert_eq!(
            b.stats, r.stats,
            "{name} config {i}: batched execution counters diverge"
        );
        let emul = compare_stores(&b.store, &r.store);
        assert!(
            emul.is_empty(),
            "{name} config {i}: batched emulated stores diverge: {}",
            emul[0]
        );
    }
    let itp = compare_stores(interp_fast, interp_ref);
    assert!(
        itp.is_empty(),
        "{name}: interpreted stores diverge: {}",
        itp[0]
    );
}

fn engine_json(s: &EngineSample) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"points_per_s\": {:.0}}}",
        s.wall_s,
        s.points_per_s()
    )
}

fn pair_json(p: &EnginePair) -> String {
    format!(
        "{{\"fast\": {}, \"reference\": {}, \"wall_ratio\": {:.3}}}",
        engine_json(&p.fast),
        engine_json(&p.reference),
        p.wall_ratio()
    )
}

/// Keeps the minimum-wall sample per side across repetitions.
fn keep_min(best: &mut Option<EnginePair>, sample: EnginePair) {
    match best {
        None => *best = Some(sample),
        Some(b) => {
            if sample.fast.wall_s < b.fast.wall_s {
                b.fast = sample.fast;
            }
            if sample.reference.wall_s < b.reference.wall_s {
                b.reference = sample.reference;
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args
        .iter()
        .position(|a| a == "--mode")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "full".to_owned());
    let smoke = match mode.as_str() {
        "smoke" => true,
        "full" => false,
        other => {
            eprintln!("unknown mode `{other}` (expected smoke|full)");
            eprintln!("usage: bench_oracle [--mode smoke|full] [--out PATH]");
            std::process::exit(2);
        }
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_oracle.json".to_owned());

    let sweep_opts = if smoke {
        OracleSweepOptions {
            space_cap: 9,
            time_cap: 2,
            random: 2,
            ..OracleSweepOptions::default()
        }
    } else {
        OracleSweepOptions::default()
    };
    let mut kernels = eatss_kernels::polybench();
    if smoke {
        kernels.truncate(4);
    }

    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    println!(
        "execution-engine comparison over {} PolyBench kernels (oracle-sweep configurations)\n",
        kernels.len()
    );

    let mut rows = Vec::new();
    for b in &kernels {
        let program = b.program().expect("registry parses");
        let sizes = sweep_sizes(&program, &b.sizes(eatss_kernels::Dataset::Standard), &sweep_opts);
        let plans = config_plans(&program, &sizes, b, &eatss, &arch, sweep_opts.random);
        if plans.is_empty() {
            println!("{:<12} skipped (no mappable configuration)", b.name);
            continue;
        }

        let mut emulator: Option<EnginePair> = None;
        let mut interp_best: Option<EnginePair> = None;
        let mut emulator_batch: Option<EnginePair> = None;
        let mut checked = false;
        for _ in 0..reps(smoke) {
            let (ef, emul_fast) = run_emulator(&program, &sizes, &plans, ExecEngine::Plan);
            let (er, emul_ref) = run_emulator(&program, &sizes, &plans, ExecEngine::Reference);
            let (eb, emul_batch) = run_emulator_batch(&program, &sizes, &plans);
            // The emulated domain is tile-independent, so every config
            // executes the same number of points.
            let per_config = emul_fast[0].stats.points;
            let (inf, interp_fast) = run_interp(&program, &sizes, plans.len(), per_config, true);
            let (inr, interp_ref) = run_interp(&program, &sizes, plans.len(), per_config, false);
            if !checked {
                cross_check(
                    b.name,
                    &emul_fast,
                    &emul_ref,
                    &emul_batch,
                    &interp_fast,
                    &interp_ref,
                );
                checked = true;
            }
            keep_min(
                &mut emulator,
                EnginePair {
                    fast: ef,
                    reference: er,
                },
            );
            keep_min(
                &mut interp_best,
                EnginePair {
                    fast: inf,
                    reference: inr,
                },
            );
            keep_min(
                &mut emulator_batch,
                EnginePair {
                    fast: eb,
                    reference: er,
                },
            );
        }
        let (emulator, interp, emulator_batch) = (
            emulator.expect("reps >= 1"),
            interp_best.expect("reps >= 1"),
            emulator_batch.expect("reps >= 1"),
        );

        println!(
            "{:<12} interp x{:<4.1} ({:>8.4} s vs {:>8.4} s) | emulator x{:<4.1} ({:>8.4} s vs {:>8.4} s, batched {:>8.4} s x{:<4.1})",
            b.name,
            interp.wall_ratio(),
            interp.fast.wall_s,
            interp.reference.wall_s,
            emulator.wall_ratio(),
            emulator.fast.wall_s,
            emulator.reference.wall_s,
            emulator_batch.fast.wall_s,
            emulator_batch.wall_ratio(),
        );
        rows.push(KernelRow {
            name: b.name.to_owned(),
            configs: plans.len(),
            interp,
            emulator,
            emulator_batch,
            auto_engine: if trips(&program, &sizes).iter().product::<i64>()
                >= eatss_ppcg::AUTO_PLAN_THRESHOLD_EMULATOR_POINTS
            {
                "plan"
            } else {
                "reference"
            },
        });
    }

    // Flag sub-1.0 wall_ratios the suite actually pays: the interp fast
    // path is unconditional, so any loss there is a finding. The emulator's forced-`Plan` arm only reaches production
    // through `ExecEngine::Auto`, which routes domains below
    // `AUTO_PLAN_THRESHOLD_EMULATOR_POINTS` to the reference walker — a
    // forced-plan loss on such a domain is exactly the case Auto avoids,
    // so it is reported in the table but not flagged as a regression.
    let mut regressions = Vec::new();
    for r in &rows {
        for (side, pair, flagged) in [
            ("interp", &r.interp, true),
            ("emulator", &r.emulator, r.auto_engine == "plan"),
            (
                "emulator_batched",
                &r.emulator_batch,
                r.auto_engine == "plan",
            ),
        ] {
            if flagged && pair.wall_ratio() < 1.0 {
                regressions.push(Regression {
                    name: r.name.clone(),
                    side,
                    wall_ratio: pair.wall_ratio(),
                });
            }
        }
    }
    for reg in &regressions {
        println!(
            "WARNING: {} {} wall_ratio {:.3} < 1.0 — compiled path slower than reference \
             (ExecEngine::Auto routes this domain to `{}`)",
            reg.name,
            reg.side,
            reg.wall_ratio,
            rows.iter()
                .find(|r| r.name == reg.name)
                .map_or("?", |r| r.auto_engine),
        );
    }

    let sum = |f: &dyn Fn(&KernelRow) -> f64| -> f64 { rows.iter().map(f).sum() };
    let interp_fast = sum(&|r| r.interp.fast.wall_s);
    let interp_ref = sum(&|r| r.interp.reference.wall_s);
    let emul_fast = sum(&|r| r.emulator.fast.wall_s);
    let emul_ref = sum(&|r| r.emulator.reference.wall_s);
    let emul_batch = sum(&|r| r.emulator_batch.fast.wall_s);
    let points: u64 = rows.iter().map(|r| r.interp.fast.points).sum();
    let configs: usize = rows.iter().map(|r| r.configs).sum();
    // The acceptance headline: compiled path over `interp::reference`.
    let wall_ratio = interp_ref / interp_fast.max(1e-9);

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"oracle_exec\",\n  \"mode\": ");
    let _ = write!(
        json,
        "\"{}\",\n  \"seed\": {},\n  \"provenance\": {},\n  \"kernels\": [\n",
        mode,
        SEED,
        eatss_trace::Provenance::collect(Some(1)).to_json()
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"configs\": {}, \"points\": {}, \"auto_engine\": \"{}\", \"interp\": {}, \"emulator\": {}, \"emulator_batched\": {}}}{}",
            r.name,
            r.configs,
            r.interp.fast.points,
            r.auto_engine,
            pair_json(&r.interp),
            pair_json(&r.emulator),
            pair_json(&r.emulator_batch),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"regressions\": [");
    for (i, reg) in regressions.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"name\": \"{}\", \"side\": \"{}\", \"wall_ratio\": {:.3}}}",
            if i == 0 { "" } else { ", " },
            reg.name,
            reg.side,
            reg.wall_ratio
        );
    }
    let _ = write!(
        json,
        "],\n  \"aggregate\": {{\"kernels\": {}, \"configs\": {}, \"points\": {}, \
         \"interp\": {{\"fast_wall_s\": {:.6}, \"reference_wall_s\": {:.6}, \"wall_ratio\": {:.3}}}, \
         \"emulator\": {{\"fast_wall_s\": {:.6}, \"reference_wall_s\": {:.6}, \"wall_ratio\": {:.3}}}, \
         \"emulator_batched\": {{\"fast_wall_s\": {:.6}, \"reference_wall_s\": {:.6}, \"wall_ratio\": {:.3}, \"vs_fast_ratio\": {:.3}}}, \
         \"wall_ratio\": {:.3}}}\n}}\n",
        rows.len(),
        configs,
        points,
        interp_fast,
        interp_ref,
        wall_ratio,
        emul_fast,
        emul_ref,
        emul_ref / emul_fast.max(1e-9),
        emul_batch,
        emul_ref,
        emul_ref / emul_batch.max(1e-9),
        emul_fast / emul_batch.max(1e-9),
        wall_ratio
    );

    std::fs::write(&out_path, &json).expect("write BENCH_oracle.json");
    println!(
        "\naggregate interp: {:.4} s vs {:.4} s (x{:.2}) | emulator: {:.4} s vs {:.4} s (x{:.2})",
        interp_fast,
        interp_ref,
        wall_ratio,
        emul_fast,
        emul_ref,
        emul_ref / emul_fast.max(1e-9)
    );
    println!(
        "aggregate batched emulator: {:.4} s (x{:.2} vs reference, x{:.2} vs fast)",
        emul_batch,
        emul_ref / emul_batch.max(1e-9),
        emul_fast / emul_batch.max(1e-9)
    );
    println!(
        "{} kernel(s), {} config(s), {} interpreted point(s)",
        rows.len(),
        configs,
        points
    );
    println!("wrote {out_path}");
}
