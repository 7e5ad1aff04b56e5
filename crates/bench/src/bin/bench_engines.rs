//! **bench_engines** — the fast-vs-reference parity gate. Every product
//! engine that kept the engine it replaced as an executable spec runs
//! against it on identical inputs: the **solver** core against
//! [`eatss_smt::reference`] on the PolyBench §IV formulations (GA100,
//! EXTRALARGE); the compiled-plan **interp**reter against
//! [`eatss_affine::interp::reference`] and the GPU **emulator**'s plan
//! engine — per configuration and through [`execute_compiled_batch`], the
//! oracle's path — against [`ExecEngine::Reference`], over the oracle
//! sweep's configurations; the zero-copy **parser** against
//! [`eatss_affine::parser::reference`] on a seeded corpus plus the registry.
//!
//! Each pair is cross-checked before its timing counts — identical
//! optimum, bitwise-equal stores and equal [`ExecStats`], equal
//! `Program`s — and a divergence is a regression, not a benchmark
//! artifact. The one gate rule is `wall_ratio < 1.0` (the fast engine
//! slower than its spec), applied per row to the interpreter and the
//! emulator and to the aggregate of the solver and the parser, whose rows
//! are microsecond-scale. Timings are min-of-N and exist to drive that
//! rule; `bash benchmark/run.sh` owns every reported number.
//!
//! Takes no arguments: all 17 PolyBench kernels at the oracle-sweep caps,
//! 7 repetitions. The table it prints is log output; a failed gate is a
//! `REGRESSION:` line on stderr and the exit code is non-zero iff there
//! is one.

use eatss::{Eatss, EatssConfig, EatssModel, ModelGenerator};
use eatss_affine::interp::{self, compare_stores, Store};
use eatss_affine::parser::gen::{generate_program, GenConfig};
use eatss_affine::parser::{self, parse_named_program};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_bench::oracle::{bench_seed, pinned_configs, sweep_sizes, trips, OracleSweepOptions};
use eatss_bench::Table;
use eatss_gpusim::GpuArch;
use eatss_kernels::{Benchmark, Dataset};
use eatss_ppcg::oracle::{sample_tile_config, sweep_rng};
use eatss_ppcg::{
    execute_compiled, execute_compiled_batch, seed_store, CompileOptions, ExecEngine, ExecOptions,
    ExecStats, GpuMapping, Ppcg,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SEED: u64 = 0xEA75_50AC;
/// Repetitions per engine; the minimum wall counts.
const REPS: usize = 7;

/// One fast engine timed against its reference on one input.
struct EnginePair {
    subject: &'static str,
    name: String,
    fast: Duration,
    reference: Duration,
    /// Whether the row enters its subject's aggregate and gate. Off only
    /// for an infeasible formulation (it measures refutation, not
    /// optimization).
    gated: bool,
}

/// How many times faster than its reference the fast engine ran; NaN
/// (never a regression) when nothing was timed.
fn wall_ratio(fast: Duration, reference: Duration) -> f64 {
    reference.as_secs_f64() / fast.as_secs_f64()
}

/// Prints one subject's rows and applies the gate rule — `wall_ratio <
/// 1.0` is a regression — to each gated row (`per_row`) or to their
/// aggregate.
fn record(
    regressions: &mut Vec<String>,
    table: &mut Table,
    subject: &str,
    per_row: bool,
    rows: &[EnginePair],
) {
    let mut row = |name: &str, fast: Duration, reference: Duration, gate: bool, note: &str| {
        let ratio = wall_ratio(fast, reference);
        if gate && ratio < 1.0 {
            regressions.push(format!(
                "{subject} {name}: wall_ratio {ratio:.3} < 1.0 — fast engine slower than its reference"
            ));
        }
        table.row(vec![
            subject.to_owned(),
            name.to_owned(),
            format!("{:.6}", fast.as_secs_f64()),
            format!("{:.6}", reference.as_secs_f64()),
            format!("x{ratio:.2}"),
            note.to_owned(),
        ]);
    };
    let rows = || rows.iter().filter(|r| r.subject == subject);
    for r in rows() {
        let note = if r.gated { "" } else { "not gated" };
        row(&r.name, r.fast, r.reference, r.gated && per_row, note);
    }
    let gated = || rows().filter(|r| r.gated);
    row(
        "aggregate",
        gated().map(|r| r.fast).sum(),
        gated().map(|r| r.reference).sum(),
        !per_row,
        &format!("{} gated row(s)", gated().count()),
    );
}

/// One engine under the clock: a run does its own untimed setup and
/// returns the wall time of the measured region with what it computed.
type Engine<'a, T> = &'a mut dyn FnMut() -> (Duration, T);

/// The one timing loop. Runs every engine [`REPS`] times, interleaved so
/// none systematically benefits from cache warm-up, and keeps the minimum
/// wall per engine. The last engine is the reference: on the first
/// repetition — before any timing counts — every other engine's output
/// must agree with its output, or the divergence is returned instead.
/// On success returns the minima and the first repetition's outputs, both
/// in engine order.
fn time_engines<T>(
    engines: &mut [Engine<'_, T>],
    agree: impl Fn(&T, &T) -> Result<(), String>,
) -> Result<(Vec<Duration>, Vec<T>), String> {
    let mut best = vec![Duration::MAX; engines.len()];
    let mut first = Vec::with_capacity(engines.len());
    for rep in 0..REPS {
        for (slot, engine) in best.iter_mut().zip(engines.iter_mut()) {
            let (wall, out) = engine();
            *slot = (*slot).min(wall);
            if rep == 0 {
                first.push(out);
            }
        }
        if rep == 0 {
            let (reference, fast) = first.split_last().expect("at least a reference engine");
            for out in fast {
                agree(out, reference)?;
            }
        }
    }
    Ok((best, first))
}

// ── solver ─────────────────────────────────────────────────────────────

fn build_model(b: &Benchmark) -> Option<EatssModel> {
    let program = b.program().ok()?;
    let sizes = b.sizes(Dataset::ExtraLarge);
    ModelGenerator::new(&GpuArch::ga100(), EatssConfig::default())
        .build(&program, Some(&sizes))
        .ok()
}

fn solver_pair(b: &Benchmark) -> Result<Vec<EnginePair>, String> {
    if build_model(b).is_none() {
        return Ok(Vec::new());
    }
    let rebuild = || build_model(b).expect("model rebuilds").into_parts();
    // Each engine reports its optimum.
    let mut fast = || {
        let (mut solver, objective) = rebuild();
        let started = Instant::now();
        let outcome = solver.maximize(&objective).expect("fast maximize");
        (started.elapsed(), outcome.best)
    };
    let mut reference = || {
        let (solver, objective) = rebuild();
        let started = Instant::now();
        let outcome =
            eatss_smt::reference::maximize(&solver, &objective).expect("reference maximize");
        (started.elapsed(), outcome.best)
    };
    let (walls, outs) = time_engines(&mut [&mut fast, &mut reference], |f, r| {
        if f == r {
            Ok(())
        } else {
            Err(format!("optimum {f:?} vs reference {r:?}"))
        }
    })?;
    Ok(vec![EnginePair {
        subject: "solver",
        name: b.name.to_owned(),
        fast: walls[0],
        reference: walls[1],
        // Both engines agree, so the fast engine's verdict suffices
        // (fdtd-apml has no model at all on GA100).
        gated: outs[0].is_some(),
    }])
}

// ── interpreter and emulator ───────────────────────────────────────────

/// The oracle sweep's configurations for one benchmark (pinned
/// adversarial tiles, a prime-sized tiling, the EATSS selection, seeded
/// random samples), each compiled once outside any timed region.
fn config_mappings(
    program: &Program,
    sizes: &ProblemSizes,
    bench: &Benchmark,
    eatss: &Eatss,
    arch: &GpuArch,
    random: usize,
) -> Vec<Vec<GpuMapping>> {
    let trips = trips(program, sizes);
    let depth = program.max_depth();
    let mut tiles: Vec<TileConfig> = pinned_configs(depth, &trips)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let primes = [3i64, 5, 7, 11, 13];
    tiles.push(TileConfig::new(
        (0..depth).map(|d| primes[d % primes.len()]).collect(),
    ));
    if let Ok(solution) = eatss.select_tiles(
        program,
        &bench.sizes(Dataset::Standard),
        &EatssConfig::default(),
    ) {
        tiles.push(solution.tiles);
    }
    let mut rng = sweep_rng(bench_seed(SEED, bench.name));
    tiles.extend((0..random).map(|_| sample_tile_config(&mut rng, &trips)));

    let ppcg = Ppcg::new(arch.clone());
    tiles
        .iter()
        // Mapping rejections (too few tile sizes for a deeper kernel)
        // are not execution findings; every engine skips them alike.
        .filter_map(|t| {
            ppcg.compile(program, t, sizes, &CompileOptions::default())
                .ok()
        })
        .map(|c| c.mappings)
        .collect()
}

fn stores_agree(got: &Store, want: &Store) -> Result<(), String> {
    match compare_stores(got, want).first() {
        None => Ok(()),
        Some(m) => Err(format!("stores diverge: {m}")),
    }
}

/// The interpreter pair, the emulator pair and the batched-emulator pair
/// for one benchmark, all from identically seeded stores.
fn exec_pairs(
    b: &Benchmark,
    eatss: &Eatss,
    arch: &GpuArch,
    sweep: &OracleSweepOptions,
) -> Result<Vec<EnginePair>, String> {
    let program = b.program().expect("registry parses");
    let sizes = sweep_sizes(&program, &b.sizes(Dataset::Standard), sweep);
    let configs = config_mappings(&program, &sizes, b, eatss, arch, sweep.random);
    if configs.is_empty() {
        println!("{}: no mappable configuration, skipped", b.name);
        return Ok(Vec::new());
    }
    let seeded = || seed_store(&program, &sizes, SEED).expect("store seeds");

    let interpret =
        |run: fn(&Program, &ProblemSizes, &mut Store) -> Result<(), interp::InterpError>| {
            let mut wall = Duration::ZERO;
            let mut last = None;
            for _ in &configs {
                let mut store = seeded();
                let started = Instant::now();
                run(&program, &sizes, &mut store).expect("interpretation");
                wall += started.elapsed();
                last = Some(store);
            }
            (wall, last.expect("at least one configuration"))
        };
    let (interp_walls, _) = time_engines(
        &mut [&mut || interpret(interp::run_program), &mut || {
            interpret(interp::reference::run_program)
        }],
        stores_agree,
    )?;

    let emulate = |engine: ExecEngine| {
        let opts = ExecOptions {
            engine,
            ..ExecOptions::default()
        };
        let mut wall = Duration::ZERO;
        let mut outcomes: Vec<(Store, ExecStats)> = Vec::with_capacity(configs.len());
        for mappings in &configs {
            let mut store = seeded();
            let started = Instant::now();
            let stats = execute_compiled(&program, mappings, &sizes, &mut store, &opts)
                .expect("emulated execution");
            wall += started.elapsed();
            outcomes.push((store, stats));
        }
        (wall, outcomes)
    };
    let emulate_batched = || {
        let opts = ExecOptions {
            engine: ExecEngine::Plan,
            ..ExecOptions::default()
        };
        let mut stores: Vec<Store> = configs.iter().map(|_| seeded()).collect();
        let started = Instant::now();
        let results = execute_compiled_batch(&program, &configs, &sizes, &mut stores, &opts);
        let wall = started.elapsed();
        let stats = results.into_iter().map(|r| r.expect("emulated execution"));
        (wall, stores.into_iter().zip(stats).collect())
    };
    let (emul_walls, _) = time_engines(
        &mut [
            &mut || emulate(ExecEngine::Plan),
            &mut || emulate_batched(),
            &mut || emulate(ExecEngine::Reference),
        ],
        |fast, reference| {
            for (i, ((store, stats), (want_store, want_stats))) in
                fast.iter().zip(reference).enumerate()
            {
                if stats != want_stats {
                    return Err(format!("config {i}: execution counters diverge"));
                }
                stores_agree(store, want_store).map_err(|e| format!("config {i}: {e}"))?;
            }
            Ok(())
        },
    )?;

    // Both fast paths are unconditional: every row is gated.
    let pair = |subject, fast: Duration, reference: Duration| EnginePair {
        subject,
        name: b.name.to_owned(),
        fast,
        reference,
        gated: true,
    };
    Ok(vec![
        pair("interp", interp_walls[0], interp_walls[1]),
        pair("emulator", emul_walls[0], emul_walls[2]),
        pair("emulator_batched", emul_walls[1], emul_walls[2]),
    ])
}

// ── parser ─────────────────────────────────────────────────────────────

fn synthetic_tier(name: &'static str, seeds: u64, cfg: &GenConfig) -> (&'static str, Vec<String>) {
    (name, (0..seeds).map(|s| generate_program(s, cfg)).collect())
}

fn corpus() -> Vec<(&'static str, Vec<String>)> {
    let cfg = |kernels, max_depth, max_stmts, max_expr_terms, trivia| GenConfig {
        kernels,
        max_depth,
        max_stmts,
        max_expr_terms,
        trivia,
    };
    vec![
        synthetic_tier("tiny", 320, &cfg(1, 2, 1, 2, false)),
        synthetic_tier("small", 240, &cfg(2, 3, 2, 4, true)),
        synthetic_tier("medium", 160, &cfg(4, 4, 4, 6, true)),
        // Machine-generated kernel suites: one program holding an entire
        // workload's nests (the directory-ingest / generated-benchmark
        // shape). This is where the engines structurally diverge: the
        // reference materializes the whole token stream (~40 bytes per
        // token, ~20x the source) before parsing, so large inputs churn
        // the allocator and fall out of cache, while the single-pass
        // engine's working set stays flat.
        synthetic_tier("suite", 2, &cfg(4000, 4, 3, 5, true)),
        synthetic_tier("suite-xl", 1, &cfg(20000, 4, 3, 5, true)),
        // The real 17+3 registry nests — small sources, but the shapes
        // the daemon actually sees; repeated so the tier is long enough
        // to time.
        (
            "registry",
            (0..32)
                .flat_map(|_| eatss_kernels::all())
                .map(|b| b.source.to_owned())
                .collect(),
        ),
    ]
}

fn parser_pair(tier: &str, sources: &[String]) -> Result<Vec<EnginePair>, String> {
    let parse_all = |parse: fn(&str, &str) -> Result<Program, parser::ParseError>| {
        let started = Instant::now();
        let programs: Vec<_> = sources.iter().map(|src| parse("bench", src)).collect();
        (started.elapsed(), programs)
    };
    let (walls, _) = time_engines(
        &mut [&mut || parse_all(parse_named_program), &mut || {
            parse_all(parser::reference::parse_named_program)
        }],
        |fast, reference| match fast
            .iter()
            .zip(reference)
            .position(|(f, r)| f != r || f.is_err())
        {
            None => Ok(()),
            Some(i) => Err(format!(
                "program #{i}: {:?} vs reference {:?}",
                fast[i], reference[i]
            )),
        },
    )?;
    Ok(vec![EnginePair {
        subject: "parser",
        name: tier.to_owned(),
        fast: walls[0],
        reference: walls[1],
        gated: true,
    }])
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_engines   (takes no arguments)");
        return ExitCode::from(2);
    }
    let sweep = OracleSweepOptions::default();
    let mut regressions = Vec::new();
    let mut table = Table::new(["subject", "input", "fast s", "ref s", "ratio", ""]);
    let mut rows = Vec::new();
    // A diverging pair is a regression and its timing does not count.
    let mut keep = |what: String, pairs: Result<Vec<EnginePair>, String>| match pairs {
        Ok(pairs) => rows.extend(pairs),
        Err(why) => regressions.push(format!("{what}: engines diverge: {why}")),
    };
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    for b in &eatss_kernels::polybench() {
        keep(format!("solver {}", b.name), solver_pair(b));
        keep(
            format!("execution {}", b.name),
            exec_pairs(b, &eatss, &arch, &sweep),
        );
    }
    for (tier, sources) in corpus() {
        keep(format!("parser {tier}"), parser_pair(tier, &sources));
    }

    record(&mut regressions, &mut table, "solver", false, &rows);
    record(&mut regressions, &mut table, "interp", true, &rows);
    record(&mut regressions, &mut table, "emulator", true, &rows);
    record(&mut regressions, &mut table, "emulator_batched", true, &rows);
    record(&mut regressions, &mut table, "parser", false, &rows);
    println!("{}", table.render());
    for r in &regressions {
        eprintln!("REGRESSION: {r}");
    }
    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
