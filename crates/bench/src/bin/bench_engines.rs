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
//! Usage: `bench_engines [--mode smoke|full] [--out PATH]`
//!   --mode smoke   4 kernels, 2 random configurations, small corpus, 3 reps (CI)
//!   --mode full    all 17 kernels at the oracle-sweep caps, 7 reps (default)
//!   --out PATH     report path (default: BENCH_engines.json)

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
    ExecStats, GpuMapping, Ppcg, AUTO_PLAN_THRESHOLD_EMULATOR_POINTS,
};
use eatss_trace::json::Json;
use eatss_trace::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SEED: u64 = 0xEA75_50AC;

/// One fast engine timed against its reference on one input.
struct EnginePair {
    subject: &'static str,
    name: String,
    fast: Duration,
    reference: Duration,
    /// Whether the row enters its subject's aggregate and gate. Off for
    /// an infeasible formulation (it measures refutation, not
    /// optimization) and for an emulator domain [`ExecEngine::Auto`]
    /// routes to the reference walker (a forced-plan loss there is the
    /// case `Auto` exists to avoid).
    gated: bool,
    /// Subject-specific columns (node counts, points, bytes).
    detail: Vec<(&'static str, Json)>,
}

/// How many times faster than its reference the fast engine ran; NaN
/// (printed as `null`, never a regression) when nothing was timed.
fn wall_ratio(fast: Duration, reference: Duration) -> f64 {
    reference.as_secs_f64() / fast.as_secs_f64()
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Records one subject's rows as a report section and applies the gate
/// rule — `wall_ratio < 1.0` is a regression — to each gated row
/// (`per_row`) or to their aggregate.
fn record(
    report: &mut Report,
    table: &mut Table,
    subject: &str,
    per_row: bool,
    rows: &[EnginePair],
) {
    let mut row = |name: String, fast: Duration, reference: Duration, gate: bool, note: &str| {
        let ratio = wall_ratio(fast, reference);
        if gate && ratio < 1.0 {
            report.regressions.push(format!(
                "{subject} {name}: wall_ratio {ratio:.3} < 1.0 — fast engine slower than its reference"
            ));
        }
        table.row(vec![
            subject.to_owned(),
            name.clone(),
            format!("{:.6}", fast.as_secs_f64()),
            format!("{:.6}", reference.as_secs_f64()),
            format!("x{ratio:.2}"),
            note.to_owned(),
        ]);
        vec![
            ("name", name.into()),
            ("fast_wall_s", fast.as_secs_f64().into()),
            ("reference_wall_s", reference.as_secs_f64().into()),
            ("wall_ratio", round3(ratio).into()),
        ]
    };
    let rows = || rows.iter().filter(|r| r.subject == subject);
    let json_rows = rows()
        .map(|r| {
            let note = if r.gated { "" } else { "not gated" };
            let mut fields = row(
                r.name.clone(),
                r.fast,
                r.reference,
                r.gated && per_row,
                note,
            );
            fields.push(("gated", r.gated.into()));
            fields.extend(r.detail.iter().cloned());
            Json::object(fields)
        })
        .collect();
    let gated = || rows().filter(|r| r.gated);
    let aggregate = row(
        "aggregate".to_owned(),
        gated().map(|r| r.fast).sum(),
        gated().map(|r| r.reference).sum(),
        !per_row,
        &format!("{} gated row(s)", gated().count()),
    );
    report.sections.insert(
        subject.to_owned(),
        Json::object([
            ("gated_per_row", per_row.into()),
            ("rows", Json::Arr(json_rows)),
            ("aggregate", Json::object(aggregate)),
        ]),
    );
}

/// One engine under the clock: a run does its own untimed setup and
/// returns the wall time of the measured region with what it computed.
type Engine<'a, T> = &'a mut dyn FnMut() -> (Duration, T);

/// The one timing loop. Runs every engine `reps` times, interleaved so
/// none systematically benefits from cache warm-up, and keeps the minimum
/// wall per engine. The last engine is the reference: on the first
/// repetition — before any timing counts — every other engine's output
/// must agree with its output, or the divergence is returned instead.
/// On success returns the minima and the first repetition's outputs, both
/// in engine order.
fn time_engines<T>(
    reps: usize,
    engines: &mut [Engine<'_, T>],
    agree: impl Fn(&T, &T) -> Result<(), String>,
) -> Result<(Vec<Duration>, Vec<T>), String> {
    let mut best = vec![Duration::MAX; engines.len()];
    let mut first = Vec::with_capacity(engines.len());
    for rep in 0..reps {
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

fn solver_pair(b: &Benchmark, reps: usize) -> Result<Vec<EnginePair>, String> {
    if build_model(b).is_none() {
        return Ok(Vec::new());
    }
    let rebuild = || build_model(b).expect("model rebuilds").into_parts();
    // Each engine reports (optimum, search nodes, solver calls).
    let mut fast = || {
        let (mut solver, objective) = rebuild();
        let started = Instant::now();
        let outcome = solver.maximize(&objective).expect("fast maximize");
        (
            started.elapsed(),
            (outcome.best, solver.stats().nodes, outcome.solver_calls),
        )
    };
    let mut reference = || {
        let (solver, objective) = rebuild();
        let started = Instant::now();
        let outcome =
            eatss_smt::reference::maximize(&solver, &objective).expect("reference maximize");
        (
            started.elapsed(),
            (outcome.best, outcome.nodes, outcome.solver_calls),
        )
    };
    let (walls, outs) = time_engines(reps, &mut [&mut fast, &mut reference], |f, r| {
        if f.0 == r.0 {
            Ok(())
        } else {
            Err(format!("optimum {:?} vs reference {:?}", f.0, r.0))
        }
    })?;
    // Both engines agree, so the fast engine's verdict suffices
    // (fdtd-apml has no model at all on GA100).
    let (best, fast_nodes, solver_calls) = outs[0];
    Ok(vec![EnginePair {
        subject: "solver",
        name: b.name.to_owned(),
        fast: walls[0],
        reference: walls[1],
        gated: best.is_some(),
        detail: vec![
            ("infeasible", best.is_none().into()),
            ("best", best.into()),
            ("solver_calls", solver_calls.into()),
            ("fast_nodes", fast_nodes.into()),
            ("reference_nodes", outs[1].1.into()),
        ],
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
    reps: usize,
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
        reps,
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
    let (emul_walls, emul_outs) = time_engines(
        reps,
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

    // The emulated domain is tile-independent, so every configuration
    // executes the same number of points.
    let points = emul_outs[0]
        .iter()
        .map(|(_, stats)| stats.points)
        .sum::<u64>();
    let auto_plan =
        trips(&program, &sizes).iter().product::<i64>() >= AUTO_PLAN_THRESHOLD_EMULATOR_POINTS;
    let auto_engine = if auto_plan { "plan" } else { "reference" };
    let pair = |subject, fast: Duration, reference: Duration, gated: bool| EnginePair {
        subject,
        name: b.name.to_owned(),
        fast,
        reference,
        gated,
        detail: vec![
            ("configs", configs.len().into()),
            ("points", points.into()),
            ("auto_engine", auto_engine.into()),
        ],
    };
    Ok(vec![
        // The interpreter's fast path is unconditional: always gated.
        pair("interp", interp_walls[0], interp_walls[1], true),
        pair("emulator", emul_walls[0], emul_walls[2], auto_plan),
        pair("emulator_batched", emul_walls[1], emul_walls[2], auto_plan),
    ])
}

// ── parser ─────────────────────────────────────────────────────────────

fn synthetic_tier(name: &'static str, seeds: u64, cfg: &GenConfig) -> (&'static str, Vec<String>) {
    (name, (0..seeds).map(|s| generate_program(s, cfg)).collect())
}

fn corpus(smoke: bool) -> Vec<(&'static str, Vec<String>)> {
    let scale = if smoke { 1 } else { 8 };
    let cfg = |kernels, max_depth, max_stmts, max_expr_terms, trivia| GenConfig {
        kernels,
        max_depth,
        max_stmts,
        max_expr_terms,
        trivia,
    };
    vec![
        synthetic_tier("tiny", 40 * scale, &cfg(1, 2, 1, 2, false)),
        synthetic_tier("small", 30 * scale, &cfg(2, 3, 2, 4, true)),
        synthetic_tier("medium", 20 * scale, &cfg(4, 4, 4, 6, true)),
        // Machine-generated kernel suites: one program holding an entire
        // workload's nests (the directory-ingest / generated-benchmark
        // shape). This is where the engines structurally diverge: the
        // reference materializes the whole token stream (~40 bytes per
        // token, ~20x the source) before parsing, so large inputs churn
        // the allocator and fall out of cache, while the single-pass
        // engine's working set stays flat.
        synthetic_tier(
            "suite",
            2,
            &cfg(if smoke { 500 } else { 4000 }, 4, 3, 5, true),
        ),
        synthetic_tier(
            "suite-xl",
            1,
            &cfg(if smoke { 1000 } else { 20000 }, 4, 3, 5, true),
        ),
        // The real 17+3 registry nests — small sources, but the shapes
        // the daemon actually sees; repeated so the tier is long enough
        // to time.
        (
            "registry",
            (0..if smoke { 4 } else { 32 })
                .flat_map(|_| eatss_kernels::all())
                .map(|b| b.source.to_owned())
                .collect(),
        ),
    ]
}

fn parser_pair(tier: &str, sources: &[String], reps: usize) -> Result<Vec<EnginePair>, String> {
    let parse_all = |parse: fn(&str, &str) -> Result<Program, parser::ParseError>| {
        let started = Instant::now();
        let programs: Vec<_> = sources.iter().map(|src| parse("bench", src)).collect();
        (started.elapsed(), programs)
    };
    let (walls, _) = time_engines(
        reps,
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
        detail: vec![
            ("programs", sources.len().into()),
            (
                "bytes",
                sources.iter().map(String::len).sum::<usize>().into(),
            ),
        ],
    }])
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_engines.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().as_deref()) {
            ("--mode", Some("smoke")) => smoke = true,
            ("--mode", Some("full")) => smoke = false,
            ("--out", Some(path)) => out = PathBuf::from(path),
            _ => {
                eprintln!("usage: bench_engines [--mode smoke|full] [--out PATH]");
                return ExitCode::from(2);
            }
        }
    }
    let reps = if smoke { 3 } else { 7 };
    let mut kernels = eatss_kernels::polybench();
    let sweep = if smoke {
        kernels.truncate(4);
        // The sweep's own caps stay: they put these kernels' domains
        // above `AUTO_PLAN_THRESHOLD_EMULATOR_POINTS`, so the emulator
        // rows are gated in CI too.
        OracleSweepOptions {
            random: 2,
            ..OracleSweepOptions::default()
        }
    } else {
        OracleSweepOptions::default()
    };

    let mut report = Report::new("engines", if smoke { "smoke" } else { "full" });
    report.sections.insert("reps".to_owned(), reps.into());
    report.sections.insert("seed".to_owned(), SEED.into());
    let mut table = Table::new(["subject", "input", "fast s", "ref s", "ratio", ""]);
    let mut rows = Vec::new();
    // A diverging pair is a regression and its timing does not count.
    let mut keep = |what: String, pairs: Result<Vec<EnginePair>, String>| match pairs {
        Ok(pairs) => rows.extend(pairs),
        Err(why) => report
            .regressions
            .push(format!("{what}: engines diverge: {why}")),
    };
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    for b in &kernels {
        keep(format!("solver {}", b.name), solver_pair(b, reps));
        keep(
            format!("execution {}", b.name),
            exec_pairs(b, &eatss, &arch, &sweep, reps),
        );
    }
    for (tier, sources) in corpus(smoke) {
        keep(format!("parser {tier}"), parser_pair(tier, &sources, reps));
    }

    record(&mut report, &mut table, "solver", false, &rows);
    record(&mut report, &mut table, "interp", true, &rows);
    record(&mut report, &mut table, "emulator", true, &rows);
    record(&mut report, &mut table, "emulator_batched", true, &rows);
    record(&mut report, &mut table, "parser", false, &rows);
    println!("{}", table.render());
    report.finish(&out)
}
