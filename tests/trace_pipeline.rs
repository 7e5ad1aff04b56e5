//! Cross-crate observability tests: the `eatss-trace` layer wired through
//! the real solve → map → simulate pipeline.
//!
//! Trace collection is process-global, so every test here serializes on
//! `SESSION` (a poisoned lock is recovered — a failed test must not take
//! the rest of the suite down with it).

#![forbid(unsafe_code)]

use eatss::{Eatss, EatssConfig, SweepOptions};
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_integration::{load, oracle_catalogue, reference_points, ORACLE_SEED};
use eatss_kernels::Dataset;
use eatss_ppcg::oracle::verify_batch_on;
use eatss_ppcg::{
    execute_compiled, seed_store, verify_batch, verify_sizes, CompileOptions, ExecEngine,
    ExecOptions, OracleError, OracleOptions, Ppcg,
};
use eatss_trace::{EventKind, Provenance};
use proptest::prelude::*;
use std::sync::Mutex;

static SESSION: Mutex<()> = Mutex::new(());

fn session() -> std::sync::MutexGuard<'static, ()> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

fn mm() -> Program {
    parse_program(
        "kernel mm(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             C[i][j] += A[i][k] * B[k][j];
         }",
    )
    .expect("mm parses")
}

fn sizes(m: i64, n: i64, p: i64) -> ProblemSizes {
    ProblemSizes::new([("M", m), ("N", n), ("P", p)])
}

/// The registry is fed per-call deltas by the instrumented solver entry
/// points; their sum must equal the solver's own accumulated stats.
#[test]
fn registry_counters_match_solver_stats() {
    let _guard = session();
    let program = mm();
    let sz = sizes(2000, 2000, 2000);
    eatss_trace::start_collecting();
    let solution = Eatss::new(GpuArch::ga100())
        .select_tiles(&program, &sz, &EatssConfig::default())
        .expect("mm solves");
    let trace = eatss_trace::drain(Provenance::collect(None));
    let st = &solution.stats;
    assert!(st.nodes > 0, "solve did no search work");
    for (counter, expected) in [
        ("smt.checks", st.checks),
        ("smt.nodes", st.nodes),
        ("smt.propagations", st.propagations),
        ("smt.values_pruned", st.values_pruned),
        ("smt.backtracks", st.backtracks),
        ("smt.bound_prunes", st.bound_prunes),
        ("smt.hull_rebuilds", st.hull_rebuilds),
        ("smt.node_limit_hits", st.node_limit_hits),
        ("smt.deadline_hits", st.deadline_hits),
        ("smt.cancellations", st.cancellations),
    ] {
        assert_eq!(
            trace.metrics.counter(counter),
            expected,
            "registry `{counter}` disagrees with SolverStats"
        );
    }
    // Time counters accumulate per-call truncated microseconds, so they
    // can only undershoot the exact Duration — by less than 1us per call.
    let total_us = st.solve_time.as_micros() as u64;
    let flowed_us = trace.metrics.counter("smt.solve_time_us");
    assert!(
        flowed_us <= total_us && total_us - flowed_us <= st.checks,
        "smt.solve_time_us {flowed_us} vs exact {total_us} ({} checks)",
        st.checks
    );
}

/// A full selection + evaluation covers every pipeline stage, the span
/// stream is balanced, and the simulator spans nest under the pipeline's
/// `simulate` stage. Evaluation maps without emitting CUDA text — the
/// codegen spans belong to an explicit `Ppcg::compile` only.
#[test]
fn full_pipeline_trace_covers_solve_codegen_simulate() {
    let _guard = session();
    let program = mm();
    let sz = sizes(512, 512, 512);
    let config = EatssConfig::default();
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    eatss_trace::start_collecting();
    let solution = eatss
        .select_tiles(&program, &sz, &config)
        .expect("mm solves");
    let report = eatss
        .evaluate(&program, &solution.tiles, &sz, &config)
        .expect("mm evaluates");
    let trace = eatss_trace::drain(Provenance::collect(None));
    assert!(report.valid);
    trace.check_balance().expect("balanced spans");

    let has = |names: &std::collections::BTreeSet<(String, String)>, cat: &str, name: &str| {
        names.contains(&(cat.to_string(), name.to_string()))
    };
    let names = trace.span_names();
    for (cat, name) in [
        ("eatss", "solve"),
        ("pipeline", "map"),
        ("pipeline", "simulate"),
        ("ppcg", "map"),
        ("sim", "launch"),
        ("sim", "occupancy"),
        ("sim", "timing"),
        ("sim", "power"),
    ] {
        assert!(
            has(&names, cat, name),
            "missing span {cat}:{name} (got {names:?})"
        );
    }
    // The regression guard: text emission must not creep back onto the
    // measurement path.
    for name in ["compile", "codegen", "hostgen"] {
        assert!(
            !has(&names, "ppcg", name),
            "evaluate emitted CUDA text: span ppcg:{name} (got {names:?})"
        );
    }

    // An explicit compile is where the text is produced.
    eatss_trace::start_collecting();
    let compiled = Ppcg::new(arch.clone())
        .compile(
            &program,
            &solution.tiles,
            &sz,
            &config.compile_options(&arch),
        )
        .expect("mm compiles");
    let compile_trace = eatss_trace::drain(Provenance::collect(None));
    assert!(compiled.cuda_source.contains("__global__"));
    compile_trace.check_balance().expect("balanced spans");
    let compile_names = compile_trace.span_names();
    for name in ["compile", "map", "codegen", "hostgen"] {
        assert!(
            has(&compile_names, "ppcg", name),
            "missing span ppcg:{name} (got {compile_names:?})"
        );
    }

    // Walk a sim:launch span's parent chain: it must pass through the
    // pipeline-level simulate stage before reaching the root.
    let mut parents = std::collections::BTreeMap::new();
    let mut spans = std::collections::BTreeMap::new();
    for e in &trace.events {
        if let EventKind::Begin { id, parent } = e.kind {
            parents.insert(id, parent);
            spans.insert(id, (e.cat, e.name.clone()));
        }
    }
    let (launch_id, _) = spans
        .iter()
        .find(|(_, (cat, name))| *cat == "sim" && name == "launch")
        .expect("a sim:launch span");
    let mut cursor = *launch_id;
    let mut chain = Vec::new();
    while cursor != 0 {
        chain.push(spans[&cursor].1.clone());
        cursor = parents[&cursor];
    }
    assert!(
        chain.iter().any(|n| n == "simulate"),
        "sim:launch does not nest under pipeline:simulate: {chain:?}"
    );

    // The Chrome serialization must be well-formed JSON with a non-empty
    // event array and stamped provenance.
    let doc = eatss_trace::json::Json::parse(&trace.to_chrome_json()).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(doc
        .get("otherData")
        .and_then(|v| v.get("provenance"))
        .and_then(|v| v.get("git_sha"))
        .is_some());
}

/// Spans named `cat:name` opened in `trace`.
fn span_count(trace: &eatss_trace::Trace, cat: &str, name: &str) -> usize {
    trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Begin { .. }) && e.cat == cat && e.name == name)
        .count()
}

/// The access analysis depends on the program alone, so a sweep and a
/// verification batch run it once however many configurations they map:
/// one `affine:analyse` span, beside one `ppcg:map` per kernel per
/// measured point.
#[test]
fn one_analysis_per_sweep_and_per_verify_batch() {
    let _guard = session();
    let (program, sz) = load("2mm", Dataset::Standard);
    assert_eq!(program.kernels.len(), 2);
    let eatss = Eatss::new(GpuArch::ga100());

    eatss_trace::start_collecting();
    let outcome = eatss
        .sweep_with(
            &program,
            &sz,
            &[0.5, 0.25],
            &[0.5],
            &SweepOptions::default(),
        )
        .expect("2mm sweeps");
    let trace = eatss_trace::drain(Provenance::collect(None));
    assert_eq!(outcome.points.len(), 4);
    assert_eq!(trace.metrics.counter("sweep.fallbacks"), 0);
    assert_eq!(span_count(&trace, "affine", "analyse"), 1);
    assert_eq!(span_count(&trace, "ppcg", "map"), 2 * 4);

    let config = EatssConfig::default();
    let depth = program.max_depth();
    let (default, other) = (
        TileConfig::ppcg_default(depth),
        TileConfig::new(vec![16; depth]),
    );
    eatss_trace::start_collecting();
    let verdicts = eatss.verify(
        &program,
        &sz,
        &[(&config, &default), (&config, &other)],
        eatss::VERIFY_SEED,
    );
    let trace = eatss_trace::drain(Provenance::collect(None));
    assert!(verdicts.iter().all(Result::is_ok), "{verdicts:?}");
    assert_eq!(span_count(&trace, "affine", "analyse"), 1);
    assert_eq!(span_count(&trace, "ppcg", "map"), 2 * 2);
}

/// A batch's configurations may run on a helper thread, but their events
/// stay on the caller's lane — where a daemon request harvests its span
/// tree — in configuration order and balanced: a two-configuration
/// `Eatss::verify` on lane 9 puts all of its `exec:kernel` spans (2mm's
/// two kernels, each configuration) on lane 9, under the batch's span.
#[test]
fn a_verify_batch_traces_on_the_callers_lane() {
    let _guard = session();
    let (program, sz) = load("2mm", Dataset::Standard);
    let depth = program.max_depth();
    let (config, default, other) = (
        EatssConfig::default(),
        TileConfig::ppcg_default(depth),
        TileConfig::new(vec![16; depth]),
    );
    eatss_trace::start_collecting();
    let verdicts = {
        let _lane = eatss_trace::lane_scope(9);
        Eatss::new(GpuArch::ga100()).verify(
            &program,
            &sz,
            &[(&config, &default), (&config, &other)],
            eatss::VERIFY_SEED,
        )
    };
    let trace = eatss_trace::drain(Provenance::collect(None));
    assert!(verdicts.iter().all(Result::is_ok), "{verdicts:?}");
    trace.check_balance().expect("balanced spans");
    let batch = (trace.events.iter())
        .find_map(|e| match e.kind {
            EventKind::Begin { id, .. } if e.name == "verify" => Some(id),
            _ => None,
        })
        .expect("the batch's span");
    let kernels: Vec<&eatss_trace::Event> = (trace.events.iter())
        .filter(|e| e.cat == "exec" && e.name == "kernel")
        .collect();
    assert_eq!(kernels.len(), 2 * 2 * 2, "{kernels:?}");
    for event in &kernels {
        assert_eq!(event.lane, 9, "{event:?}");
        if let EventKind::Begin { parent, .. } = event.kind {
            assert_eq!(parent, batch, "{event:?}");
        }
    }
    // Configuration order: both kernels under `32^d`, then under 16s.
    let tiles: Vec<&eatss_trace::ArgValue> = (kernels.iter())
        .flat_map(|e| e.args.iter().filter(|(k, _)| *k == "tiles"))
        .map(|(_, v)| v)
        .collect();
    let [first, second] = [&default, &other].map(|t| eatss_trace::ArgValue::from(t.to_string()));
    assert_eq!(tiles, [&first, &first, &second, &second]);
}

/// `exec.rows` tallies the plan engine's rows, so `exec.points` per row
/// reads how far each row's set-up is amortized. heat-3d at 13³, under its
/// EATSS tiles (Xavier, warp fraction 1/8) and under `32^d`, and b2mm at
/// 7⁵ under `32^d` run one x row per chunk of x-adjacent threads and
/// iteration of the loops they share: 2 kernels × 3 steps × 13², and 7⁴.
/// matmul's threads each own a serial k row per serial tile step, except
/// where a chunk's 4 threads share a 3-long k tail: there 3 x rows beat 4
/// k rows, 9 chunks in each of the two full-width j tiles. The reference
/// walker runs no rows at all. Every other `ExecStats` field is pinned
/// beside them: one launch per time step (heat-3d's 2 kernels × 3 steps),
/// the blocks of each grid, and matmul's staged boxes and barriers: two
/// barriers per serial k step, 2 steps in each of its 9 blocks.
#[test]
fn exec_rows_counts_one_per_plan_row() {
    let _guard = session();
    let counts = |program: &Program, tiles: Vec<i64>, sz: &ProblemSizes, engine| {
        let compiled = Ppcg::new(GpuArch::ga100())
            .compile(
                program,
                &TileConfig::new(tiles),
                sz,
                &CompileOptions::default(),
            )
            .expect("compiles");
        let mut store = seed_store(program, sz, 42).expect("seeds");
        let opts = ExecOptions {
            engine,
            ..ExecOptions::default()
        };
        eatss_trace::start_collecting();
        let stats =
            execute_compiled(program, &compiled.mappings, sz, &mut store, &opts).expect("emulates");
        let trace = eatss_trace::drain(Provenance::collect(None));
        assert_eq!(trace.metrics.counter("exec.points"), stats.points);
        assert_eq!(trace.metrics.counter("exec.blocks"), stats.blocks);
        let by_loop: u64 = ROW_LOOPS.iter().map(|c| trace.metrics.counter(c)).sum();
        let planned = if engine == ExecEngine::Plan {
            stats.points
        } else {
            0
        };
        assert_eq!(by_loop, planned, "every plan point runs one row loop");
        (
            trace.metrics.counter("exec.rows"),
            stats.points,
            stats.launches,
            stats.blocks,
            stats.barriers,
            stats.staged_elems,
        )
    };
    // (rows, points, launches, blocks, barriers, staged_elems): the walks
    // over launches, blocks and tile steps are shared by both engines, so
    // the plan-vs-reference differential cannot catch a change to them;
    // these pins do.
    let (heat, full) = load("heat-3d", Dataset::Standard);
    let heat_sizes = verify_sizes(&heat, &full, 13, 3);
    assert_eq!(
        counts(&heat, vec![1, 4, 4, 64], &heat_sizes, ExecEngine::Plan),
        (1_014, 2 * 3 * 13 * 13 * 13, 6, 96, 0, 0)
    );
    assert_eq!(
        counts(&heat, vec![32; 4], &heat_sizes, ExecEngine::Plan),
        (1_014, 2 * 3 * 13 * 13 * 13, 6, 6, 0, 0)
    );
    let (b2mm, full) = load("b2mm", Dataset::Standard);
    let b2mm_sizes = verify_sizes(&b2mm, &full, 7, 3);
    assert_eq!(
        counts(&b2mm, vec![32; 5], &b2mm_sizes, ExecEngine::Plan),
        (2_401, 7 * 7 * 7 * 7 * 7, 1, 1, 2, 2_401)
    );
    let mm_sizes = sizes(9, 10, 7);
    assert_eq!(
        counts(&mm(), vec![4, 4, 4], &mm_sizes, ExecEngine::Plan),
        (9 * 10 * 2 - 9 * 2, 9 * 10 * 7, 1, 9, 36, 189)
    );
    assert_eq!(
        counts(&mm(), vec![4, 4, 4], &mm_sizes, ExecEngine::Reference),
        (0, 9 * 10 * 7, 1, 9, 36, 189)
    );
    // `B[i][j + i]` fails the lockstep test along x = `j`, so every chunk
    // runs thread by thread (one-point threads fused where the shared
    // loops iterate once): the per-thread row rule's own pins. Under
    // [4, 40], each of 10 blocks × 4 y-chunks runs 8 two-point x rows
    // and one row of the 24 one-point threads: 360.
    let shear = parse_program(
        "kernel shear(N) {
           for (i: N) for (j: N)
             B[i][j + i] = A[i][j];
         }",
    )
    .expect("shear parses");
    for (tiles, n, rows, blocks) in [
        (vec![4, 40], 40, 360, 10),
        (vec![3, 5], 11, 33, 12),
        (vec![64, 64], 40, 704, 1),
        (vec![128, 8], 20, 116, 3),
    ] {
        let sz = ProblemSizes::new([("N", n)]);
        assert_eq!(
            counts(&shear, tiles.clone(), &sz, ExecEngine::Plan),
            (rows, (n * n) as u64, 1, blocks, 0, 0),
            "shear under {tiles:?} at N = {n}"
        );
    }
}

/// The points each plan row loop ran, as `RowScratch::publish` counts them.
const ROW_LOOPS: [&str; 3] = [
    "exec.points_block",
    "exec.points_fused",
    "exec.points_scalar",
];

/// The `verify-oracle` catalogue, one pass: every registry kernel on both
/// testbeds (GA100 at ExtraLarge, Xavier at Standard), each one
/// `verify_batch` of its EATSS tiles, `32^d` and four seeded draws at the
/// workload's caps. No point runs the scalar row loop — in-place updates
/// run blocked — and the three loops' points add up to every point the
/// plans ran: the emulator's and the reference interpretation's.
#[test]
fn the_oracle_catalogue_runs_no_point_on_the_scalar_row_loop() {
    let _guard = session();
    let catalogue = oracle_catalogue();
    let mut interpreted = 0;
    eatss_trace::set_log_level(eatss_trace::Level::Off);
    eatss_trace::start_collecting();
    for op in &catalogue {
        let verdicts = verify_batch(
            &op.program,
            &op.configs,
            &op.arch,
            &op.sizes,
            &OracleOptions::default(),
            ORACLE_SEED,
        );
        for (tiles, verdict) in op.configs.iter().zip(&verdicts) {
            assert!(
                matches!(verdict, Ok(_) | Err(OracleError::Compile(_))),
                "{}, tiles {tiles}: {verdict:?}",
                op.what
            );
        }
        interpreted += reference_points(&op.program, &op.sizes);
    }
    let metrics = eatss_trace::drain(Provenance::collect(None)).metrics;
    let [block, fused, scalar] = ROW_LOOPS.map(|c| metrics.counter(c));
    assert_eq!(scalar, 0, "block {block}, fused {fused}");
    assert_eq!(block + fused, metrics.counter("exec.points") + interpreted);
}

/// One, two and three groups give the same verdicts and reports, the
/// same `exec.*` and `oracle.*` counters, and the same trace on the
/// caller's lane, over the `verify-oracle` catalogue — all but plan
/// compilation: each group compiles the plans its configurations need
/// into its own caches, so `exec.plan_compiles` and the
/// `pipeline:plan_compile` spans count at least the one-group compiles
/// and at most that many per group. Batches under the split floor run as
/// one group whatever the count; most of the catalogue's are above it.
#[test]
fn verify_batch_is_identical_for_every_worker_count() {
    let _guard = session();
    let catalogue = oracle_catalogue();
    let split = (catalogue.iter())
        .filter(|op| reference_points(&op.program, &op.sizes) * op.configs.len() as u64 >= 10_000)
        .count();
    assert!(split > catalogue.len() / 2, "{split} batches split");
    eatss_trace::set_log_level(eatss_trace::Level::Off);
    let lane = eatss_trace::alloc_lane();
    let run = |jobs: usize| {
        eatss_trace::start_collecting();
        let verdicts: Vec<Vec<_>> = {
            let _lane = eatss_trace::lane_scope(lane);
            (catalogue.iter())
                .map(|op| {
                    verify_batch_on(
                        &op.program,
                        &op.configs,
                        &op.arch,
                        &op.sizes,
                        &OracleOptions::default(),
                        ORACLE_SEED,
                        jobs,
                    )
                })
                .collect()
        };
        let trace = eatss_trace::drain(Provenance::collect(None));
        let compiles = trace.metrics.counter("exec.plan_compiles");
        let counters: Vec<(String, u64)> = (trace.metrics.counters.into_iter())
            .filter(|(name, _)| name.starts_with("exec.") || name.starts_with("oracle."))
            .filter(|(name, _)| name != "exec.plan_compiles")
            .collect();
        let events: Vec<String> = (trace.events.iter())
            .filter(|e| e.lane == lane && e.name != "plan_compile")
            .map(|e| format!("{}|{}|{}", e.cat, e.name, e.kind.code()))
            .collect();
        (verdicts, counters, events, compiles)
    };
    let one = run(1);
    let verified = one.0.iter().flatten().filter(|v| v.is_ok()).count();
    assert_eq!(one.0.len(), 42);
    assert!(verified > 42, "{verified} configurations verified");
    let configs = one.1.iter().find(|(name, _)| name == "oracle.configs");
    assert_eq!(configs.map(|(_, n)| *n as usize), Some(verified));
    for jobs in [2, 3] {
        let other = run(jobs);
        assert!(one.0 == other.0, "verdicts at {jobs} workers");
        assert_eq!(one.1, other.1, "counters at {jobs} workers");
        assert!(one.2 == other.2, "trace at {jobs} workers");
        let compiles = one.3..=one.3 * jobs as u64;
        assert!(
            compiles.contains(&other.3),
            "{} compiles at {jobs}",
            other.3
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// PR 2's bit-identical parallel-sweep guarantee extends to traces:
    /// the canonical `(lane, seq)` merge makes the structural signature of
    /// a `--jobs 4` sweep identical to the sequential one.
    #[test]
    fn parallel_sweep_trace_matches_sequential(
        m in 128i64..640,
        n in 128i64..640,
        p in 128i64..640,
    ) {
        let _guard = session();
        let program = mm();
        let sz = sizes(m, n, p);
        let eatss = Eatss::new(GpuArch::ga100());
        let splits = [0.5, 0.25];
        let fracs = [0.5];

        let seq_opts = SweepOptions { jobs: 1, ..SweepOptions::default() };
        eatss_trace::start_collecting();
        let seq = eatss.sweep_with(&program, &sz, &splits, &fracs, &seq_opts);
        let seq_trace = eatss_trace::drain(Provenance::collect(Some(1)));

        let par_opts = SweepOptions { jobs: 4, ..SweepOptions::default() };
        eatss_trace::start_collecting();
        let par = eatss.sweep_with(&program, &sz, &splits, &fracs, &par_opts);
        let par_trace = eatss_trace::drain(Provenance::collect(Some(4)));

        prop_assert_eq!(seq.is_ok(), par.is_ok());
        prop_assert_eq!(seq_trace.signature(), par_trace.signature());
        // Wall-clock counters (`*_us`) vary run to run; every discrete
        // counter must agree exactly.
        let discrete = |t: &eatss_trace::Trace| -> std::collections::BTreeMap<String, u64> {
            t.metrics
                .counters
                .iter()
                .filter(|(k, _)| !k.ends_with("_us"))
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        };
        prop_assert_eq!(discrete(&seq_trace), discrete(&par_trace));
        prop_assert!(seq_trace.check_balance().is_ok());
        prop_assert!(par_trace.check_balance().is_ok());
        if let (Ok(seq), Ok(par)) = (seq, par) {
            prop_assert_eq!(seq.points.len(), par.points.len());
        }
    }
}
