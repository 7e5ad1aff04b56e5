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
use eatss_integration::load;
use eatss_kernels::Dataset;
use eatss_ppcg::{
    execute_compiled, seed_store, verify_sizes, CompileOptions, ExecEngine, ExecOptions, Ppcg,
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
        assert!(has(&names, cat, name), "missing span {cat}:{name} (got {names:?})");
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
        .compile(&program, &solution.tiles, &sz, &config.compile_options(&arch))
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

/// `exec.rows` tallies the plan engine's rows, so `exec.points` per row
/// reads how far each row's set-up is amortized. heat-3d under its EATSS
/// tiles (Xavier, warp fraction 1/8) at 13³ fuses each run of one-point
/// x-threads into one row; matmul's threads each own a serial k row, one
/// per serial tile step; the reference walker runs no rows at all.
#[test]
fn exec_rows_counts_one_per_plan_row() {
    let _guard = session();
    let rows_and_points = |program: &Program, tiles: Vec<i64>, sz: &ProblemSizes, engine| {
        let compiled = Ppcg::new(GpuArch::ga100())
            .compile(program, &TileConfig::new(tiles), sz, &CompileOptions::default())
            .expect("compiles");
        let mut store = seed_store(program, sz, 42).expect("seeds");
        let opts = ExecOptions {
            engine,
            ..ExecOptions::default()
        };
        eatss_trace::start_collecting();
        let stats = execute_compiled(program, &compiled.mappings, sz, &mut store, &opts)
            .expect("emulates");
        let trace = eatss_trace::drain(Provenance::collect(None));
        assert_eq!(trace.metrics.counter("exec.points"), stats.points);
        (trace.metrics.counter("exec.rows"), stats.points)
    };
    let (heat, full) = load("heat-3d", Dataset::Standard);
    let heat_sizes = verify_sizes(&heat, &full, 13, 3);
    assert_eq!(
        rows_and_points(&heat, vec![1, 4, 4, 64], &heat_sizes, ExecEngine::Plan),
        (1_014, 2 * 3 * 13 * 13 * 13)
    );
    let mm_sizes = sizes(9, 10, 7);
    assert_eq!(
        rows_and_points(&mm(), vec![4, 4, 4], &mm_sizes, ExecEngine::Plan),
        (9 * 10 * 2, 9 * 10 * 7)
    );
    assert_eq!(
        rows_and_points(&mm(), vec![4, 4, 4], &mm_sizes, ExecEngine::Reference),
        (0, 9 * 10 * 7)
    );
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
