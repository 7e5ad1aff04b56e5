//! Fault-tolerance of the solve → compile → measure pipeline: anytime
//! solving under deadlines, graceful degradation to PPCG's default `32^d`
//! tiling, and deterministic fault injection in the GPU model.

use eatss::{
    Eatss, EatssConfig, EatssError, EvaluateError, PipelineError, PipelineStage,
    SolutionProvenance, SweepOptions,
};
use eatss_affine::interp::{Array, InterpError, Store};
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::{FaultKind, FaultPlan, Gpu, GpuArch};
use eatss_ppcg::{
    execute_compiled, CompileError, CompileOptions, ExecError, ExecOptions, OracleError, Ppcg,
};
use eatss_smt::{Domain, IntExpr, Solver, SolverConfig, StopReason};
use std::collections::HashSet;

fn mm() -> Program {
    parse_program(
        "kernel mm(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             C[i][j] += A[i][k] * B[k][j];
         }",
    )
    .unwrap()
}

/// The §IV-A matmul formulation (GA100, FP64, 50 % split) at an explicit
/// warp-alignment factor.
fn matmul_formulation(config: SolverConfig, waf: i64) -> (Solver, IntExpr) {
    let mut s = Solver::with_config(config);
    let cap = 12_288;
    let aligned = || Domain::from_values((1..=1024 / waf).map(|k| k * waf).collect());
    let ti = s.int_var_in("Ti", aligned());
    let tj = s.int_var_in("Tj", aligned());
    let tk = s.int_var_in("Tk", aligned());
    let bsize = ti.clone() * tj.clone();
    s.assert((bsize.clone() * IntExpr::constant(3) * IntExpr::constant(2)).le(65_536));
    s.assert((ti.clone() * tj.clone() + tk.clone() * tj.clone()).le(cap));
    s.assert((ti * tk).le(cap));
    let obj = bsize + IntExpr::constant(2 * 16) * tj;
    (s, obj)
}

#[test]
fn maximize_under_node_limit_is_anytime_on_matmul() {
    // Acceptance check: a budget that binds on the matmul formulation
    // returns a feasible model with `complete == false` rather than
    // erroring or blocking. The budget is a node count — the same on
    // every machine and in every build profile, unlike a wall-clock
    // deadline the search may or may not outrun: the waf=2 space (512
    // candidate values per variable) takes 208 nodes to prove optimal,
    // and its first models arrive within the first handful.
    let (mut s, obj) = matmul_formulation(
        SolverConfig {
            node_limit: 52,
            ..SolverConfig::default()
        },
        2,
    );
    let out = s.maximize(&obj).unwrap();
    assert!(!out.complete());
    assert_eq!(out.stop, Some(StopReason::NodeLimit));
    let m = out
        .model
        .as_ref()
        .expect("anytime: best-so-far model returned");
    // A model holds values, in the order the solver registered its names.
    let names: Vec<&str> = s.var_names().collect();
    assert_eq!(names, ["Ti", "Tj", "Tk"]);
    let [i, j, k] = m.values() else {
        panic!("one value per tile variable: {m:?}")
    };
    let (i, j, k) = (*i, *j, *k);
    assert!(i % 2 == 0 && j % 2 == 0 && k % 2 == 0);
    assert!(i * j * 6 <= 65_536);
    assert!(i * j + k * j <= 12_288);
    assert!(i * k <= 12_288);
    assert_eq!(out.best().unwrap(), i * j + 32 * j);
}

#[test]
fn fault_injected_sweep_exercises_all_provenances() {
    // One device, one policy, two sweeps: large sizes produce fully
    // solved (waf=16, at most 10 nodes each) and budget-truncated anytime
    // (waf=2, 102 and 67 nodes cold) points under a 25-node budget — a
    // count, so the split is the same on a loaded and an idle machine;
    // tiny sizes prove waf=32 infeasible and degrade to the 32^3
    // fallback — whose launch the fault plan poisons with NaNs.
    let plan = FaultPlan::new(42).force("mm(32, 32, 32)", FaultKind::NanReport);
    let eatss = Eatss::with_gpu(Gpu::with_faults(GpuArch::ga100(), plan));
    let opts = SweepOptions {
        attempts: vec![SolverConfig {
            node_limit: 25,
            ..SolverConfig::default()
        }],
        ..SweepOptions::default()
    };
    let program = mm();

    let large = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
    let out_large = eatss
        .sweep_with(&program, &large, &[0.5], &[0.5, 0.0625], &opts)
        .unwrap();
    assert_eq!(out_large.points.len(), 4);
    assert!(out_large.infeasible.is_empty() && out_large.failures.is_empty());

    let tiny = ProblemSizes::new([("M", 8), ("N", 8), ("P", 8)]);
    let out_tiny = eatss
        .sweep_with(&program, &tiny, &[0.5], &[1.0], &opts)
        .unwrap();
    assert_eq!(out_tiny.infeasible.len(), 2, "waf=32 proved infeasible");
    assert_eq!(
        out_tiny.points.len(),
        2,
        "both degrade to measurable fallbacks"
    );

    let provenances: HashSet<SolutionProvenance> = out_large
        .points
        .iter()
        .chain(&out_tiny.points)
        .map(|p| p.solution.provenance)
        .collect();
    assert!(
        provenances.contains(&SolutionProvenance::Solved),
        "{provenances:?}"
    );
    assert!(
        provenances.contains(&SolutionProvenance::SolvedIncomplete),
        "waf=2 under a 25-node budget must stay anytime: {provenances:?}"
    );
    assert!(
        provenances.contains(&SolutionProvenance::DefaultFallback),
        "{provenances:?}"
    );

    // Anytime points carry feasible (warp-aligned) tiles.
    for p in out_large
        .points
        .iter()
        .filter(|p| p.solution.provenance == SolutionProvenance::SolvedIncomplete)
    {
        assert!(p.solution.tiles.sizes().iter().all(|t| t % 2 == 0));
        assert!(p.report.valid);
    }

    // The forced NaN fault hit the fallback launches: the reports look
    // valid but every rate metric is poisoned...
    for p in &out_tiny.points {
        assert_eq!(p.solution.provenance, SolutionProvenance::DefaultFallback);
        assert_eq!(p.solution.tiles.sizes(), &[32, 32, 32]);
        assert!(p.report.valid);
        assert!(p.report.gflops.is_nan());
        assert!(p.report.energy_j.is_nan());
    }
    // ...and the best-point selectors skip them instead of panicking
    // (regression: `partial_cmp(..).expect(..)` used to panic on NaN).
    assert!(out_tiny.best_by_perf().is_none());
    assert!(out_tiny.best_by_energy().is_none());
}

#[test]
fn launch_faults_surface_as_measure_failures() {
    // Every launch fails: solved points and fallbacks alike are
    // unmeasurable, so the sweep reports a stage-attributed error
    // instead of panicking or returning an empty outcome.
    let plan = FaultPlan::new(7).with_rates(1.0, 0.0, 0.0);
    let eatss = Eatss::with_gpu(Gpu::with_faults(GpuArch::ga100(), plan));
    let program = mm();
    let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);

    let report = eatss.evaluate(
        &program,
        &eatss_affine::tiling::TileConfig::ppcg_default(3),
        &sizes,
        &EatssConfig::default(),
    );
    let e = report.unwrap_err();
    assert!(e.to_string().contains("measurement failed"), "{e}");
    assert_eq!(
        PipelineError::from_evaluate(e, "mm").stage(),
        PipelineStage::Measure
    );

    let err = eatss.sweep(&program, &sizes, &[0.5], &[0.5]).unwrap_err();
    match err {
        PipelineError::NoMeasurablePoint { attempted, .. } => assert_eq!(attempted, 2),
        other => panic!("expected NoMeasurablePoint, got {other}"),
    }
    assert_eq!(err.stage(), PipelineStage::Measure);
}

#[test]
fn nan_faults_never_panic_the_selectors() {
    // A 100 % NaN-fault device: the sweep completes, every report is
    // poisoned, and the throughput/energy selectors return None rather
    // than panicking. (PPW collapses to 0 because the power term is NaN,
    // so best_by_ppw still selects — but only among finite values.)
    let plan = FaultPlan::new(3).with_rates(0.0, 0.0, 1.0);
    let eatss = Eatss::with_gpu(Gpu::with_faults(GpuArch::ga100(), plan));
    let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
    let out = eatss.sweep(&mm(), &sizes, &[0.5], &[0.5]).unwrap();
    assert_eq!(out.points.len(), 2);
    assert!(out.points.iter().all(|p| p.report.gflops.is_nan()));
    assert!(out.best_by_perf().is_none());
    assert!(out.best_by_energy().is_none());
    if let Some(best) = out.best_by_ppw() {
        assert!(best.report.ppw.is_finite());
    }
}

#[test]
fn exhausted_ladder_degrades_instead_of_failing() {
    // Acceptance check: a sweep containing an unsolvable point
    // completes without panicking and yields a measurable DefaultFallback
    // point with 32^d tiles. Here *every* point is unsolvable because the
    // ladder's only rung has a zero node budget.
    let eatss = Eatss::new(GpuArch::ga100());
    let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
    let opts = SweepOptions {
        attempts: vec![SolverConfig {
            node_limit: 0,
            ..SolverConfig::default()
        }],
        ..SweepOptions::default()
    };
    let out = eatss
        .sweep_with(&mm(), &sizes, &[0.5], &[0.5], &opts)
        .unwrap();
    assert_eq!(out.points.len(), 2);
    for p in &out.points {
        assert_eq!(p.solution.provenance, SolutionProvenance::DefaultFallback);
        assert_eq!(p.solution.tiles.sizes(), &[32, 32, 32]);
        assert!(p.report.valid && p.report.ppw.is_finite());
    }
    assert_eq!(out.infeasible.len(), 2);
    assert!(out.best_by_ppw().is_some());
}

/// Subscript constants at the ends of `i64` are values like any other:
/// the analysis and the mapping never subtract them unchecked, so
/// selection and measurement answer without a panic in any build.
#[test]
fn extreme_subscript_offsets_never_overflow() {
    let eatss = Eatss::new(GpuArch::ga100());
    let config = EatssConfig::default();

    // MAX − (−MAX) is past `i64`: the pair counts as non-uniform, so `i`
    // is serial and there is no parallel dimension to select or map.
    let ovf = parse_program(
        "kernel ovf(N) {
           for (i: N) A[i + 9223372036854775807] = A[i - 9223372036854775807] + 1;
         }",
    )
    .unwrap();
    let sizes = ProblemSizes::new([("N", 1000)]);
    match eatss.select_tiles(&ovf, &sizes, &config) {
        Err(EatssError::Unsatisfiable { reason }) => {
            assert!(reason.contains("no parallel dimension"), "{reason}")
        }
        other => panic!("expected an unsatisfiable formulation, got {other:?}"),
    }
    let err = eatss
        .evaluate(&ovf, &TileConfig::ppcg_default(1), &sizes, &config)
        .unwrap_err();
    assert!(
        matches!(err, EvaluateError::Compile(CompileError::NoParallelDim(_))),
        "{err}"
    );

    // One cache-line group whose fastest offsets span the whole of
    // `i64`: the staging spread saturates and the point still measures.
    let spread = parse_program(
        "kernel spread(N, M) {
           for (i: N) for (j: M)
             B[i][j + 9223372036854775807] =
               A[i][j + 9223372036854775807] + A[i][j - 9223372036854775807];
         }",
    )
    .unwrap();
    let sizes = ProblemSizes::new([("N", 1000), ("M", 1000)]);
    let solution = eatss
        .select_tiles(&spread, &sizes, &config)
        .expect("both loops are parallel");
    for tiles in [solution.tiles.clone(), TileConfig::ppcg_default(2)] {
        eatss
            .evaluate(&spread, &tiles, &sizes, &config)
            .unwrap_or_else(|e| panic!("{tiles}: {e}"));
    }
    // The interpreter cannot hold an array that wide: verifying either
    // tiling is a typed error naming the array, in every build.
    let sizes = ProblemSizes::new([("N", 64), ("M", 64)]);
    let default = TileConfig::ppcg_default(2);
    let configs = [(&config, &solution.tiles), (&config, &default)];
    for verdict in eatss.verify(&spread, &sizes, &configs, 1) {
        match verdict {
            Err(OracleError::Interp(InterpError::ExtentOverflow(array))) => {
                assert!(array == "A" || array == "B", "{array}")
            }
            other => panic!("expected an extent overflow, got {other:?}"),
        }
    }
    // Host code declares that width saturated, and emission stays total.
    let compiled = Ppcg::new(GpuArch::ga100())
        .compile(&spread, &default, &sizes, &CompileOptions::default())
        .expect("emission is infallible");
    assert!(
        (compiled.cuda_source).contains("// [64][9223372036854775807]"),
        "{}",
        compiled.cuda_source
    );

    // Each extent of `A` fits `i64` but their product does not: the
    // interpreter refuses the array's element count as it refuses an
    // extent.
    let wide = parse_program(
        "kernel mm(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             C[i][j] += A[i][k + 4611686018427387904] * B[k][j];
         }",
    )
    .unwrap();
    let sizes = ProblemSizes::new([("M", 40), ("N", 40), ("P", 40)]);
    let default = TileConfig::ppcg_default(3);
    match &eatss.verify(&wide, &sizes, &[(&config, &default)], 1)[..] {
        [Err(OracleError::Interp(InterpError::ExtentOverflow(array)))] => assert_eq!(array, "A"),
        other => panic!("expected an element-count overflow, got {other:?}"),
    }

    // A store the caller built skips the interpreter's extent check: the
    // emulator's staged box of `A` is then past `i64` itself, a typed
    // error in every build.
    let near_max = parse_program(
        "kernel mm(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             C[i][j] += A[i][k + 9223372036854775806] * B[k][j];
         }",
    )
    .unwrap();
    let mappings = Ppcg::new(GpuArch::ga100())
        .compile(&near_max, &default, &sizes, &CompileOptions::default())
        .expect("maps")
        .mappings;
    let mut store = Store::new();
    for name in ["A", "B", "C"] {
        store.insert(name, Array::zeros(vec![40, 40]));
    }
    match execute_compiled(
        &near_max,
        &mappings,
        &sizes,
        &mut store,
        &ExecOptions::default(),
    ) {
        Err(ExecError::StagedBoxOverflow { kernel, array }) => {
            assert_eq!((kernel.as_str(), array.as_str()), ("mm", "A"))
        }
        other => panic!("expected a staged-box overflow, got {other:?}"),
    }
}
