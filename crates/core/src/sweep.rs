//! The EATSS configuration sweep: one solved + measured point per
//! (split factor × warp fraction) combination.
//!
//! §V-B generates three tile configurations per benchmark (three
//! shared-memory levels) and reports the best; §V-D widens the sweep with
//! warp fractions {0.125, 0.25, 0.5, 1.0} for high-dimensional kernels.
//! Infeasible combinations (empty solution spaces) are recorded, matching
//! the paper's "missing configurations".
//!
//! # Robustness
//!
//! A sweep is a measurement campaign, and campaigns must not die on one
//! bad point. Each configuration is solved through a retry ladder of
//! solver budgets ([`SweepOptions::attempts`]; by default one rung, 2 M
//! nodes and 10 s). When every rung runs out — or the formulation is
//! *proved* infeasible — the point degrades to PPCG's default `32^d`
//! tiling so it still yields a measurement, tagged
//! [`DefaultFallback`](crate::SolutionProvenance::DefaultFallback). Points
//! whose measurement itself fails land in [`SweepOutcome::failures`] with
//! full stage attribution. The sweep as a whole errors only when *no*
//! configuration produced a measurable point.

use crate::config::{EatssConfig, ThreadBlockCap};
use crate::error::PipelineError;
use crate::model::{EatssError, EatssSolution};
use crate::Eatss;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::SimReport;
use eatss_smt::{SolverConfig, WarmStart};
use std::time::Duration;

/// The shared-memory split levels of §V-B (0%, 50%, 67%).
pub const PAPER_SPLITS: [f64; 3] = [0.0, 0.5, 0.67];

/// The warp fractions of §V-D.
pub const PAPER_WARP_FRACTIONS: [f64; 4] = [0.125, 0.25, 0.5, 1.0];
// Each (split, fraction) point is additionally solved under both
// interpretations of the §IV-F thread-block bound (see
// [`ThreadBlockCap`]), and the measured best wins — mirroring how the
// paper generates a handful of candidate configurations per benchmark
// and keeps the best measured one.

/// Degradation policy for a sweep.
///
/// Two things are not options. A point that cannot be solved or measured
/// always degrades to PPCG's default `32^d` tiling. And the per-point
/// maximizations are always warm-started along chains (see
/// `warm_chains`): verdicts, objective values and optimality flags are
/// those of cold solves — a warm floor sits strictly below a feasible
/// objective value, so only provably-suboptimal subtrees are pruned — and
/// so are the tiles wherever the optimum is unique. Among tied optima a
/// warm solve may meet a different one first, and on a few full-objective
/// points it does: over 21 kernels × 5 builtin devices × seven uniform
/// sizes (64 to 4000) × four warp fractions × both caps, 23 of the 16 737
/// solved chain points return other tiles than a cold solve. Xavier gemm
/// at n = 128, warp fraction 0.5, split 0, virtual cap, is one
/// (`tests/warm_start_differential.rs` pins it). A point's tiles answer
/// the sweep, not a `select` of its configuration
/// (`warm_sweep_is_bit_identical_to_cold` pins a grid where they agree).
/// Each chain's hint sequence is fixed by the canonical configuration
/// list, chains never sharing state, so parallel and sequential sweeps
/// stay bit-identical even when search budgets bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// The retry ladder: solver budgets (node limit, deadline,
    /// cancellation) tried in order; a later rung runs only when the
    /// earlier ones are exhausted ([`EatssError::Exhausted`]). A *proved*
    /// infeasibility stops the ladder at once — a larger budget cannot
    /// revive an empty space.
    pub attempts: Vec<SolverConfig>,
    /// Worker threads for the sweep. `1` (the default) runs points
    /// sequentially on the caller's thread; `0` uses the machine's
    /// available parallelism. Results are identical regardless of the
    /// value: every point is solved and measured independently, and the
    /// outcome is merged in the canonical configuration order (splits ×
    /// fractions × caps), including which systemic error — if any — is
    /// reported.
    pub jobs: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            // Ample for every catalogue formulation (the largest takes a
            // few hundred nodes), bounded so a pathological point cannot
            // stall the campaign.
            attempts: vec![SolverConfig {
                node_limit: 2_000_000,
                deadline: Some(Duration::from_secs(10)),
                cancel: None,
            }],
            jobs: 1,
        }
    }
}

/// One solved and measured configuration.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The configuration knobs.
    pub config: EatssConfig,
    /// The tile selection the solver produced (see
    /// [`EatssSolution::provenance`] for how much to trust it).
    pub solution: EatssSolution,
    /// The simulated measurement of those tiles.
    pub report: SimReport,
}

/// All sweep results for one program.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Measured points — solved, anytime, or `32^d` fallbacks (check
    /// each point's provenance).
    pub points: Vec<SweepPoint>,
    /// Configurations whose formulation was proved unsatisfiable or
    /// stayed exhausted through the whole retry ladder (with reason).
    /// These configurations *also* appear in [`SweepOutcome::points`]
    /// under default tiling.
    pub infeasible: Vec<(EatssConfig, String)>,
    /// Configurations that produced no measurement at all — even the
    /// fallback failed — with stage-attributed errors.
    pub failures: Vec<(EatssConfig, PipelineError)>,
}

impl SweepOutcome {
    /// The point with the highest performance-per-watt (the paper's
    /// selection rule). Invalid reports and non-finite PPW values
    /// (e.g. a NaN from a corrupted measurement) are never selected.
    pub fn best_by_ppw(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.report.valid && p.report.ppw.is_finite())
            .max_by(|a, b| a.report.ppw.total_cmp(&b.report.ppw))
    }

    /// The point with the highest raw throughput.
    pub fn best_by_perf(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.report.valid && p.report.gflops.is_finite())
            .max_by(|a, b| a.report.gflops.total_cmp(&b.report.gflops))
    }

    /// The point with the lowest energy.
    pub fn best_by_energy(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.report.valid && p.report.energy_j.is_finite())
            .min_by(|a, b| a.report.energy_j.total_cmp(&b.report.energy_j))
    }

    /// The energy-vs-performance Pareto front: every measured point no
    /// other point *dominates*. Point `a` dominates `b` when it uses no
    /// more energy AND delivers no less throughput, strictly better in at
    /// least one of the two. Invalid reports and non-finite
    /// energy/throughput values never enter the front.
    ///
    /// The returned front is deterministic: sorted by ascending energy
    /// with ties broken by descending throughput, and when two points
    /// measure bit-identically on both axes only the first (in
    /// [`SweepOutcome::points`] order, i.e. canonical configuration
    /// order) is kept. Every caller — the fleet benchmarks, the serve
    /// daemon, the journal — therefore sees the same front for the same
    /// sweep.
    pub fn pareto_front(&self) -> Vec<&SweepPoint> {
        pareto_front(&self.points)
    }
}

/// Non-dominated subset of `points` under (energy minimized, throughput
/// maximized). See [`SweepOutcome::pareto_front`] for the exact
/// dominance and ordering contract.
pub fn pareto_front(points: &[SweepPoint]) -> Vec<&SweepPoint> {
    let mut eligible: Vec<&SweepPoint> = points
        .iter()
        .filter(|p| {
            p.report.valid && p.report.energy_j.is_finite() && p.report.gflops.is_finite()
        })
        .collect();
    // Ascending energy, descending throughput; stable, so bit-equal
    // measurements keep their canonical-order position and the
    // first-occurrence rule below is well defined.
    eligible.sort_by(|a, b| {
        a.report
            .energy_j
            .total_cmp(&b.report.energy_j)
            .then(b.report.gflops.total_cmp(&a.report.gflops))
    });
    // One sorted pass: a point survives iff it strictly improves on the
    // best throughput seen so far. Anything tying or below is dominated
    // by (or a duplicate of) an earlier point with no more energy.
    let mut front = Vec::new();
    let mut best_gflops = f64::NEG_INFINITY;
    for p in eligible {
        if p.report.gflops > best_gflops {
            best_gflops = p.report.gflops;
            front.push(p);
        }
    }
    front
}

/// Solves one configuration through the retry ladder. Retries only on
/// [`EatssError::Exhausted`]; every other error is definitive.
fn solve_with_retries(
    eatss: &Eatss,
    program: &Program,
    sizes: &ProblemSizes,
    config: &EatssConfig,
    options: &SweepOptions,
    warm: &mut WarmStart,
) -> Result<EatssSolution, EatssError> {
    let mut last = EatssError::Exhausted {
        reason: "retry ladder is empty".to_owned(),
    };
    for (rung, attempt) in options.attempts.iter().enumerate() {
        let mut span = eatss_trace::span("sweep", "solve_attempt");
        if span.is_active() {
            span.arg("rung", rung);
            span.arg("node_limit", attempt.node_limit);
            eatss_trace::counter_add("sweep.solve_attempts", 1);
        }
        let result = crate::ModelGenerator::new(eatss.arch(), config.clone())
            .with_solver_config(attempt.clone())
            .build(program, Some(sizes))
            .and_then(|model| model.solve_warm(warm));
        match result {
            Ok(solution) => {
                span.arg("outcome", "solved");
                return Ok(solution);
            }
            Err(e @ EatssError::Exhausted { .. }) => {
                span.arg("outcome", "exhausted");
                last = e;
            }
            Err(definitive) => {
                span.arg("outcome", "definitive_error");
                return Err(definitive);
            }
        }
    }
    Err(last)
}

/// Everything one configuration contributes to the sweep outcome.
/// Produced independently per point so the executor (sequential or
/// parallel) can merge contributions in canonical order.
struct PointContribution {
    point: Option<SweepPoint>,
    infeasible: Option<(EatssConfig, String)>,
    failures: Vec<(EatssConfig, PipelineError)>,
}

/// Solves and measures one configuration through the retry ladder and
/// fallback policy. `Err` means a systemic failure that would repeat at
/// every point (solver bugs, unbound parameters, empty programs).
fn process_point(
    eatss: &Eatss,
    program: &Program,
    sizes: &ProblemSizes,
    config: EatssConfig,
    options: &SweepOptions,
    index: usize,
    warm: &mut WarmStart,
) -> Result<PointContribution, PipelineError> {
    // Events for point `i` go to lane `i + 1` (lane 0 is the control
    // lane), so parallel and sequential sweeps drain to the same
    // canonically ordered event stream.
    let _lane = eatss_trace::lane_scope(index as u64 + 1);
    let mut span = eatss_trace::span("sweep", "point");
    if span.is_active() {
        span.arg("index", index);
        span.arg("split", config.split_factor);
        span.arg("warp_fraction", config.warp_fraction);
        span.arg("cap", format!("{:?}", config.cap));
        eatss_trace::counter_add("sweep.points", 1);
    }
    let context = format!(
        "{} @ split={} wfrac={} cap={:?}",
        program.name, config.split_factor, config.warp_fraction, config.cap
    );
    let mut infeasible = None;
    let mut failures = Vec::new();
    let solved = match solve_with_retries(eatss, program, sizes, &config, options, warm) {
        Ok(solution) => Some(solution),
        Err(e @ (EatssError::Unsatisfiable { .. } | EatssError::Exhausted { .. })) => {
            if eatss_trace::collecting() {
                eatss_trace::counter_add("sweep.infeasible", 1);
                eatss_trace::instant(
                    "sweep",
                    "infeasible",
                    vec![("reason", eatss_trace::ArgValue::Str(e.to_string()))],
                );
            }
            infeasible = Some((config.clone(), e.to_string()));
            None
        }
        Err(systemic) => {
            span.arg("error", systemic.to_string());
            return Err(PipelineError::from_eatss(systemic, context));
        }
    };
    // Measure the solved tiles; degrade to the default tiling when there
    // are none or their measurement fails.
    let mut measured = None;
    if let Some(solution) = solved {
        match eatss.evaluate(program, &solution.tiles, sizes, &config) {
            Ok(report) => measured = Some((solution, report)),
            Err(e) => {
                record_measure_failure(&e.to_string(), false);
                failures.push((
                    config.clone(),
                    PipelineError::from_evaluate(e, context.clone()),
                ));
            }
        }
    }
    if measured.is_none() {
        if eatss_trace::collecting() {
            eatss_trace::counter_add("sweep.fallbacks", 1);
            eatss_trace::instant("sweep", "fallback", Vec::new());
        }
        let fallback = EatssSolution::ppcg_default(program.max_depth());
        match eatss.evaluate(program, &fallback.tiles, sizes, &config) {
            Ok(report) => measured = Some((fallback, report)),
            Err(e) => {
                record_measure_failure(&e.to_string(), true);
                failures.push((
                    config.clone(),
                    PipelineError::from_evaluate(e, format!("{context} [fallback]")),
                ));
            }
        }
    }
    if span.is_active() {
        match &measured {
            Some((solution, report)) => {
                span.arg("provenance", format!("{:?}", solution.provenance));
                span.arg("tiles", solution.tiles.to_string());
                span.arg("valid", report.valid);
            }
            None => span.arg("provenance", "unmeasured"),
        }
    }
    Ok(PointContribution {
        point: measured.map(|(solution, report)| SweepPoint {
            config,
            solution,
            report,
        }),
        infeasible,
        failures,
    })
}

/// Records a measurement failure in the trace (no-op when disabled).
fn record_measure_failure(reason: &str, fallback: bool) {
    if eatss_trace::collecting() {
        eatss_trace::counter_add("sweep.measure_failures", 1);
        eatss_trace::instant(
            "sweep",
            "measure_failed",
            vec![
                ("reason", eatss_trace::ArgValue::Str(reason.to_string())),
                ("fallback", eatss_trace::ArgValue::Bool(fallback)),
            ],
        );
    }
}

/// The configurations a sweep solves, in its canonical order: splits ×
/// warp fractions × both thread-block caps.
pub fn grid(splits: &[f64], warp_fractions: &[f64]) -> Vec<EatssConfig> {
    let mut configs = Vec::with_capacity(splits.len() * warp_fractions.len() * 2);
    for &split in splits {
        for &frac in warp_fractions {
            for cap in [ThreadBlockCap::Virtual, ThreadBlockCap::Strict] {
                configs.push(EatssConfig {
                    split_factor: split,
                    warp_fraction: frac,
                    cap,
                    ..EatssConfig::default()
                });
            }
        }
    }
    configs
}

/// The body of [`Eatss::sweep_with`], which documents the contract.
pub(crate) fn run_with(
    eatss: &Eatss,
    program: &Program,
    sizes: &ProblemSizes,
    splits: &[f64],
    warp_fractions: &[f64],
    options: &SweepOptions,
) -> Result<SweepOutcome, PipelineError> {
    let configs = grid(splits, warp_fractions);
    let attempted = configs.len();
    let jobs = match options.jobs {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    };
    let mut span = eatss_trace::span("sweep", "run");
    if span.is_active() {
        span.arg("program", program.name.as_str());
        span.arg("configs", attempted);
        span.arg("jobs", jobs);
    }
    // The unit of scheduling is a warm-start chain: configurations
    // sharing a (warp fraction, cap) pair, ordered tightest-split-first.
    // A chain's hint sequence depends only on the canonical configuration
    // list, never on scheduling, so the parallel executor stays
    // bit-identical to the sequential one.
    let chains = warm_chains(&configs);
    // Chains run on a scoped pool (inline for one job); whatever order
    // they finished in, their points go back into canonical order.
    let mut contributions: Vec<_> = eatss_trace::par_map_ordered(&chains, jobs, |chain| {
        run_chain(eatss, program, sizes, &configs, chain, options)
    })
    .into_iter()
    .flatten()
    .collect();
    contributions.sort_by_key(|(index, _)| *index);
    // Merge in canonical order. The first systemic error (by canonical
    // index) aborts, exactly as the sequential loop would.
    let mut points = Vec::new();
    let mut infeasible = Vec::new();
    let mut failures = Vec::new();
    for (_, contribution) in contributions {
        let c = contribution?;
        points.extend(c.point);
        infeasible.extend(c.infeasible);
        failures.extend(c.failures);
    }
    if span.is_active() {
        span.arg("points", points.len());
        span.arg("infeasible", infeasible.len());
        span.arg("failures", failures.len());
    }
    if points.is_empty() {
        return Err(PipelineError::NoMeasurablePoint {
            attempted,
            context: program.name.clone(),
        });
    }
    Ok(SweepOutcome {
        points,
        infeasible,
        failures,
    })
}

/// Partitions canonical configuration indices into warm-start chains.
///
/// Indices sharing a (warp fraction, cap) pair — configurations that
/// differ only in the shared-memory split — form one chain sorted by
/// *descending* split factor: larger splits reserve more shared memory away from tiles, so
/// the tightest point solves first and its optimum is a feasible — and
/// near-optimal — hint for every looser sibling. Ties keep canonical
/// order (the sort is stable), so the partition is a pure function of
/// the configuration list.
fn warm_chains(configs: &[EatssConfig]) -> Vec<Vec<usize>> {
    let mut keyed: Vec<((u64, ThreadBlockCap), Vec<usize>)> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let key = (c.warp_fraction.to_bits(), c.cap);
        match keyed.iter_mut().find(|(k, _)| *k == key) {
            Some((_, chain)) => chain.push(i),
            None => keyed.push((key, vec![i])),
        }
    }
    let mut chains: Vec<Vec<usize>> = keyed.into_iter().map(|(_, chain)| chain).collect();
    for chain in &mut chains {
        chain.sort_by(|&a, &b| {
            configs[b]
                .split_factor
                .total_cmp(&configs[a].split_factor)
        });
    }
    chains
}

/// Processes one chain: points in chain order, each solved with the
/// hints accumulated from its predecessors (the accumulation order is
/// part of the contract). Returns each point's result with its canonical
/// index; no point is skipped on error — the merge step decides
/// (deterministically) which error wins.
fn run_chain(
    eatss: &Eatss,
    program: &Program,
    sizes: &ProblemSizes,
    configs: &[EatssConfig],
    chain: &[usize],
    options: &SweepOptions,
) -> Vec<(usize, Result<PointContribution, PipelineError>)> {
    let mut hints = WarmStart::new();
    chain
        .iter()
        .map(|&i| {
            let point = process_point(eatss, program, sizes, configs[i].clone(), options, i, &mut hints);
            (i, point)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SolutionProvenance;
    use eatss_affine::parser::parse_program;
    use eatss_gpusim::GpuArch;

    fn mm() -> Program {
        parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        )
        .unwrap()
    }

    #[test]
    fn paper_sweep_produces_points_and_best() {
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        let out = eatss
            .sweep(&mm(), &sizes, &PAPER_SPLITS, &[0.5])
            .unwrap();
        // All six configurations are feasible at this size: no fallbacks,
        // no bookkeeping entries.
        assert_eq!(out.points.len(), 6);
        assert!(out.infeasible.is_empty() && out.failures.is_empty());
        assert!(out
            .points
            .iter()
            .all(|p| p.solution.provenance != SolutionProvenance::DefaultFallback));
        let best = out.best_by_ppw().unwrap();
        assert!(best.report.valid);
        assert!(best.report.ppw > 0.0);
        // best-by-ppw is at least as good as every other point.
        for p in &out.points {
            assert!(best.report.ppw >= p.report.ppw);
        }
    }

    #[test]
    fn infeasible_fractions_degrade_to_fallback_points() {
        let eatss = Eatss::new(GpuArch::ga100());
        // Tiny problem: WAF=32 has no aligned tile below the extents.
        let sizes = ProblemSizes::new([("M", 8), ("N", 8), ("P", 8)]);
        let out = eatss
            .sweep(&mm(), &sizes, &[0.5], &[1.0, 0.125])
            .unwrap();
        // The two infeasible cap variants are recorded AND measurable via
        // the 32^d fallback, so every configuration yields a point.
        assert_eq!(out.infeasible.len(), 2);
        assert_eq!(out.points.len(), 4);
        assert!(out.failures.is_empty());
        let fallbacks: Vec<_> = out
            .points
            .iter()
            .filter(|p| p.solution.provenance == SolutionProvenance::DefaultFallback)
            .collect();
        assert_eq!(fallbacks.len(), 2);
        for p in &fallbacks {
            assert!((p.config.warp_fraction - 1.0).abs() < 1e-12);
            assert_eq!(p.solution.tiles.sizes(), &[32, 32, 32]);
            assert_eq!(p.solution.objective, 0);
            assert!(p.report.valid, "fallback points are measurable");
        }
        // The genuinely solved points carry full provenance.
        assert!(out
            .points
            .iter()
            .filter(|p| (p.config.warp_fraction - 0.125).abs() < 1e-12)
            .all(|p| p.solution.provenance == SolutionProvenance::Solved));
    }

    #[test]
    fn all_infeasible_still_yields_fallback_measurements() {
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 3), ("N", 3), ("P", 3)]);
        let out = eatss.sweep(&mm(), &sizes, &[0.5], &[1.0]).unwrap();
        assert_eq!(out.infeasible.len(), 2);
        assert_eq!(out.points.len(), 2);
        assert!(out
            .points
            .iter()
            .all(|p| p.solution.provenance == SolutionProvenance::DefaultFallback));
        assert!(out.best_by_ppw().is_some());
    }

    fn sweep_with(
        eatss: &Eatss,
        sizes: &ProblemSizes,
        opts: &SweepOptions,
    ) -> Result<SweepOutcome, PipelineError> {
        run_with(eatss, &mm(), sizes, &[0.5], &[1.0], opts)
    }

    #[test]
    fn exhausted_budget_retries_then_degrades() {
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        // A ladder whose every rung has a zero budget: each point stays
        // exhausted and must degrade to a measured fallback.
        let zero = SolverConfig {
            node_limit: 0,
            ..SolverConfig::default()
        };
        let opts = SweepOptions {
            attempts: vec![zero.clone()],
            ..SweepOptions::default()
        };
        let out = sweep_with(&eatss, &sizes, &opts).unwrap();
        assert_eq!(out.points.len(), 2);
        assert!(out
            .points
            .iter()
            .all(|p| p.solution.provenance == SolutionProvenance::DefaultFallback));
        assert_eq!(out.infeasible.len(), 2);
        assert!(out.infeasible[0].1.contains("budget exhausted"));
        // With an escalated second rung the same points solve fully.
        let out = sweep_with(
            &eatss,
            &sizes,
            &SweepOptions {
                attempts: vec![zero, SolverConfig::default()],
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(out
            .points
            .iter()
            .all(|p| p.solution.provenance == SolutionProvenance::Solved));
        assert!(out.infeasible.is_empty());
    }

    #[test]
    fn best_selectors_agree_on_validity() {
        let eatss = Eatss::new(GpuArch::xavier());
        let sizes = ProblemSizes::new([("M", 1024), ("N", 1024), ("P", 1024)]);
        let out = eatss.sweep(&mm(), &sizes, &PAPER_SPLITS, &[0.5]).unwrap();
        assert!(out.best_by_perf().is_some());
        assert!(out.best_by_energy().is_some());
        let e = out.best_by_energy().unwrap();
        for p in &out.points {
            assert!(e.report.energy_j <= p.report.energy_j);
        }
    }

    #[test]
    fn nan_reports_are_never_selected_as_best() {
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        let mut out = eatss.sweep(&mm(), &sizes, &[0.5], &[0.5]).unwrap();
        // Regression: a valid-looking report with NaN metrics used to
        // panic the `partial_cmp(..).expect(..)` selectors.
        let mut poisoned = out.points[0].clone();
        poisoned.report.ppw = f64::NAN;
        poisoned.report.gflops = f64::NAN;
        poisoned.report.energy_j = f64::NAN;
        out.points.push(poisoned);
        let best = out.best_by_ppw().expect("finite points remain selectable");
        assert!(best.report.ppw.is_finite());
        assert!(out.best_by_perf().unwrap().report.gflops.is_finite());
        assert!(out.best_by_energy().unwrap().report.energy_j.is_finite());
        // All-NaN outcomes select nothing rather than panicking.
        let all_nan = SweepOutcome {
            points: out
                .points
                .iter()
                .map(|p| {
                    let mut p = p.clone();
                    p.report.ppw = f64::NAN;
                    p.report.gflops = f64::NAN;
                    p.report.energy_j = f64::NAN;
                    p
                })
                .collect(),
            infeasible: vec![],
            failures: vec![],
        };
        assert!(all_nan.best_by_ppw().is_none());
        assert!(all_nan.best_by_perf().is_none());
        assert!(all_nan.best_by_energy().is_none());
    }

    /// Builds a synthetic measured point with the given energy/gflops
    /// coordinates (everything else defaulted) for Pareto tests.
    fn synthetic_point(energy_j: f64, gflops: f64, valid: bool) -> SweepPoint {
        let mut report = eatss_gpusim::SimReport::invalid("syn");
        report.valid = valid;
        report.energy_j = energy_j;
        report.gflops = gflops;
        SweepPoint {
            config: EatssConfig::default(),
            solution: EatssSolution::ppcg_default(3),
            report,
        }
    }

    #[test]
    fn pareto_front_matches_brute_force_dominance() {
        // A scatter with known structure: dominated interior points, a
        // duplicate, and strictly-improving frontier points.
        let coords = [
            (10.0, 100.0),
            (12.0, 90.0),  // dominated by (10, 100)
            (8.0, 80.0),
            (8.0, 80.0),   // bit-identical duplicate: first kept
            (9.0, 80.0),   // dominated by (8, 80)
            (5.0, 40.0),
            (5.0, 60.0),   // dominates (5, 40)
            (20.0, 120.0),
            (3.0, 10.0),
        ];
        let points: Vec<SweepPoint> = coords
            .iter()
            .map(|&(e, g)| synthetic_point(e, g, true))
            .collect();
        let outcome = SweepOutcome {
            points,
            infeasible: vec![],
            failures: vec![],
        };
        let front = outcome.pareto_front();
        // Brute-force oracle: a point is on the front iff no other point
        // dominates it (≤ energy, ≥ gflops, strict in one) and it is not
        // a later duplicate of a kept point.
        let expect: Vec<(f64, f64)> =
            vec![(3.0, 10.0), (5.0, 60.0), (8.0, 80.0), (10.0, 100.0), (20.0, 120.0)];
        let got: Vec<(f64, f64)> = front
            .iter()
            .map(|p| (p.report.energy_j, p.report.gflops))
            .collect();
        assert_eq!(got, expect);
        for f in &front {
            for p in &outcome.points {
                let dominates = p.report.energy_j <= f.report.energy_j
                    && p.report.gflops >= f.report.gflops
                    && (p.report.energy_j < f.report.energy_j
                        || p.report.gflops > f.report.gflops);
                assert!(!dominates, "front point is dominated");
            }
        }
        // Ordering contract: ascending energy, strictly increasing
        // throughput along the front.
        for w in front.windows(2) {
            assert!(w[0].report.energy_j <= w[1].report.energy_j);
            assert!(w[0].report.gflops < w[1].report.gflops);
        }
        // The duplicate pair contributed exactly one front point.
        assert_eq!(
            front
                .iter()
                .filter(|p| p.report.energy_j == 8.0 && p.report.gflops == 80.0)
                .count(),
            1
        );
    }

    #[test]
    fn pareto_front_excludes_invalid_and_non_finite_points() {
        let points = vec![
            synthetic_point(10.0, 100.0, true),
            synthetic_point(1.0, 500.0, false),     // invalid: would dominate all
            synthetic_point(f64::NAN, 200.0, true), // NaN energy
            synthetic_point(2.0, f64::INFINITY, true), // infinite throughput
            synthetic_point(4.0, 50.0, true),
        ];
        let outcome = SweepOutcome {
            points,
            infeasible: vec![],
            failures: vec![],
        };
        let got: Vec<(f64, f64)> = outcome
            .pareto_front()
            .iter()
            .map(|p| (p.report.energy_j, p.report.gflops))
            .collect();
        assert_eq!(got, vec![(4.0, 50.0), (10.0, 100.0)]);
        // An all-ineligible outcome yields an empty front, not a panic.
        let empty = SweepOutcome {
            points: vec![synthetic_point(f64::NAN, f64::NAN, true)],
            infeasible: vec![],
            failures: vec![],
        };
        assert!(empty.pareto_front().is_empty());
    }

    #[test]
    fn real_sweep_front_is_non_dominated_and_contains_the_extremes() {
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        let out = eatss.sweep(&mm(), &sizes, &PAPER_SPLITS, &[0.5]).unwrap();
        let front = out.pareto_front();
        assert!(!front.is_empty());
        // The energy and throughput optima are by definition
        // non-dominated, so both live on the front.
        let best_e = out.best_by_energy().unwrap();
        let best_g = out.best_by_perf().unwrap();
        assert!(front
            .iter()
            .any(|p| p.report.energy_j.to_bits() == best_e.report.energy_j.to_bits()));
        assert!(front
            .iter()
            .any(|p| p.report.gflops.to_bits() == best_g.report.gflops.to_bits()));
        // No measured point dominates any front point.
        for f in &front {
            for p in &out.points {
                if !p.report.valid {
                    continue;
                }
                assert!(
                    !(p.report.energy_j <= f.report.energy_j
                        && p.report.gflops >= f.report.gflops
                        && (p.report.energy_j < f.report.energy_j
                            || p.report.gflops > f.report.gflops))
                );
            }
        }
    }

    /// Structural equality of two sweep outcomes: same configurations in
    /// the same order, same tiles, same provenance, bit-identical
    /// measurements, and matching bookkeeping.
    fn assert_outcomes_identical(a: &SweepOutcome, b: &SweepOutcome) {
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.config, pb.config);
            assert_eq!(pa.solution.tiles.sizes(), pb.solution.tiles.sizes());
            assert_eq!(pa.solution.objective, pb.solution.objective);
            assert_eq!(pa.solution.provenance, pb.solution.provenance);
            assert_eq!(pa.report.ppw.to_bits(), pb.report.ppw.to_bits());
            assert_eq!(pa.report.gflops.to_bits(), pb.report.gflops.to_bits());
            assert_eq!(pa.report.energy_j.to_bits(), pb.report.energy_j.to_bits());
            assert_eq!(pa.report.valid, pb.report.valid);
        }
        assert_eq!(a.infeasible.len(), b.infeasible.len());
        for (ia, ib) in a.infeasible.iter().zip(&b.infeasible) {
            assert_eq!(ia.0, ib.0);
            assert_eq!(ia.1, ib.1);
        }
        assert_eq!(a.failures.len(), b.failures.len());
        for (fa, fb) in a.failures.iter().zip(&b.failures) {
            assert_eq!(fa.0, fb.0);
            assert_eq!(fa.1.to_string(), fb.1.to_string());
        }
    }

    #[test]
    fn warm_sweep_is_bit_identical_to_cold() {
        // Every point of the (always warm-started) sweep must carry
        // exactly the tiles and objective of a cold solve of the same
        // configuration — the warm floor only removes
        // provably-suboptimal search work.
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        let options = SweepOptions::default();
        let warm = run_with(&eatss, &mm(), &sizes, &PAPER_SPLITS, &[0.5, 1.0], &options).unwrap();
        assert_eq!(warm.points.len(), 12);
        let mut seeded = 0;
        for w in &warm.points {
            let cold = crate::ModelGenerator::new(eatss.arch(), w.config.clone())
                .with_solver_config(options.attempts[0].clone())
                .build(&mm(), Some(&sizes))
                .unwrap()
                .solve()
                .unwrap();
            assert_eq!(w.solution.tiles.sizes(), cold.tiles.sizes());
            assert_eq!(w.solution.objective, cold.objective);
            assert_eq!(w.solution.provenance, cold.provenance);
            // A seeded search never expands more nodes than its cold
            // twin (the floor only adds pruning).
            if w.solution.stats.warm_seeds > 0 {
                seeded += 1;
                assert!(w.solution.stats.nodes <= cold.stats.nodes);
            }
        }
        // The chains actually engaged: some later point found a feasible
        // hint and seeded its incumbent from it.
        assert!(seeded > 0, "no sweep point used a warm seed");
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        let sequential = run_with(
            &eatss,
            &mm(),
            &sizes,
            &PAPER_SPLITS,
            &[0.5, 1.0],
            &SweepOptions::default(),
        )
        .unwrap();
        for jobs in [2, 4, 0] {
            let parallel = run_with(
                &eatss,
                &mm(),
                &sizes,
                &PAPER_SPLITS,
                &[0.5, 1.0],
                &SweepOptions {
                    jobs,
                    ..SweepOptions::default()
                },
            )
            .unwrap();
            assert_outcomes_identical(&sequential, &parallel);
        }
    }

    #[test]
    fn parallel_sweep_preserves_fallback_bookkeeping() {
        // The mixed feasible/infeasible scenario must merge identically:
        // infeasible entries and fallback points in canonical order.
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 8), ("N", 8), ("P", 8)]);
        let sequential = run_with(
            &eatss,
            &mm(),
            &sizes,
            &[0.5],
            &[1.0, 0.125],
            &SweepOptions::default(),
        )
        .unwrap();
        let parallel = run_with(
            &eatss,
            &mm(),
            &sizes,
            &[0.5],
            &[1.0, 0.125],
            &SweepOptions {
                jobs: 3,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(parallel.infeasible.len(), 2);
        assert_outcomes_identical(&sequential, &parallel);
    }

    #[test]
    fn parallel_sweep_reports_the_sequential_systemic_error() {
        // An unbound problem size is a systemic failure at every point;
        // the parallel merge must surface the same (first-by-canonical-
        // order) error a sequential run aborts with.
        let eatss = Eatss::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000)]); // P unbound
        let sequential =
            run_with(&eatss, &mm(), &sizes, &[0.0, 0.5], &[0.5], &SweepOptions::default())
                .unwrap_err();
        let parallel = run_with(
            &eatss,
            &mm(),
            &sizes,
            &[0.0, 0.5],
            &[0.5],
            &SweepOptions {
                jobs: 4,
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(sequential.to_string(), parallel.to_string());
    }
}
