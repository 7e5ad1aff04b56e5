//! The EATSS model generator: affine program → non-linear integer
//! formulation → iteratively maximized tile sizes (§IV of the paper).

use crate::config::{EatssConfig, ThreadBlockCap};
use eatss_affine::analysis::AccessAnalysis;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_smt::{
    BoolExpr, Domain, IntExpr, MaximizeOutcome, SolveError, Solver, SolverConfig, SolverStats, StopReason,
    WarmStart,
};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// EATSS failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EatssError {
    /// The formulation has no solution (e.g. warp alignment exceeds a
    /// loop extent — §V-D's "missing configurations"). This is a *proof*:
    /// the search was exhaustive.
    Unsatisfiable {
        /// Explanation for diagnostics.
        reason: String,
    },
    /// A search budget (nodes, deadline, cancellation) ran out before any
    /// feasible model was found. Unlike [`EatssError::Unsatisfiable`]
    /// this proves nothing — retrying with a larger budget or a coarser
    /// domain may still succeed.
    Exhausted {
        /// Which budget ran out.
        reason: String,
    },
    /// The underlying solver failed.
    Solver(SolveError),
    /// A satisfiable maximization returned no objective value — an
    /// internal solver invariant violation, never expected.
    MissingObjective,
    /// A problem-size parameter was needed but unbound.
    UnboundParameter(String),
    /// The program has no kernels.
    EmptyProgram,
}

impl fmt::Display for EatssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EatssError::Unsatisfiable { reason } => {
                write!(f, "formulation is unsatisfiable: {reason}")
            }
            EatssError::Exhausted { reason } => {
                write!(f, "search budget exhausted before a model was found: {reason}")
            }
            EatssError::Solver(e) => write!(f, "solver failure: {e}"),
            EatssError::MissingObjective => write!(
                f,
                "satisfiable maximization returned no objective value \
                 (solver invariant violated)"
            ),
            EatssError::UnboundParameter(p) => {
                write!(f, "problem-size parameter `{p}` is unbound")
            }
            EatssError::EmptyProgram => write!(f, "program has no kernels"),
        }
    }
}

impl Error for EatssError {}

impl From<SolveError> for EatssError {
    fn from(e: SolveError) -> Self {
        EatssError::Solver(e)
    }
}

/// Where a tile selection came from — how much trust to put in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolutionProvenance {
    /// The solver proved the tiles optimal for the formulation.
    Solved,
    /// Anytime result: the tiles are feasible, but a search budget ran
    /// out before optimality was proved — they may be suboptimal.
    SolvedIncomplete,
    /// The solver produced nothing usable; these are PPCG's default
    /// `32^d` tiles, kept so the point is still measurable.
    DefaultFallback,
}

impl fmt::Display for SolutionProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolutionProvenance::Solved => write!(f, "solved"),
            SolutionProvenance::SolvedIncomplete => write!(f, "incomplete"),
            SolutionProvenance::DefaultFallback => write!(f, "fallback"),
        }
    }
}

/// A solved tile selection.
#[derive(Debug, Clone)]
pub struct EatssSolution {
    /// Selected tile sizes (one per program dimension; serial *time*
    /// dimensions are fixed at 1 — PPCG re-launches those).
    pub tiles: TileConfig,
    /// Final objective value (0 for a default fallback).
    pub objective: i64,
    /// Number of solver calls made by the §IV-L loop.
    pub solver_calls: u32,
    /// Wall-clock time spent solving.
    pub solve_time: Duration,
    /// Whether optimality was proved (final call exhausted the space).
    pub optimal: bool,
    /// How this selection was obtained.
    pub provenance: SolutionProvenance,
    /// Solver counters accumulated while producing this solution (all
    /// zeros for a default fallback): nodes, propagation/search time
    /// split, bound prunes — the raw material of the §V-G overhead study.
    pub stats: SolverStats,
}

impl EatssSolution {
    /// The graceful-degradation selection: PPCG's default `32^d` tiling
    /// for a `depth`-dimensional program (PPCG clips tiles to loop trip
    /// counts and handles serial time dimensions itself, so the flat
    /// default is always compilable).
    pub fn ppcg_default(depth: usize) -> Self {
        EatssSolution {
            tiles: TileConfig::ppcg_default(depth),
            objective: 0,
            solver_calls: 0,
            solve_time: Duration::ZERO,
            optimal: false,
            provenance: SolutionProvenance::DefaultFallback,
            stats: SolverStats::default(),
        }
    }
}

/// Switches that disable individual formulation components — used by the
/// ablation study to quantify what each §IV ingredient contributes.
/// All flags default to `false` (the full model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ablation {
    /// Drop the §IV-B warp-alignment constraint (`T % WAF == 0`).
    pub no_warp_alignment: bool,
    /// Drop the §IV-G register-per-SM constraint.
    pub no_register_constraint: bool,
    /// Drop the §IV-E/§IV-J L1 and shared-memory capacity constraints
    /// (the L2 bound remains).
    pub no_memory_constraints: bool,
    /// Drop the spatial-locality term `Σ H_i·T_i` of the §IV-K objective.
    pub no_spatial_term: bool,
    /// Drop the parallelism term `Π T_par` of the §IV-K objective.
    pub no_parallel_term: bool,
}

/// Builds formulations for programs on an architecture.
#[derive(Debug, Clone)]
pub struct ModelGenerator {
    arch: GpuArch,
    config: EatssConfig,
    ablation: Ablation,
    solver_config: SolverConfig,
}

/// A built formulation, ready to be maximized.
pub struct EatssModel {
    solver: Solver,
    tile_vars: Vec<Option<IntExpr>>,
    objective: IntExpr,
}

impl fmt::Debug for EatssModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EatssModel")
            .field("vars", &self.tile_vars.len())
            .finish_non_exhaustive()
    }
}

impl ModelGenerator {
    /// Creates a generator for an architecture and configuration.
    pub fn new(arch: &GpuArch, config: EatssConfig) -> Self {
        ModelGenerator {
            arch: arch.clone(),
            config,
            ablation: Ablation::default(),
            solver_config: SolverConfig::default(),
        }
    }

    /// Disables formulation components for an ablation study.
    pub fn with_ablation(mut self, ablation: Ablation) -> Self {
        self.ablation = ablation;
        self
    }

    /// Sets the solver limits (node budget, deadline, cancellation) used
    /// by the built model.
    pub fn with_solver_config(mut self, solver_config: SolverConfig) -> Self {
        self.solver_config = solver_config;
        self
    }

    /// Generates the formulation for a program.
    ///
    /// The formulation is *problem-size agnostic* when `sizes` is `None`
    /// (§IV-M); with sizes, tile upper bounds tighten to
    /// `min(T_P_B, N)` (§IV-B).
    ///
    /// # Errors
    ///
    /// See [`EatssError`].
    pub fn build(
        &self,
        program: &Program,
        sizes: Option<&ProblemSizes>,
    ) -> Result<EatssModel, EatssError> {
        if program.kernels.is_empty() {
            return Err(EatssError::EmptyProgram);
        }
        let depth = program.max_depth();
        let arch = &self.arch;
        let cfg = &self.config;
        let waf = cfg.warp_alignment_factor(arch);
        let elem = cfg.precision.elem_bytes() as i64;
        let fp_factor = cfg.precision.fp_factor();
        let tpb = arch.max_threads_per_block as i64;

        // Time-like dimensions (any kernel declares them serial) are not
        // tiled: PPCG re-launches per step.
        let mut is_time = vec![false; depth];
        for k in &program.kernels {
            for (d, dim) in k.dims.iter().enumerate() {
                if dim.explicit_serial {
                    is_time[d] = true;
                }
            }
        }

        // Per-dimension upper bound: min(T_P_B, N_d over kernels).
        let mut upper = vec![tpb; depth];
        if let Some(sizes) = sizes {
            for k in &program.kernels {
                for (d, ub) in upper.iter_mut().enumerate().take(k.depth()) {
                    let n = k
                        .trip_count(d, sizes)
                        .map_err(EatssError::UnboundParameter)?;
                    *ub = (*ub).min(n.max(1)).max(1);
                }
            }
        }

        // §IV-B: tile variables range over the warp-aligned candidates
        // `align, 2·align, … ≤ upper` — the domain is the presolve, so the
        // root probes `upper/align` values per variable, not `upper`. The
        // alignment constraint is still asserted below: it is the paper's
        // formulation, what `--emit-smt` prints and what the reference
        // engine and every leaf's exact check evaluate. An empty candidate
        // set (align > upper) is an honest unsatisfiability.
        let mut solver = Solver::with_config(self.solver_config.clone());
        let mut tile_vars: Vec<Option<IntExpr>> = Vec::with_capacity(depth);
        let align = if self.ablation.no_warp_alignment { 1 } else { waf };
        for d in 0..depth {
            if is_time[d] {
                tile_vars.push(None);
                continue;
            }
            let candidates: Vec<i64> = (1..=upper[d] / align).map(|k| k * align).collect();
            let t = solver.int_var_in(&format!("T{d}"), Domain::from_values(candidates));
            if !self.ablation.no_warp_alignment {
                solver.assert(t.modulo(waf).eq_expr(0));
            }
            tile_vars.push(Some(t));
        }
        let tile_of = |d: usize| -> IntExpr {
            tile_vars[d]
                .clone()
                .unwrap_or_else(|| IntExpr::constant(1))
        };

        // Capacities in elements (§IV-J: limits scaled by datatype width).
        let l1sh_elems = arch.l1_shared_bytes as i64 / elem;
        let l2_elems = arch.l2_bytes as i64 / elem;
        let l2_per_sm_elems = l2_elems / arch.sm_count as i64;
        let split = cfg.split_factor.clamp(0.0, 1.0);
        let cap_sh = (((l1sh_elems as f64) * split) as i64)
            .min(arch.max_shared_per_block as i64 / elem);
        let cap_l1 = ((l1sh_elems as f64) * (1.0 - split)) as i64;

        let mut objective = IntExpr::constant(0);
        for kernel in &program.kernels {
            let analysis = AccessAnalysis::analyze(kernel);
            let kd = kernel.depth();

            // §IV-F: B_size = product of (≤ 3) outer parallel tile sizes.
            let par_dims: Vec<usize> = (0..kd)
                .filter(|&d| analysis.parallel[d] && !is_time[d])
                .take(3)
                .collect();
            if par_dims.is_empty() {
                return Err(EatssError::Unsatisfiable {
                    reason: format!("kernel `{}` has no parallel dimension", kernel.name),
                });
            }
            let b_size = IntExpr::product(par_dims.iter().map(|&d| tile_of(d)));
            if cfg.cap == ThreadBlockCap::Strict {
                solver.assert(b_size.le(tpb));
            }

            // §IV-G + §IV-I: registers per SM.
            let no_refs = analysis.distinct_line_refs() as i64;
            if !self.ablation.no_register_constraint {
                let regs = b_size.clone() * IntExpr::constant(no_refs * fp_factor);
                solver.assert(regs.le(arch.regs_per_sm as i64));
            }

            // §IV-C volumes and §IV-E / §IV-J memory constraints.
            let volume = |g: &eatss_affine::analysis::RefGroup| -> IntExpr {
                IntExpr::product(
                    g.used_dims
                        .iter()
                        .copied()
                        .filter(|&d| !is_time[d])
                        .map(tile_of),
                )
            };
            let mut m_l1 = IntExpr::sum(analysis.l1_set().map(volume));
            let mut m_sh = IntExpr::sum(analysis.sh_set().map(volume));
            if cap_sh <= 0 {
                // No shared memory under this split: the SH_set falls back
                // to the hardware caches and counts against L1 instead.
                m_l1 = m_l1 + m_sh;
                m_sh = IntExpr::constant(0);
            } else if analysis.sh_set().next().is_some() && !self.ablation.no_memory_constraints {
                solver.assert(m_sh.clone().le(cap_sh));
            }
            if self.ablation.no_memory_constraints {
                // Ablated: only the L2 bound below survives.
            } else if split >= 1.0 {
                // §IV-H: all combined memory is shared; the L1 constraint
                // is replaced by the per-SM L2 share.
                solver.assert(m_l1.clone().le(l2_per_sm_elems));
            } else {
                solver.assert(m_l1.clone().le(cap_l1));
            }
            // L2 holds every reference's data tile.
            solver.assert((m_l1 + m_sh).le(l2_elems));

            // §IV-K objective: parallelism term + weighted spatial term.
            let h = analysis.h_weights(waf);
            let spatial = if self.ablation.no_spatial_term {
                IntExpr::constant(0)
            } else {
                IntExpr::sum(
                    h.iter()
                        .enumerate()
                        .filter(|&(d, &w)| w != 0 && !is_time[d])
                        .map(|(d, &w)| IntExpr::constant(w) * tile_of(d)),
                )
            };
            let parallelism = if self.ablation.no_parallel_term {
                IntExpr::constant(0)
            } else {
                b_size
            };
            objective = objective + parallelism + spatial;
        }

        Ok(EatssModel {
            solver,
            tile_vars,
            objective,
        })
    }
}

impl EatssModel {
    /// The formulation rendered as SMT-LIB 2 (for inspection or checking
    /// against an external solver).
    pub fn to_smtlib(&self) -> String {
        eatss_smt::to_smtlib(&self.solver, Some(&self.objective))
    }

    /// Decomposes the model into its solver and objective — for tools
    /// that drive the solver directly (e.g. the engine-comparison bench
    /// runs both the fast and the reference engine on the same
    /// formulation).
    pub fn into_parts(self) -> (Solver, IntExpr) {
        (self.solver, self.objective)
    }

    /// Maximizes the objective with the §IV-L loop and extracts tiles: a
    /// [`solve_warm`](EatssModel::solve_warm) with no hints.
    ///
    /// # Errors
    ///
    /// Returns [`EatssError::Unsatisfiable`] when no feasible tile
    /// assignment exists.
    pub fn solve(self) -> Result<EatssSolution, EatssError> {
        self.solve_warm(&mut WarmStart::new())
    }

    /// Like [`EatssModel::solve`], but seeds the branch-and-bound
    /// incumbent from `warm` (prior feasible models of *related*
    /// formulations) and records this solve's model back into it.
    ///
    /// When the search runs to completion the verdict, the objective
    /// value and the optimality flag are those of [`EatssModel::solve`] on
    /// the same formulation: a warm floor is always strictly below a
    /// feasible objective value, so it can only prune provably-suboptimal
    /// subtrees (see `eatss-smt`'s [`WarmStart`] docs for the full
    /// argument). The tiles are the same too whenever the optimum is
    /// unique. With equal-valued optima that differ in the objective's own
    /// variables a warm and a cold solve may each return a different one
    /// ([`EatssModel::has_other_optimum`] tells): mttkrp with the spatial
    /// term ablated, and a few full-objective sweep points — Xavier gemm at
    /// n = 128, warp fraction 0.5, split 0, virtual cap, solves to
    /// (80, 128, 16) along its warm chain and to (96, 112, 16) cold.
    /// `solver_calls` and the solver's work counters differ freely.
    ///
    /// # Errors
    ///
    /// Returns [`EatssError::Unsatisfiable`] when no feasible tile
    /// assignment exists.
    pub fn solve_warm(mut self, warm: &mut WarmStart) -> Result<EatssSolution, EatssError> {
        let mut span = eatss_trace::span("eatss", "solve");
        span.arg("warm_hints", warm.len() as u64);
        let started = Instant::now();
        let result = self
            .solver
            .maximize_warm(&self.objective, warm)
            .map_err(EatssError::from)
            .and_then(|outcome| {
                if let Some(model) = &outcome.model {
                    warm.observe(model);
                }
                self.into_solution(outcome, started)
            });
        finish_solve_span(&mut span, &result);
        result
    }

    /// Whether some *other* tile assignment attains `solution`'s objective
    /// value: one extra [`Solver::check`] of `OBJ == objective ∧ T ≠ tiles`
    /// on this (unsolved) formulation. When it does, the formulation does
    /// not determine the tiles — which of the tied optima a search returns
    /// is its tie-break, not a property of the model.
    ///
    /// # Errors
    ///
    /// [`EatssError::Exhausted`] when a search budget ran out before the
    /// question was settled.
    pub fn has_other_optimum(mut self, solution: &EatssSolution) -> Result<bool, EatssError> {
        let differs = self
            .tile_vars
            .iter()
            .zip(solution.tiles.sizes())
            .filter_map(|(var, &size)| Some(var.as_ref()?.eq_expr(size).not()));
        self.solver.assert(BoolExpr::any(differs));
        self.solver.assert(self.objective.eq_expr(solution.objective));
        let other = self.solver.check()?;
        match other.model {
            Some(_) => Ok(true),
            None if other.complete => Ok(false),
            None => Err(no_model_error(false, other.stop)),
        }
    }

    /// Extracts the tiles of a finished maximization.
    fn into_solution(
        self,
        outcome: MaximizeOutcome,
        started: Instant,
    ) -> Result<EatssSolution, EatssError> {
        let solve_time = started.elapsed();
        let Some(model) = outcome.model else {
            return Err(no_model_error(outcome.complete, outcome.stop));
        };
        // A model without an objective value would mean the maximize loop
        // lost track of what it measured — surface it, never mask it as 0.
        let objective = outcome.best.ok_or(EatssError::MissingObjective)?;
        let mut sizes = Vec::with_capacity(self.tile_vars.len());
        for v in &self.tile_vars {
            match v {
                Some(var) => sizes.push(model.eval(var)?),
                None => sizes.push(1),
            }
        }
        Ok(EatssSolution {
            tiles: TileConfig::new(sizes),
            objective,
            solver_calls: outcome.solver_calls,
            solve_time,
            optimal: outcome.complete,
            provenance: if outcome.complete {
                SolutionProvenance::Solved
            } else {
                SolutionProvenance::SolvedIncomplete
            },
            stats: self.solver.stats().clone(),
        })
    }
}

/// Attaches the solve outcome to an `eatss.solve` span.
fn finish_solve_span(
    span: &mut eatss_trace::Span,
    result: &Result<EatssSolution, EatssError>,
) {
    if !span.is_active() {
        return;
    }
    match result {
        Ok(solution) => {
            span.arg("tiles", solution.tiles.to_string());
            span.arg("objective", solution.objective);
            span.arg("solver_calls", solution.solver_calls);
            span.arg("optimal", solution.optimal);
            span.arg("provenance", format!("{:?}", solution.provenance));
        }
        Err(e) => span.arg("error", e.to_string()),
    }
}

/// Distinguishes a *proved* empty space from a budget that ran out before
/// any model was found.
fn no_model_error(complete: bool, stop: Option<StopReason>) -> EatssError {
    if complete {
        EatssError::Unsatisfiable {
            reason: "no tile assignment satisfies the resource constraints \
                     (try a smaller warp-alignment factor)"
                .to_owned(),
        }
    } else {
        EatssError::Exhausted {
            reason: stop
                .map(|s| s.to_string())
                .unwrap_or_else(|| "budget".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;
    use eatss_affine::parser::parse_program;

    fn matmul() -> Program {
        parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 Out[i][j] += In[i][k] * Ker[k][j];
             }",
        )
        .unwrap()
    }

    fn ga(config: EatssConfig) -> ModelGenerator {
        ModelGenerator::new(&GpuArch::ga100(), config)
    }

    #[test]
    fn paper_worked_example_matmul() {
        // §IV-A: GA100, FP64, 50% split, WAF=16 → the paper reports
        // Ti=16, Tj=384, Tk=16 with OBJ = Ti*Tj + 32*Tj.
        let model = ga(EatssConfig::default()).build(&matmul(), None).unwrap();
        let s = model.solve().unwrap();
        assert!(s.optimal);
        let t = s.tiles.sizes();
        // All warp-aligned.
        assert!(t.iter().all(|x| x % 16 == 0), "{t:?}");
        // The L1 constraint must be respected: Ti*Tj + Tk*Tj <= 12288.
        assert!(t[0] * t[1] + t[2] * t[1] <= 12_288, "{t:?}");
        // Shared memory: Ti*Tk <= 6144 (48 KiB / 8 B).
        assert!(t[0] * t[2] <= 6_144, "{t:?}");
        // Objective at least as good as the paper's solution.
        let paper_obj = 16 * 384 + 32 * 384;
        assert!(s.objective >= paper_obj, "objective {} < paper {paper_obj}", s.objective);
        // And the solution shape: Tj (the CMA dim) dominates.
        assert!(t[1] > t[0] && t[1] > t[2], "{t:?}");
        assert!(s.solver_calls >= 2);
    }

    #[test]
    fn strict_cap_bounds_block_product() {
        let cfg = EatssConfig {
            cap: ThreadBlockCap::Strict,
            ..EatssConfig::default()
        };
        let s = ga(cfg).build(&matmul(), None).unwrap().solve().unwrap();
        let t = s.tiles.sizes();
        assert!(t[0] * t[1] <= 1024, "{t:?}");
    }

    #[test]
    fn known_sizes_tighten_bounds() {
        let sizes = ProblemSizes::new([("M", 100), ("N", 100), ("P", 100)]);
        let s = ga(EatssConfig::default())
            .build(&matmul(), Some(&sizes))
            .unwrap()
            .solve()
            .unwrap();
        assert!(s.tiles.sizes().iter().all(|&t| t <= 100));
    }

    #[test]
    fn oversized_waf_is_unsatisfiable() {
        // §V-D: with loop extents below the alignment factor the space is
        // empty.
        let sizes = ProblemSizes::new([("M", 8), ("N", 8), ("P", 8)]);
        let err = ga(EatssConfig::default())
            .build(&matmul(), Some(&sizes))
            .unwrap()
            .solve()
            .unwrap_err();
        assert!(matches!(err, EatssError::Unsatisfiable { .. }));
    }

    #[test]
    fn smaller_warp_fraction_recovers_feasibility() {
        let sizes = ProblemSizes::new([("M", 8), ("N", 8), ("P", 8)]);
        let cfg = EatssConfig {
            warp_fraction: 0.125, // WAF = 4
            ..EatssConfig::default()
        };
        let s = ga(cfg)
            .build(&matmul(), Some(&sizes))
            .unwrap()
            .solve()
            .unwrap();
        assert!(s.tiles.sizes().iter().all(|&t| t % 4 == 0 && t <= 8));
    }

    #[test]
    fn fp32_allows_larger_volumes_than_fp64() {
        let f64_cfg = EatssConfig::default();
        let f32_cfg = EatssConfig {
            precision: Precision::F32,
            ..EatssConfig::default()
        };
        let s64 = ga(f64_cfg).build(&matmul(), None).unwrap().solve().unwrap();
        let s32 = ga(f32_cfg).build(&matmul(), None).unwrap().solve().unwrap();
        assert!(s32.objective >= s64.objective);
    }

    #[test]
    fn split_one_uses_l2_share_for_cached_refs() {
        let cfg = EatssConfig {
            split_factor: 1.0,
            ..EatssConfig::default()
        };
        let s = ga(cfg).build(&matmul(), None).unwrap().solve().unwrap();
        let t = s.tiles.sizes();
        // L2 per SM on GA100 = 40 MiB / 108 / 8 B ≈ 48545 elements.
        assert!(t[0] * t[1] + t[2] * t[1] <= 48_545, "{t:?}");
    }

    #[test]
    fn time_dims_are_fixed_to_one() {
        let p = parse_program(
            "kernel jac(T, N) {
               for seq (t: T) for (i: N) for (j: N)
                 B[i][j] = A[i][j-1] + A[i][j+1] + A[i][j];
             }",
        )
        .unwrap();
        let s = ga(EatssConfig::default()).build(&p, None).unwrap().solve().unwrap();
        assert_eq!(s.tiles.sizes()[0], 1);
        assert!(s.tiles.sizes()[1] % 16 == 0);
    }

    #[test]
    fn multi_kernel_program_shares_variables() {
        let p = parse_program(
            "kernel mm1(NI, NJ, NK) {
               for (i: NI) for (j: NJ) for (k: NK)
                 tmp[i][j] += A[i][k] * B[k][j];
             }
             kernel mm2(NI, NL, NJ) {
               for (i: NI) for (j: NL) for (k: NJ)
                 D[i][j] += tmp[i][k] * C[k][j];
             }",
        )
        .unwrap();
        let s = ga(EatssConfig::default()).build(&p, None).unwrap().solve().unwrap();
        assert_eq!(s.tiles.sizes().len(), 3);
        let t = s.tiles.sizes();
        // Both kernels' L1 constraints hold simultaneously.
        assert!(t[0] * t[1] + t[2] * t[1] <= 12_288);
    }

    #[test]
    fn empty_program_is_rejected() {
        let p = Program {
            name: "none".into(),
            kernels: vec![],
        };
        assert!(matches!(
            ga(EatssConfig::default()).build(&p, None),
            Err(EatssError::EmptyProgram)
        ));
    }

    #[test]
    fn ablations_relax_their_constraints() {
        use super::Ablation;
        // Small known sizes keep the unaligned search space tractable in
        // debug builds while still exercising every branch.
        let sizes = ProblemSizes::new([("M", 96), ("N", 96), ("P", 96)]);
        let solve_with = |ablation: Ablation| {
            ga(EatssConfig::default())
                .with_ablation(ablation)
                .build(&matmul(), Some(&sizes))
                .unwrap()
                .solve()
                .unwrap()
        };
        let full = solve_with(Ablation::default());
        // Without warp alignment, non-multiple tiles become available and
        // the objective can only improve.
        let no_align = solve_with(Ablation {
            no_warp_alignment: true,
            ..Ablation::default()
        });
        assert!(no_align.objective >= full.objective);
        // Without memory constraints the objective can only grow; at
        // sizes where the L1 bound binds (aligned tiles, N = 512) the
        // growth is strict.
        let no_mem = solve_with(Ablation {
            no_memory_constraints: true,
            ..Ablation::default()
        });
        assert!(no_mem.objective >= full.objective);
        let big = ProblemSizes::new([("M", 512), ("N", 512), ("P", 512)]);
        let solve_big = |ablation: Ablation| {
            ga(EatssConfig::default())
                .with_ablation(ablation)
                .build(&matmul(), Some(&big))
                .unwrap()
                .solve()
                .unwrap()
        };
        let full_big = solve_big(Ablation::default());
        let no_mem_big = solve_big(Ablation {
            no_memory_constraints: true,
            ..Ablation::default()
        });
        assert!(no_mem_big.objective > full_big.objective);
        // Dropping the parallelism term can only shrink the optimum.
        let no_par = solve_with(Ablation {
            no_parallel_term: true,
            ..Ablation::default()
        });
        assert!(no_par.objective <= full.objective);
    }

    #[test]
    fn smtlib_export_mentions_variables() {
        let model = ga(EatssConfig::default()).build(&matmul(), None).unwrap();
        let s = model.to_smtlib();
        assert!(s.contains("(declare-const T0 Int)"));
        assert!(s.contains("(maximize"));
        assert!(s.contains("mod T0 16"));
    }

    #[test]
    fn solver_overhead_is_subsecond_per_call() {
        // §V-G reports ~0.29 s per Z3 call; our stand-in should stay in
        // the same ballpark for the matmul formulation.
        let model = ga(EatssConfig::default()).build(&matmul(), None).unwrap();
        let s = model.solve().unwrap();
        assert!(
            s.solve_time.as_secs_f64() < 30.0,
            "solve took {:?}",
            s.solve_time
        );
    }

    #[test]
    fn full_solve_reports_solved_provenance() {
        let s = ga(EatssConfig::default())
            .build(&matmul(), None)
            .unwrap()
            .solve()
            .unwrap();
        assert!(s.optimal);
        assert_eq!(s.provenance, SolutionProvenance::Solved);
    }

    #[test]
    fn exhausted_budget_is_not_unsatisfiable() {
        // A zero node budget can never *prove* anything: the error must
        // say "ran out", not "no solution exists".
        let err = ga(EatssConfig::default())
            .with_solver_config(SolverConfig {
                node_limit: 0,
                ..SolverConfig::default()
            })
            .build(&matmul(), None)
            .unwrap()
            .solve()
            .unwrap_err();
        assert!(matches!(err, EatssError::Exhausted { .. }), "{err}");
        assert!(err.to_string().contains("node limit"), "{err}");
    }

    /// Each tile variable's declared domain, in dimension order.
    fn tile_domains(model: &EatssModel) -> Vec<Vec<i64>> {
        model
            .tile_vars
            .iter()
            .flatten()
            .map(|t| {
                let mut var = Vec::new();
                t.collect_vars(&mut var);
                model.solver.domain_of(var[0]).expect("own variable").values().to_vec()
            })
            .collect()
    }

    #[test]
    fn tile_variables_range_over_the_aligned_candidates() {
        // §IV-B: T_d ∈ {WAF, 2·WAF, …} ≤ min(T_P_B, N_d) — as a domain (the
        // presolve) *and* as the asserted constraint (the formulation).
        let gemm = eatss_kernels::by_name("gemm").unwrap();
        let program = gemm.program().unwrap();
        // 200 is no multiple of 16 and clips below T_P_B; XL does not clip.
        for sizes in [gemm.sizes(eatss_kernels::Dataset::ExtraLarge), gemm.sizes_uniform(200)] {
            for device in eatss_gpusim::DeviceProfile::builtin_names() {
                let arch = eatss_gpusim::DeviceProfile::builtin(device).unwrap().into_arch();
                for warp_fraction in [0.5, 0.125] {
                    let config = EatssConfig { warp_fraction, ..EatssConfig::default() };
                    let waf = config.warp_alignment_factor(&arch);
                    let uppers: Vec<i64> = (0..3)
                        .map(|d| {
                            let n = program.kernels[0].trip_count(d, &sizes).unwrap();
                            n.min(arch.max_threads_per_block as i64)
                        })
                        .collect();
                    let expect = |keep: &dyn Fn(i64) -> bool| -> Vec<Vec<i64>> {
                        uppers.iter().map(|&u| (1..=u).filter(|&t| keep(t)).collect()).collect()
                    };
                    let generator = ModelGenerator::new(&arch, config);
                    let what = format!("{device}, warp fraction {warp_fraction}, uppers {uppers:?}");

                    let model = generator.build(&program, Some(&sizes)).unwrap();
                    assert_eq!(tile_domains(&model), expect(&|t| t % waf == 0), "{what}");
                    let aligned = format!("((T0 mod {waf}) == 0)");
                    let asserted: Vec<String> =
                        model.solver.assertions().map(ToString::to_string).collect();
                    assert!(asserted.contains(&aligned), "{what}: `{aligned}` not in {asserted:?}");

                    let unaligned = generator
                        .with_ablation(Ablation { no_warp_alignment: true, ..Ablation::default() })
                        .build(&program, Some(&sizes))
                        .unwrap();
                    assert_eq!(tile_domains(&unaligned), expect(&|_| true), "{what}");
                }
            }
        }
    }

    #[test]
    fn extent_below_the_alignment_is_refuted_without_search() {
        // N < WAF: the candidate set is empty, and the root propagation
        // proves it — no node is opened.
        let sizes = ProblemSizes::new([("M", 8), ("N", 64), ("P", 64)]);
        let model = ga(EatssConfig::default()).build(&matmul(), Some(&sizes)).unwrap();
        assert_eq!(tile_domains(&model)[0], Vec::<i64>::new());
        let (mut solver, objective) = model.into_parts();
        let outcome = solver.maximize(&objective).unwrap();
        assert!(outcome.model.is_none() && outcome.complete);
        assert_eq!(solver.stats().nodes, 0);
    }

    #[test]
    fn ppcg_default_solution_shape() {
        let s = EatssSolution::ppcg_default(3);
        assert_eq!(s.tiles.sizes(), &[32, 32, 32]);
        assert_eq!(s.objective, 0);
        assert!(!s.optimal);
        assert_eq!(s.provenance, SolutionProvenance::DefaultFallback);
        assert_eq!(s.provenance.to_string(), "fallback");
    }
}
