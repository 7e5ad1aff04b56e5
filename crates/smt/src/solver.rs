//! The constraint solver's public API: variables, assertions, and the
//! paper's iterative maximization loop.
//!
//! The search itself lives in the `search` module (trail-based DFS with
//! worklist propagation, one-pass branch-and-bound and monotone cuts); the
//! pre-rewrite engine is retained in [`crate::reference`] for differential
//! testing.

use crate::domain::Domain;
use crate::expr::{BoolExpr, IntExpr, VarId};
use crate::interval::Interval;
use crate::model::Model;
use crate::search::{holds_at, value_at, Pass, Search, SearchMode};
use crate::stats::SolverStats;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors reported by the solver and by model evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// An expression mentions a variable not registered with this solver.
    UnknownVariable(String),
    /// The value depends on a `div` or `mod` whose divisor evaluated to
    /// zero.
    DivisionByZero,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::UnknownVariable(name) => {
                write!(f, "expression mentions unregistered variable `{name}`")
            }
            SolveError::DivisionByZero => write!(f, "division by zero during evaluation"),
        }
    }
}

impl Error for SolveError {}

/// Why a search stopped before exhausting the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The per-call node budget was exhausted.
    NodeLimit,
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was triggered from outside.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::NodeLimit => write!(f, "node limit"),
            StopReason::Deadline => write!(f, "deadline"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A shareable flag that aborts an in-flight search cooperatively.
///
/// Clone the token, hand one copy to [`SolverConfig::cancel`], and call
/// [`CancelToken::cancel`] from another thread (or a signal handler) to
/// stop the search at the next budget checkpoint. The solver reports the
/// interruption as `complete = false` with [`StopReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of every search holding this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Tunable limits for the search.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum search-tree nodes per `check` call before giving up
    /// (`complete = false` in the result).
    pub node_limit: u64,
    /// Wall-clock budget for one [`Solver::check`] or one whole
    /// [`Solver::maximize`] / [`Solver::maximize_warm`], which then
    /// returns its best-so-far model with `complete = false` (anytime
    /// solving).
    pub deadline: Option<Duration>,
    /// Cooperative cancellation flag, checked at the same cadence as the
    /// deadline.
    pub cancel: Option<CancelToken>,
}

impl PartialEq for SolverConfig {
    fn eq(&self, other: &Self) -> bool {
        let token_eq = match (&self.cancel, &other.cancel) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(&a.0, &b.0),
            _ => false,
        };
        self.node_limit == other.node_limit && self.deadline == other.deadline && token_eq
    }
}

impl Eq for SolverConfig {}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_limit: 2_000_000,
            deadline: None,
            cancel: None,
        }
    }
}

/// Result of a [`Solver::check`] call.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// A satisfying assignment, if one was found.
    pub model: Option<Model>,
    /// `true` if the search was exhaustive: a `None` model then proves
    /// unsatisfiability. `false` means a budget was exhausted (see
    /// [`SolveResult::stop`]).
    pub complete: bool,
    /// Why the search stopped early, when `complete` is `false`.
    pub stop: Option<StopReason>,
}

/// Result of a [`Solver::maximize`] call.
#[derive(Debug, Clone)]
pub struct MaximizeOutcome {
    /// The best model found (none if the constraints are unsatisfiable).
    pub model: Option<Model>,
    /// Objective value of [`MaximizeOutcome::model`].
    pub best: Option<i64>,
    /// The objective value of every incumbent the search took, in order:
    /// strictly increasing, the last equal to [`MaximizeOutcome::best`].
    /// Each is one satisfiable `check` of the paper's §IV-L loop (a warm
    /// floor is not an incumbent — no model was found at it).
    pub incumbents: Vec<i64>,
    /// Number of `check` calls the §IV-L loop would perform for this
    /// improvement sequence: one per incumbent plus the final
    /// unsatisfiable one.
    pub solver_calls: u32,
    /// `true` if no budget interrupted the search: the model is proved
    /// optimal, or its absence proves unsatisfiability. `false` means the
    /// outcome is *anytime*: the model (if any) is feasible but possibly
    /// suboptimal, and a `None` model does not prove unsatisfiability.
    pub complete: bool,
    /// Why the loop stopped early, when `complete` is `false`.
    pub stop: Option<StopReason>,
}

/// Reusable warm-start state for [`Solver::maximize_warm`]: the models of
/// previous maximizations over *structurally similar* formulations (e.g.
/// the sweep points of one kernel, which share every constraint except
/// tile bounds).
///
/// A hint is only ever used after being re-validated against the current
/// formulation — each hinted value must lie in its variable's base domain
/// and the full assignment must satisfy every asserted constraint exactly
/// (the search's own leaf check: interval evaluation on the hint's
/// singleton hulls, as [`Model::eval_bool`] reads a model). A feasible
/// hint with objective value `v` proves `v` is achievable, so the
/// branch-and-bound incumbent can start at `v - 1` instead of at "nothing
/// yet": subtrees whose objective hull
/// cannot exceed `v - 1` are cut before any propagation is paid for.
/// Because `v ≤ optimum`, no subtree containing an optimum-valued leaf is
/// ever cut, so warm starting never changes the verdict, the optimal
/// objective value or the optimality flag — only how much work is pruned.
/// The returned *model* is the cold search's whenever the optimum is
/// unique. When several assignments attain it the two searches may meet
/// different ones first: a variable the objective does not mention is
/// settled by the value order alone (largest first), the same either way,
/// but among the objective's variables the variable order follows the
/// filtered domain sizes, and those depend on the incumbent each node was
/// filtered under. (On EATSS formulations: over the 32-point sweep grid on
/// the five builtin devices 862 of the 2 954 feasible full-objective
/// formulations have tied optima — gemm's `Tk` under the strict cap — and
/// a solve seeded with its own optimum agrees with the cold one on every
/// one. Seeded along a sweep's warm chain instead, a few do not: Xavier
/// gemm at n = 128, warp fraction 0.5, split 0 returns (80, 128, 16)
/// after the splits 0.67 and 0.5, and (96, 112, 16) cold. mttkrp with the
/// spatial term ablated, `Π T` alone, differs even self-seeded.
/// `tests/warm_start_differential.rs` pins both cases.) Stale, foreign, or
/// infeasible hints are silently skipped, so sharing one handle across
/// threads (even racily snapshotted) is sound.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Most-recent-last ring of full variable assignments, stored by name
    /// so they survive re-built solvers with the same variable layout.
    hints: Vec<Vec<(String, i64)>>,
}

impl WarmStart {
    /// Hints retained; older ones are evicted first.
    pub const MAX_HINTS: usize = 8;

    /// An empty handle (the first maximize through it runs cold).
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Records a solved model as a hint for future maximizations.
    /// Duplicate assignments are not stored twice.
    pub fn observe(&mut self, model: &Model) {
        let bindings: Vec<(String, i64)> = model
            .bindings()
            .map(|(n, v)| (n.to_owned(), v))
            .collect();
        if self.hints.contains(&bindings) {
            return;
        }
        if self.hints.len() == Self::MAX_HINTS {
            self.hints.remove(0);
        }
        self.hints.push(bindings);
    }

    /// Number of retained hints.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// Whether no hints are retained.
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }
}

/// A finite-domain non-linear integer constraint solver.
///
/// See the [crate docs](crate) for the role this plays in the EATSS
/// reproduction and a worked example.
#[derive(Debug)]
pub struct Solver {
    names: Vec<String>,
    base_domains: Vec<Domain>,
    constraints: Vec<(BoolExpr, Vec<VarId>)>,
    stats: SolverStats,
    config: SolverConfig,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with default limits.
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with explicit limits.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            names: Vec::new(),
            base_domains: Vec::new(),
            constraints: Vec::new(),
            stats: SolverStats::default(),
            config,
        }
    }

    /// Registers an integer variable ranging over `[lo, hi]` and returns an
    /// expression handle for it.
    ///
    /// An inverted range (`lo > hi`) yields an empty domain, making the
    /// whole problem unsatisfiable — mirroring Z3's behaviour when bounds
    /// conflict.
    pub fn int_var(&mut self, name: &str, lo: i64, hi: i64) -> IntExpr {
        self.int_var_in(name, Domain::range(lo, hi))
    }

    /// Registers an integer variable with an explicit candidate set.
    pub fn int_var_in(&mut self, name: &str, domain: Domain) -> IntExpr {
        let id = VarId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.base_domains.push(domain);
        IntExpr::var(id, name)
    }

    /// Adds a constraint.
    pub fn assert(&mut self, constraint: BoolExpr) {
        let mut vars = Vec::new();
        constraint.collect_vars(&mut vars);
        self.constraints.push((constraint, vars));
    }

    /// Accumulated search statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The constraints currently asserted, in assertion order.
    pub fn assertions(&self) -> impl Iterator<Item = &BoolExpr> + '_ {
        self.constraints.iter().map(|(c, _)| c)
    }

    /// Registered variable names in registration order.
    pub fn var_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.names.iter().map(String::as_str)
    }

    /// Domain of a registered variable, if `var` belongs to this solver.
    pub fn domain_of(&self, var: VarId) -> Option<&Domain> {
        self.base_domains.get(var.index())
    }

    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    pub(crate) fn base_domains(&self) -> &[Domain] {
        &self.base_domains
    }

    pub(crate) fn constraint_entries(&self) -> &[(BoolExpr, Vec<VarId>)] {
        &self.constraints
    }

    pub(crate) fn validate(&self) -> Result<(), SolveError> {
        for (c, vars) in &self.constraints {
            for v in vars {
                if v.index() >= self.names.len() {
                    return Err(SolveError::UnknownVariable(format!(
                        "var#{} in `{}`",
                        v.index(),
                        c
                    )));
                }
            }
        }
        Ok(())
    }

    /// Decides satisfiability of the asserted constraints.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::UnknownVariable`] if a constraint references a
    /// variable from another solver.
    pub fn check(&mut self) -> Result<SolveResult, SolveError> {
        let found = self.search(SearchMode::Satisfy)?;
        Ok(SolveResult {
            model: found.model,
            complete: found.complete,
            stop: found.stop,
        })
    }

    /// Maximizes `objective` with the paper's §IV-L improvement semantics
    /// as one-pass branch-and-bound: one exhaustive search in which every
    /// improving leaf becomes the new *incumbent* and the search simply
    /// continues — nothing restarts, and each ancestor of the leaf
    /// re-filters its own level under the new incumbent before trying its
    /// next candidate — so every subtree is refuted once and exhausting
    /// the tree proves optimality. Inside the search the incumbent acts as
    /// a virtual `objective > best` constraint: it filters domain values
    /// in propagation, cuts subtrees whose interval upper bound cannot
    /// beat it before any propagation is paid for (counted in
    /// [`SolverStats::bound_prunes`]), and is verified exactly at every
    /// candidate leaf. Constraints and objectives that are monotone in a
    /// variable — every EATSS capacity constraint and the objective itself
    /// — are filtered by bisecting the sorted domain for the cut instead
    /// of probing each value; the filtered domain is the same. Optima are
    /// identical to the paper's asserted-constraint loop (the retained
    /// [`crate::reference`] engine); among several equal-valued optima the
    /// one returned is the first met under the unchanged branching order.
    /// [`MaximizeOutcome::incumbents`] is the improvement sequence, and
    /// [`MaximizeOutcome::solver_calls`] its length plus one: the number
    /// of `check` calls the §IV-L loop would have made for it, the n-th
    /// resuming where the (n−1)-th stopped instead of starting over.
    ///
    /// # Errors
    ///
    /// Propagates [`Solver::check`] errors.
    pub fn maximize(&mut self, objective: &IntExpr) -> Result<MaximizeOutcome, SolveError> {
        self.search(SearchMode::Optimize {
            objective,
            floor: None,
        })
    }

    /// [`Solver::maximize`] seeded from previous solutions of structurally
    /// similar formulations. Each hint in `warm` is re-validated against
    /// *this* solver's base domains and asserted constraints; the best
    /// feasible hint value `v` seeds the branch-and-bound incumbent at
    /// `v - 1`, so the search starts with the pruning power a cold run
    /// only earns after climbing to `v` itself. The verdict, the optimal
    /// objective value and the optimality flag are those of a cold
    /// [`Solver::maximize`], and so is the model whenever the optimum is
    /// unique (see [`WarmStart`] for the argument and the tie case);
    /// [`MaximizeOutcome::solver_calls`] (improvements actually taken) and
    /// the work counters shrink. Hints used/validated are counted in
    /// [`SolverStats::warm_seeds`] / [`SolverStats::warm_cut_hits`].
    ///
    /// On success the returned model is *not* auto-recorded; call
    /// [`WarmStart::observe`] with it to extend the hint set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Solver::maximize`].
    pub fn maximize_warm(
        &mut self,
        objective: &IntExpr,
        warm: &WarmStart,
    ) -> Result<MaximizeOutcome, SolveError> {
        let floor = self.warm_floor(objective, warm);
        self.search(SearchMode::Optimize { objective, floor })
    }

    /// Best feasible hint value minus one, or `None` when no hint survives
    /// re-validation. Hints missing a variable of this solver, binding a
    /// value outside its base domain, violating any asserted constraint,
    /// or failing to evaluate are skipped — never trusted.
    fn warm_floor(&mut self, objective: &IntExpr, warm: &WarmStart) -> Option<i64> {
        let mut best: Option<i64> = None;
        let mut hits = 0u64;
        'hints: for hint in &warm.hints {
            let mut point = Vec::with_capacity(self.names.len());
            for (name, domain) in self.names.iter().zip(&self.base_domains) {
                let Some(&(_, v)) = hint.iter().find(|(n, _)| n == name) else {
                    continue 'hints;
                };
                if !domain.contains(v) {
                    continue 'hints;
                }
                point.push(Interval::singleton(v));
            }
            if !holds_at(&self.constraints, &point) {
                continue 'hints;
            }
            let Some(v) = value_at(objective, &point) else {
                continue 'hints;
            };
            hits += 1;
            best = Some(best.map_or(v, |b: i64| b.max(v)));
        }
        self.stats.warm_cut_hits += hits;
        let floor = best.map(|v| v.saturating_sub(1));
        if floor.is_some() {
            self.stats.warm_seeds += 1;
        }
        floor
    }

    /// The one search driver: [`Solver::check`] runs it as an `smt:check`
    /// span, the maximizers as `smt:maximize`. Each pass builds one
    /// [`Search`] — so [`SolverStats::hull_rebuilds`] equals
    /// [`SolverStats::checks`] unless a budget was already spent on entry
    /// — against a deadline fixed once at entry. A `Satisfy` pass reports
    /// its model with no `best` and one solver call.
    fn search(&mut self, mode: SearchMode<'_>) -> Result<MaximizeOutcome, SolveError> {
        self.validate()?;
        let (name, maximizing, floor) = match mode {
            SearchMode::Satisfy => ("check", false, None),
            SearchMode::Optimize { floor, .. } => ("maximize", true, floor),
        };
        let mut span = eatss_trace::span("smt", name);
        let stats_before = span.is_active().then(|| self.stats.clone());
        if let Some(f) = floor {
            span.arg("warm_floor", f);
        }
        let deadline_at = self.config.deadline.map(|d| Instant::now() + d);
        let started = Instant::now();
        self.stats.checks += 1;
        let propagation_before = self.stats.propagation_time;
        let pre_stop = budget_stop(deadline_at, self.config.cancel.as_ref());
        let searched = pre_stop.is_none();
        let Pass {
            values,
            incumbents,
            stop,
        } = if searched {
            Search::new(
                &self.base_domains,
                &self.constraints,
                &self.config,
                &mut self.stats,
                deadline_at,
                mode,
            )
            .run()
        } else {
            Pass {
                stop: pre_stop,
                ..Pass::default()
            }
        };
        match stop {
            Some(StopReason::NodeLimit) => self.stats.node_limit_hits += 1,
            Some(StopReason::Deadline) => self.stats.deadline_hits += 1,
            Some(StopReason::Cancelled) => self.stats.cancellations += 1,
            None => {}
        }
        let elapsed = started.elapsed();
        self.stats.solve_time += elapsed;
        if searched {
            if maximizing {
                eatss_trace::histogram("smt.maximize_us").record(elapsed.as_micros() as u64);
            }
            let propagation_delta = self
                .stats
                .propagation_time
                .saturating_sub(propagation_before);
            self.stats.search_time += elapsed.saturating_sub(propagation_delta);
        }
        let model = values.map(|values| Model::new(values, self.names.clone()));
        let best = incumbents.last().copied();
        let solver_calls = incumbents.len() as u32 + 1;
        // Traced only (`stats_before` is `None` otherwise, so the untraced
        // hot path pays one atomic load): the per-call delta goes on the
        // span and flows into the metrics registry.
        if let Some(before) = &stats_before {
            let delta = self.stats.delta_since(before);
            delta.flow_to_registry();
            span.arg("nodes", delta.nodes);
            span.arg("propagations", delta.propagations);
            span.arg("values_pruned", delta.values_pruned);
            span.arg("backtracks", delta.backtracks);
            span.arg("bound_prunes", delta.bound_prunes);
            span.arg("hull_rebuilds", delta.hull_rebuilds);
            span.arg("propagation_us", delta.propagation_time.as_micros() as u64);
            span.arg("search_us", delta.search_time.as_micros() as u64);
            span.arg("sat", model.is_some());
            span.arg("complete", stop.is_none());
            if let Some(reason) = stop {
                span.arg("stop", reason.to_string());
            }
            if searched && maximizing {
                if let Some(v) = best {
                    span.arg("best", v);
                }
                span.arg("solver_calls", solver_calls);
            }
        }
        Ok(MaximizeOutcome {
            model,
            best,
            incumbents,
            solver_calls,
            complete: stop.is_none(),
            stop,
        })
    }
}

/// Polls the external budgets (cancellation wins over deadline).
pub(crate) fn budget_stop(
    deadline_at: Option<Instant>,
    cancel: Option<&CancelToken>,
) -> Option<StopReason> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Some(StopReason::Cancelled);
    }
    if deadline_at.is_some_and(|at| Instant::now() >= at) {
        return Some(StopReason::Deadline);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 10);
        s.assert(x.ge(5));
        let r = s.check().unwrap();
        assert!(r.complete);
        let m = r.model.unwrap();
        assert!(m.value_of_name("x").unwrap() >= 5);

        s.assert(x.lt(5));
        let r = s.check().unwrap();
        assert!(r.complete);
        assert!(r.model.is_none());
    }

    #[test]
    fn empty_domain_is_unsat() {
        let mut s = Solver::new();
        let _ = s.int_var("x", 10, 1);
        let r = s.check().unwrap();
        assert!(r.model.is_none());
        assert!(r.complete);
    }

    #[test]
    fn nonlinear_product_constraint() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 100);
        let y = s.int_var("y", 1, 100);
        s.assert((x.clone() * y.clone()).eq_expr(91)); // 7 * 13
        s.assert(x.gt(1));
        s.assert(x.lt(y.clone()));
        let m = s.check().unwrap().model.unwrap();
        assert_eq!(m.value_of_name("x"), Some(7));
        assert_eq!(m.value_of_name("y"), Some(13));
    }

    #[test]
    fn divisibility_constraints() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 64);
        s.assert(x.modulo(16).eq_expr(0));
        s.assert(x.modulo(3).eq_expr(0));
        let m = s.check().unwrap().model.unwrap();
        assert_eq!(m.value_of_name("x"), Some(48));
    }

    #[test]
    fn maximize_follows_paper_loop() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 64);
        let y = s.int_var("y", 1, 64);
        s.assert((x.clone() * y.clone()).le(100));
        let obj = x.clone() + y.clone();
        let out = s.maximize(&obj).unwrap();
        assert!(out.complete);
        // Best of x + y with x*y <= 100 and x,y in [1,64]: x=1, y=64 -> 65.
        assert_eq!(out.best, Some(65));
        assert!(out.solver_calls >= 2, "at least one improve + final unsat");
        // The scope was popped: the original problem is still satisfiable.
        assert!(s.check().unwrap().model.is_some());
    }

    #[test]
    fn maximize_unsat_returns_no_model() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 10);
        s.assert(x.gt(20));
        let out = s.maximize(&x).unwrap();
        assert!(out.model.is_none());
        assert_eq!(out.best, None);
        assert_eq!(out.solver_calls, 1);
        assert!(out.complete);
    }

    #[test]
    fn paper_matmul_example_formulation() {
        // §IV-A: maximize Ti*Tj + (2*16*Tj) subject to the GA100 FP64
        // constraints with a 50% split and WARP_ALIGNMENT_FACTOR = 16:
        //   Bsize*3*2 <= 64K, Ti*Tj + Tk*Tj <= 12288, Ti*Tk <= 12288.
        // The paper reports the solution Ti=16, Tj=384, Tk=16.
        let mut s = Solver::new();
        let cap = 12_288; // 96 KiB / 8 bytes (FP64 elements)
        let ti = s.int_var("Ti", 1, 1024);
        let tj = s.int_var("Tj", 1, 1024);
        let tk = s.int_var("Tk", 1, 1024);
        for t in [&ti, &tj, &tk] {
            s.assert(t.modulo(16).eq_expr(0));
        }
        let bsize = ti.clone() * tj.clone();
        s.assert((bsize.clone() * IntExpr::constant(3) * IntExpr::constant(2)).le(65_536));
        s.assert((ti.clone() * tj.clone() + tk.clone() * tj.clone()).le(cap));
        s.assert((ti.clone() * tk.clone()).le(cap));
        let obj = bsize + IntExpr::constant(2 * 16) * tj.clone();
        let out = s.maximize(&obj).unwrap();
        assert!(out.complete);
        let m = out.model.unwrap();
        let (i, j, k) = (
            m.value_of_name("Ti").unwrap(),
            m.value_of_name("Tj").unwrap(),
            m.value_of_name("Tk").unwrap(),
        );
        // Optimality: the paper's solution value is a lower bound on ours.
        let paper = 16 * 384 + 32 * 384;
        assert!(out.best.unwrap() >= paper, "found {i},{j},{k}");
        // And our solution must satisfy all constraints.
        assert!(i * j + k * j <= cap && i * k <= cap);
        assert_eq!(out.best.unwrap(), i * j + 32 * j);
    }

    #[test]
    fn node_limit_reports_incomplete() {
        let mut s = Solver::with_config(SolverConfig {
            node_limit: 0,
            ..SolverConfig::default()
        });
        let x = s.int_var("x", 1, 1000);
        let y = s.int_var("y", 1, 1000);
        // Interval propagation cannot decide this (the mod image always
        // contains 3 while either variable is non-singleton), so the solver
        // must branch — which the zero node budget forbids.
        s.assert(
            (x.clone() * IntExpr::constant(31) + y.clone() * IntExpr::constant(17))
                .modulo(97)
                .eq_expr(3),
        );
        let r = s.check().unwrap();
        assert!(r.model.is_none());
        assert!(!r.complete, "limit must be reported as incomplete");
        assert_eq!(r.stop, Some(StopReason::NodeLimit));
        assert_eq!(s.stats().node_limit_hits, 1);
    }

    #[test]
    fn zero_deadline_reports_deadline_stop() {
        let build = |config| {
            let mut s = Solver::with_config(config);
            let x = s.int_var("x", 1, 10);
            s.assert(x.ge(1));
            s
        };
        let mut s = build(SolverConfig {
            deadline: Some(Duration::ZERO),
            ..SolverConfig::default()
        });
        let r = s.check().unwrap();
        assert!(!r.complete);
        assert_eq!(r.stop, Some(StopReason::Deadline));
        assert_eq!(s.stats().deadline_hits, 1);
        // An expired budget proves nothing: the problem is satisfiable.
        assert!(build(SolverConfig::default()).check().unwrap().model.is_some());
    }

    #[test]
    fn cancelled_token_stops_check() {
        let token = CancelToken::new();
        token.cancel();
        let mut s = Solver::with_config(SolverConfig {
            cancel: Some(token),
            ..SolverConfig::default()
        });
        let x = s.int_var("x", 1, 10);
        s.assert(x.ge(1));
        let r = s.check().unwrap();
        assert!(r.model.is_none());
        assert!(!r.complete);
        assert_eq!(r.stop, Some(StopReason::Cancelled));
        assert_eq!(s.stats().cancellations, 1);
    }

    /// Builds the §IV-A matmul formulation with a configurable
    /// warp-alignment factor (smaller factor → larger search space).
    fn matmul_formulation(config: SolverConfig, waf: i64) -> (Solver, IntExpr) {
        let mut s = Solver::with_config(config);
        let cap = 12_288;
        let ti = s.int_var("Ti", 1, 1024);
        let tj = s.int_var("Tj", 1, 1024);
        let tk = s.int_var("Tk", 1, 1024);
        for t in [&ti, &tj, &tk] {
            s.assert(t.modulo(waf).eq_expr(0));
        }
        let bsize = ti.clone() * tj.clone();
        s.assert((bsize.clone() * IntExpr::constant(3) * IntExpr::constant(2)).le(65_536));
        s.assert((ti.clone() * tj.clone() + tk.clone() * tj.clone()).le(cap));
        s.assert((ti * tk).le(cap));
        let obj = bsize + IntExpr::constant(2 * 16) * tj;
        (s, obj)
    }

    #[test]
    fn maximize_under_node_limit_is_anytime_on_matmul() {
        // The waf=2 space (512 candidate values per tile variable) takes
        // 208 nodes to prove optimal, but the first models arrive within
        // the first handful — so under a quarter of that budget `maximize`
        // must return a feasible, possibly suboptimal model and flag the
        // outcome incomplete. A node count binds the same way on every
        // machine; `zero_deadline_reports_deadline_stop` covers the clock.
        let (mut s, obj) = matmul_formulation(
            SolverConfig {
                node_limit: 52,
                ..SolverConfig::default()
            },
            2,
        );
        let out = s.maximize(&obj).unwrap();
        assert!(!out.complete, "52 nodes cannot prove optimality here");
        assert_eq!(out.stop, Some(StopReason::NodeLimit));
        let m = out.model.expect("anytime: best-so-far model returned");
        // The returned model must satisfy the full formulation.
        let (i, j, k) = (
            m.value_of_name("Ti").unwrap(),
            m.value_of_name("Tj").unwrap(),
            m.value_of_name("Tk").unwrap(),
        );
        assert!(i % 2 == 0 && j % 2 == 0 && k % 2 == 0);
        assert!(i * j * 6 <= 65_536);
        assert!(i * j + k * j <= 12_288 && i * k <= 12_288);
        assert_eq!(out.best.unwrap(), i * j + 32 * j);
        assert_eq!(s.stats().node_limit_hits, 1);
        // With the budget lifted the same search proves a better optimum.
        let (mut s, obj) = matmul_formulation(SolverConfig::default(), 2);
        let proved = s.maximize(&obj).unwrap();
        assert!(proved.complete && proved.best > out.best);
    }

    /// One pass still walks the paper's §IV-L sequence: every recorded
    /// incumbent strictly improves on the one before — each is one
    /// satisfiable `check` of the `OBJ_{n+1} > OBJ_n` loop — and the last
    /// is the optimum the reference engine's literal loop proves.
    #[test]
    fn improvement_sequence_climbs_strictly_to_the_reference_optimum() {
        for waf in [16, 8] {
            let (mut s, obj) = matmul_formulation(SolverConfig::default(), waf);
            let naive = crate::reference::maximize(&s, &obj).unwrap();
            let fast = s.maximize(&obj).unwrap();
            assert!(fast.complete);
            assert!(!fast.incumbents.is_empty(), "waf {waf}: satisfiable");
            assert!(
                fast.incumbents.windows(2).all(|w| w[0] < w[1]),
                "waf {waf}: {:?}",
                fast.incumbents
            );
            assert_eq!(fast.incumbents.last().copied(), naive.best, "waf {waf}");
            assert_eq!(fast.best, naive.best, "waf {waf}");
            assert_eq!(fast.solver_calls as usize, fast.incumbents.len() + 1);
        }
    }

    #[test]
    fn maximize_with_cancelled_token_reports_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let (mut s, obj) = matmul_formulation(
            SolverConfig {
                cancel: Some(token),
                ..SolverConfig::default()
            },
            16,
        );
        let out = s.maximize(&obj).unwrap();
        assert!(out.model.is_none(), "cancelled before any model was found");
        assert!(!out.complete);
        assert_eq!(out.stop, Some(StopReason::Cancelled));
    }

    #[test]
    fn config_equality_ignores_distinct_but_both_none_tokens() {
        let a = SolverConfig::default();
        let b = SolverConfig::default();
        assert_eq!(a, b);
        let t = CancelToken::new();
        let c = SolverConfig {
            cancel: Some(t.clone()),
            ..SolverConfig::default()
        };
        let d = SolverConfig {
            cancel: Some(t),
            ..SolverConfig::default()
        };
        assert_eq!(c, d);
        let e = SolverConfig {
            cancel: Some(CancelToken::new()),
            ..SolverConfig::default()
        };
        assert_ne!(c, e, "distinct tokens are distinct configs");
    }

    #[test]
    fn foreign_variable_is_an_error() {
        let mut a = Solver::new();
        let mut b = Solver::new();
        b.int_var("p", 0, 1);
        b.int_var("q", 0, 1);
        let foreign = b.int_var("r", 0, 1);
        a.assert(foreign.ge(0));
        assert!(matches!(
            a.check(),
            Err(SolveError::UnknownVariable(_))
        ));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 100);
        s.assert(x.modulo(7).eq_expr(0));
        let _ = s.check().unwrap();
        let _ = s.check().unwrap();
        assert_eq!(s.stats().checks, 2);
    }

    #[test]
    fn implies_and_or_constraints() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        s.assert(x.gt(5).implies(y.eq_expr(0)));
        s.assert(x.gt(5).or(x.eq_expr(0)));
        s.assert(y.ge(0));
        let m = s.check().unwrap().model.unwrap();
        let (xv, yv) = (
            m.value_of_name("x").unwrap(),
            m.value_of_name("y").unwrap(),
        );
        assert!((xv > 5 && yv == 0) || xv == 0);
    }

    #[test]
    fn min_max_expressions_constrain() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 20);
        let y = s.int_var("y", 1, 20);
        s.assert(x.min(y.clone()).eq_expr(5));
        s.assert(x.max(y.clone()).eq_expr(9));
        let m = s.check().unwrap().model.unwrap();
        let (xv, yv) = (
            m.value_of_name("x").unwrap(),
            m.value_of_name("y").unwrap(),
        );
        assert_eq!(xv.min(yv), 5);
        assert_eq!(xv.max(yv), 9);
    }

    /// Brute-force cross-check on a small non-linear problem.
    #[test]
    fn matches_brute_force_on_small_space() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 12);
        let y = s.int_var("y", 1, 12);
        let z = s.int_var("z", 1, 12);
        s.assert((x.clone() * y.clone() * z.clone()).le(50));
        s.assert((x.clone() + y.clone()).gt(z.clone()));
        s.assert(x.modulo(2).eq_expr(0));
        let obj = x.clone() * y.clone() + z.clone();
        let out = s.maximize(&obj).unwrap();
        let mut best = i64::MIN;
        for xv in 1..=12i64 {
            for yv in 1..=12i64 {
                for zv in 1..=12i64 {
                    if xv * yv * zv <= 50 && xv + yv > zv && xv % 2 == 0 {
                        best = best.max(xv * yv + zv);
                    }
                }
            }
        }
        assert_eq!(out.best, Some(best));
    }

    #[test]
    fn hull_rebuilds_once_per_check_regression() {
        // Regression guard for the O(V·C) hull rebuild: the worklist
        // engine builds the hull vector exactly once per `check` and
        // maintains it incrementally. If per-round or per-probe rebuilds
        // return, this count explodes past `checks`.
        let (mut s, obj) = matmul_formulation(SolverConfig::default(), 16);
        let out = s.maximize(&obj).unwrap();
        assert!(out.complete);
        let _ = s.check().unwrap();
        let stats = s.stats();
        assert_eq!(stats.checks, 2, "maximize is a single search pass");
        assert_eq!(
            stats.hull_rebuilds, stats.checks,
            "hulls must be built once per check, then maintained incrementally"
        );
    }

    #[test]
    fn maximize_prunes_with_incumbent_bound() {
        let (mut s, obj) = matmul_formulation(SolverConfig::default(), 16);
        let out = s.maximize(&obj).unwrap();
        assert!(out.complete);
        assert!(
            s.stats().bound_prunes > 0,
            "branch-and-bound must cut subtrees that cannot beat the incumbent"
        );
    }

    #[test]
    fn timing_counters_partition_solve_time() {
        let (mut s, obj) = matmul_formulation(SolverConfig::default(), 16);
        let _ = s.maximize(&obj).unwrap();
        let stats = s.stats();
        assert!(stats.solve_time > Duration::ZERO);
        assert!(stats.propagation_time > Duration::ZERO);
    }

    #[test]
    fn warm_maximize_matches_cold_solve_bitwise() {
        // Cold solve, observe the optimum, then re-solve a fresh but
        // identical formulation warm: the objective value and optimality
        // flag must be identical — the floor only removes
        // provably-suboptimal work — and, the optimum of this formulation
        // being unique, so must the returned model.
        let (mut cold, obj) = matmul_formulation(SolverConfig::default(), 16);
        let cold_out = cold.maximize(&obj).unwrap();
        assert!(cold_out.complete);
        let cold_model = cold_out.model.clone().unwrap();

        let mut warm_start = WarmStart::new();
        warm_start.observe(&cold_model);

        let (mut warm, obj2) = matmul_formulation(SolverConfig::default(), 16);
        let warm_out = warm.maximize_warm(&obj2, &warm_start).unwrap();
        assert_eq!(warm_out.best, cold_out.best);
        assert_eq!(warm_out.complete, cold_out.complete);
        let warm_model = warm_out.model.unwrap();
        let cold_bindings: Vec<_> = cold_model.bindings().map(|(n, v)| (n.to_owned(), v)).collect();
        let warm_bindings: Vec<_> = warm_model.bindings().map(|(n, v)| (n.to_owned(), v)).collect();
        assert_eq!(warm_bindings, cold_bindings);
        // The warm run starts at the optimum's floor, so it needs at most
        // as many improvement passes as the cold run.
        assert!(warm_out.solver_calls <= cold_out.solver_calls);
        assert_eq!(warm.stats().warm_seeds, 1);
        assert!(warm.stats().warm_cut_hits >= 1);
    }

    #[test]
    fn warm_start_skips_unusable_hints() {
        // Hints that are infeasible, bind values outside the base domains,
        // or miss variables entirely contribute no floor — the maximize
        // then runs exactly like a cold solve and still finds the optimum.
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 64);
        let y = s.int_var("y", 1, 64);
        s.assert((x.clone() * y.clone()).le(100));
        let obj = x.clone() + y.clone();

        let mut warm = WarmStart::new();
        // Infeasible: x*y = 50*50 violates the capacity constraint.
        warm.observe(&Model::new(
            vec![50, 50],
            vec!["x".to_owned(), "y".to_owned()],
        ));
        // Out of domain: y = 200 > 64.
        warm.observe(&Model::new(
            vec![1, 200],
            vec!["x".to_owned(), "y".to_owned()],
        ));
        // Foreign formulation: misses `y` entirely.
        warm.observe(&Model::new(vec![3], vec!["x".to_owned()]));

        let out = s.maximize_warm(&obj, &warm).unwrap();
        assert!(out.complete);
        assert_eq!(out.best, Some(65));
        assert_eq!(s.stats().warm_seeds, 0, "no usable hint, no seed");
        assert_eq!(s.stats().warm_cut_hits, 0);
    }

    #[test]
    fn warm_start_feasible_suboptimal_hint_still_finds_optimum() {
        // A feasible-but-suboptimal hint seeds a floor strictly below its
        // own value; the search must still climb to the true optimum.
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 64);
        let y = s.int_var("y", 1, 64);
        s.assert((x.clone() * y.clone()).le(100));
        let obj = x.clone() + y.clone();

        let mut warm = WarmStart::new();
        warm.observe(&Model::new(
            vec![2, 50],
            vec!["x".to_owned(), "y".to_owned()],
        ));
        let out = s.maximize_warm(&obj, &warm).unwrap();
        assert!(out.complete);
        assert_eq!(out.best, Some(65));
        assert_eq!(s.stats().warm_seeds, 1);
        assert_eq!(s.stats().warm_cut_hits, 1);
    }

    #[test]
    fn warm_start_observe_dedups_and_evicts_oldest() {
        let mut warm = WarmStart::new();
        let names = vec!["x".to_owned()];
        let m = Model::new(vec![7], names.clone());
        warm.observe(&m);
        warm.observe(&m);
        assert_eq!(warm.len(), 1, "identical bindings are deduplicated");
        for v in 0..(WarmStart::MAX_HINTS as i64 + 4) {
            warm.observe(&Model::new(vec![v], names.clone()));
        }
        assert_eq!(warm.len(), WarmStart::MAX_HINTS, "bounded ring of hints");
    }
}
