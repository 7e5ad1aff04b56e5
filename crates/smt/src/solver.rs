//! The constraint solver's public API: variables, assertions, and the
//! paper's iterative maximization loop.
//!
//! The search itself lives in the `search` module (trail-based DFS with
//! worklist propagation, one-pass branch-and-bound and closed-form rows);
//! the exhaustive engine in [`crate::reference`] is its executable spec.

use crate::domain::Domain;
use crate::expr::{BoolExpr, IntExpr, VarId};
use crate::interval::Interval;
use crate::model::{known_vars, Model};
use crate::row::Lowered;
use crate::search::{Pass, Search};
use crate::stats::SolverStats;
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Errors reported by the solver and by model evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// An expression mentions a variable not registered with this solver.
    UnknownVariable(String),
    /// An assertion, or the objective, is not a row (see [`BoolExpr`]);
    /// it is named in `Display` form.
    NotARow(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::UnknownVariable(name) => {
                write!(f, "expression mentions unregistered variable `{name}`")
            }
            SolveError::NotARow(expr) => write!(
                f,
                "`{expr}` is not a row: a sum of products of constants >= 0 and \
                 distinct variables over non-negative domains (bounded <= a constant)"
            ),
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
/// interruption as [`MaximizeOutcome::stop`] = [`StopReason::Cancelled`].
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
    /// Maximum search-tree nodes per search before giving up
    /// ([`StopReason::NodeLimit`] in the result).
    pub node_limit: u64,
    /// Wall-clock budget for one whole [`Solver::maximize`] /
    /// [`Solver::maximize_warm`], which then returns its best-so-far model
    /// with [`StopReason::Deadline`] (anytime solving).
    pub deadline: Option<Duration>,
    /// Cooperative cancellation flag, checked at the same cadence as the
    /// deadline.
    pub cancel: Option<CancelToken>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_limit: 2_000_000,
            deadline: None,
            cancel: None,
        }
    }
}

/// Result of a [`Solver::maximize`] call: the run of incumbent values the
/// search took and the model at the last of them. Everything else about
/// the answer — its value, the §IV-L call count, whether it is proved —
/// is read off these three fields by the methods below.
#[derive(Debug, Clone, Default)]
pub struct MaximizeOutcome {
    /// The model at the last incumbent; `Some` exactly when
    /// [`MaximizeOutcome::incumbents`] is non-empty.
    pub model: Option<Model>,
    /// The objective value of every incumbent the search took, in order:
    /// strictly increasing. Each is one satisfiable `check` of the paper's
    /// §IV-L loop (a warm floor is not an incumbent — no model was found
    /// at it).
    pub incumbents: Vec<i64>,
    /// Why the loop stopped early; `None` when no budget interrupted it.
    pub stop: Option<StopReason>,
}

impl MaximizeOutcome {
    /// Objective value of [`MaximizeOutcome::model`]: the last incumbent.
    pub fn best(&self) -> Option<i64> {
        self.incumbents.last().copied()
    }

    /// Number of `check` calls the §IV-L loop would perform for this
    /// improvement sequence: one per incumbent plus the final
    /// unsatisfiable one.
    pub fn solver_calls(&self) -> u32 {
        self.incumbents.len() as u32 + 1
    }

    /// `true` if no budget interrupted the search: the model is proved
    /// optimal, or its absence proves unsatisfiability. `false` means the
    /// outcome is *anytime*: the model (if any) is feasible but possibly
    /// suboptimal, and a `None` model does not prove unsatisfiability.
    pub fn complete(&self) -> bool {
        self.stop.is_none()
    }
}

/// Reusable warm-start state for [`Solver::maximize_warm`]: the models of
/// previous maximizations over *structurally similar* formulations (e.g.
/// the sweep points of one kernel, which share every constraint except
/// tile bounds).
///
/// A hint is only ever used after being re-validated against the current
/// formulation — each hinted value must lie in its variable's base domain
/// and the full assignment must satisfy every asserted constraint exactly
/// (one pass of each row at the hint's point, the search's own leaf
/// check). A feasible
/// hint with objective value `v` proves `v` is achievable, so the
/// branch-and-bound incumbent can start at `v - 1` instead of at "nothing
/// yet": subtrees whose objective hull
/// cannot exceed `v - 1` are cut before any propagation is paid for.
/// Because `v ≤ optimum`, no subtree containing an optimum-valued leaf is
/// ever cut, so warm starting never changes the verdict, the optimal
/// objective value, the optimality flag or the model — only how much work
/// is pruned: a completed search returns the lexicographically greatest
/// optimal assignment whatever its floor ([`Solver::maximize`]). A hint is a
/// model's values, one per variable in registration order, so it carries
/// over to a re-built solver that registers its variables in the same
/// order. A hint of another length, or one outside the domains or the
/// constraints, is silently skipped; one of the same length from another
/// formulation is checked like any other, and if it passes it is a
/// feasible point of this one. So sharing one handle across threads (even
/// racily snapshotted) is sound.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Most-recent-last ring of full variable assignments.
    hints: Vec<Vec<i64>>,
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
        let values = model.values();
        if self.hints.iter().any(|hint| hint == values) {
            return;
        }
        if self.hints.len() == Self::MAX_HINTS {
            self.hints.remove(0);
        }
        self.hints.push(values.to_vec());
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
    /// Shared with every expression over the variable.
    names: Vec<Rc<str>>,
    base_domains: Vec<Domain>,
    constraints: Vec<BoolExpr>,
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
        let name: Rc<str> = name.into();
        self.names.push(Rc::clone(&name));
        self.base_domains.push(domain);
        IntExpr::var(id, name)
    }

    /// Adds a constraint.
    pub fn assert(&mut self, constraint: BoolExpr) {
        self.constraints.push(constraint);
    }

    /// Accumulated search statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The constraints currently asserted, in assertion order.
    pub fn assertions(&self) -> impl Iterator<Item = &BoolExpr> + '_ {
        self.constraints.iter()
    }

    /// Registered variable names in registration order.
    pub fn var_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.names.iter().map(|name| &**name)
    }

    /// Domain of a registered variable, if `var` belongs to this solver.
    pub fn domain_of(&self, var: VarId) -> Option<&Domain> {
        self.base_domains.get(var.index())
    }

    pub(crate) fn base_domains(&self) -> &[Domain] {
        &self.base_domains
    }

    pub(crate) fn constraints(&self) -> &[BoolExpr] {
        &self.constraints
    }

    /// `Ok` when every assertion's variables are this solver's.
    pub(crate) fn validate(&self) -> Result<(), SolveError> {
        let count = self.names.len();
        (self.constraints.iter()).try_for_each(|c| known_vars(c.lhs.vars(), count))
    }

    /// Every assertion and `objective`, lowered to rows over the base
    /// hulls.
    fn lower(&self, objective: &IntExpr) -> Result<Lowered, SolveError> {
        self.validate()?;
        known_vars(objective.vars(), self.names.len())?;
        let base = self.base_domains.iter().map(Domain::hull).collect();
        Lowered::new(&self.constraints, objective, base).map_err(SolveError::NotARow)
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
    /// candidate leaf. Every assertion and the objective are rows,
    /// filtered by one pass over the row and a cut in closed form instead
    /// of probing each value; the filtered domain is the same. Optima are
    /// identical to the paper's asserted-constraint loop (the retained
    /// [`crate::reference`] engine), and so is the model: the search
    /// branches on the first open variable in registration order, largest
    /// value first, so among equal-valued optima it returns the
    /// lexicographically greatest.
    /// [`MaximizeOutcome::incumbents`] is the improvement sequence, and
    /// [`MaximizeOutcome::solver_calls`] its length plus one: the number
    /// of `check` calls the §IV-L loop would have made for it, the n-th
    /// resuming where the (n−1)-th stopped instead of starting over.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownVariable`] if an assertion or the objective
    /// mentions a variable from another solver, and
    /// [`SolveError::NotARow`] naming the first assertion — or else the
    /// objective — that is not a row; both before any search.
    pub fn maximize(&mut self, objective: &IntExpr) -> Result<MaximizeOutcome, SolveError> {
        let lowered = self.lower(objective)?;
        Ok(self.search(self.base_domains.clone(), lowered, None))
    }

    /// [`Solver::maximize`] seeded from previous solutions of structurally
    /// similar formulations. Each hint in `warm` is re-validated against
    /// *this* solver's base domains and asserted constraints; the best
    /// feasible hint value `v` seeds the branch-and-bound incumbent at
    /// `v - 1`, so the search starts with the pruning power a cold run
    /// only earns after climbing to `v` itself. The verdict, the optimal
    /// objective value and the optimality flag are those of a cold
    /// [`Solver::maximize`], and so is the model (see [`WarmStart`]);
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
        let mut lowered = self.lower(objective)?;
        let floor = self.warm_floor(&mut lowered, warm);
        Ok(self.search(self.base_domains.clone(), lowered, floor))
    }

    /// Whether an assignment that differs from `optimum` in at least one
    /// of its variables also attains `best`, the optimum of `objective`:
    /// for each `(var, value)` of `optimum` in turn, a maximization over
    /// `var`'s domain without `value`, its incumbent seeded at
    /// `best − 1`, so that only a leaf worth `best` is taken. The first
    /// that finds one, or that a budget stops, is returned; otherwise the
    /// last, which proves there is no other optimum (an empty `optimum`
    /// has none either). Each maximization has this solver's budgets.
    ///
    /// `best` must be the proved optimum: a leaf above it would be taken
    /// too.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Solver::maximize`], and
    /// [`SolveError::UnknownVariable`] for a variable of `optimum` that
    /// is not this solver's.
    pub fn other_optimum(
        &mut self,
        objective: &IntExpr,
        best: i64,
        optimum: &[(VarId, i64)],
    ) -> Result<MaximizeOutcome, SolveError> {
        let lowered = self.lower(objective)?;
        let floor = Some(best.saturating_sub(1));
        let mut outcome = MaximizeOutcome::default();
        for &(var, value) in optimum {
            let mut domains = self.base_domains.clone();
            let Some(domain) = domains.get_mut(var.index()) else {
                return Err(SolveError::UnknownVariable(format!("var#{}", var.index())));
            };
            domain.retain(|&v| v != value);
            outcome = self.search(domains, lowered.clone(), floor);
            if outcome.model.is_some() || !outcome.complete() {
                break;
            }
        }
        Ok(outcome)
    }

    /// Best feasible hint value minus one, or `None` when no hint survives
    /// re-validation. Hints of another length than this solver's variable
    /// count, binding a value outside its base domain, or violating any
    /// asserted constraint are skipped — never trusted.
    fn warm_floor(&mut self, lowered: &mut Lowered, warm: &WarmStart) -> Option<i64> {
        let mut best: Option<i64> = None;
        let mut hits = 0u64;
        for hint in &warm.hints {
            if hint.len() != self.base_domains.len() {
                continue;
            }
            let point: Option<Vec<Interval>> = (hint.iter().zip(&self.base_domains))
                .map(|(&v, domain)| domain.contains(v).then(|| Interval::singleton(v)))
                .collect();
            let Some(v) = point.and_then(|point| lowered.objective_at(&point)) else {
                continue;
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

    /// The one search driver, an `smt:maximize` span: a maximization of
    /// `lowered` over `domains` with the incumbent seeded at `floor`. Each
    /// builds one [`Search`] — so [`SolverStats::hull_rebuilds`] equals
    /// [`SolverStats::checks`] unless a budget was already spent on entry
    /// — against a deadline fixed once at entry.
    fn search(
        &mut self,
        domains: Vec<Domain>,
        lowered: Lowered,
        floor: Option<i64>,
    ) -> MaximizeOutcome {
        let mut span = eatss_trace::span("smt", "maximize");
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
                domains,
                lowered,
                floor,
                &self.config,
                &mut self.stats,
                deadline_at,
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
            // Interned once: the registry lookup takes a global lock that
            // concurrent daemon workers would queue on.
            static MAXIMIZE_US: OnceLock<&eatss_trace::Histogram> = OnceLock::new();
            MAXIMIZE_US
                .get_or_init(|| eatss_trace::histogram("smt.maximize_us"))
                .record(elapsed.as_micros() as u64);
            let propagation_delta = self
                .stats
                .propagation_time
                .saturating_sub(propagation_before);
            self.stats.search_time += elapsed.saturating_sub(propagation_delta);
        }
        let outcome = MaximizeOutcome {
            model: values.map(Model::new),
            incumbents,
            stop,
        };
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
            span.arg("sat", outcome.model.is_some());
            span.arg("complete", outcome.complete());
            if let Some(reason) = stop {
                span.arg("stop", reason.to_string());
            }
            if searched {
                if let Some(v) = outcome.best() {
                    span.arg("best", v);
                }
                span.arg("solver_calls", outcome.solver_calls());
            }
        }
        outcome
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

    /// The positive multiples of `step` up to `hi`: an aligned tile domain.
    fn multiples(step: i64, hi: i64) -> Domain {
        Domain::multiples(step, hi)
    }

    /// The value `m` gives the variable `s` registered as `name`: a model
    /// holds values only, and the names are the solver's.
    fn named(s: &Solver, m: &Model, name: &str) -> i64 {
        let i = s.var_names().position(|n| n == name).expect("registered");
        m.values()[i]
    }

    fn c(v: i64) -> IntExpr {
        IntExpr::constant(v)
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 10);
        s.assert((c(2) * x.clone()).le(9));
        let r = s.maximize(&x).unwrap();
        assert!(r.complete());
        assert_eq!(r.model.unwrap().values(), [4]);

        s.assert((x.clone() + c(1)).le(1));
        let r = s.maximize(&x).unwrap();
        assert!(r.complete());
        assert!(r.model.is_none());
    }

    #[test]
    fn empty_domain_is_unsat() {
        let mut s = Solver::new();
        let x = s.int_var("x", 10, 1);
        let r = s.maximize(&x).unwrap();
        assert!(r.model.is_none());
        assert!(r.complete());
    }

    #[test]
    fn nonlinear_product_constraint() {
        // The largest `x + y` whose product fits 91 keeps one factor 1.
        let mut s = Solver::new();
        let x = s.int_var("x", 2, 100);
        let y = s.int_var("y", 2, 100);
        s.assert((x.clone() * y.clone()).le(91));
        let r = s.maximize(&(x + y)).unwrap();
        assert_eq!(r.best(), Some(47));
        let m = r.model.unwrap();
        let (xv, yv) = (named(&s, &m, "x"), named(&s, &m, "y"));
        assert!(xv * yv <= 91 && xv + yv == 47, "{m:?}");
    }

    #[test]
    fn divisibility_constraints() {
        // Divisibility is a domain of multiples: `3·x ≤ 150` keeps 48.
        let mut s = Solver::new();
        let x = s.int_var_in("x", multiples(16, 64));
        s.assert((c(3) * x.clone()).le(150));
        let m = s.maximize(&x).unwrap().model.unwrap();
        assert_eq!(named(&s, &m, "x"), 48);
    }

    #[test]
    fn maximize_follows_paper_loop() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 64);
        let y = s.int_var("y", 1, 64);
        s.assert((x.clone() * y.clone()).le(100));
        let obj = x.clone() + y.clone();
        let out = s.maximize(&obj).unwrap();
        assert!(out.complete());
        // Best of x + y with x*y <= 100 and x,y in [1,64]: x=1, y=64 -> 65.
        assert_eq!(out.best(), Some(65));
        assert!(
            out.solver_calls() >= 2,
            "at least one improve + final unsat"
        );
    }

    #[test]
    fn maximize_unsat_returns_no_model() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 10);
        s.assert((c(2) * x.clone()).le(1));
        let out = s.maximize(&x).unwrap();
        assert!(out.model.is_none());
        assert_eq!(out.best(), None);
        assert_eq!(out.solver_calls(), 1);
        assert!(out.complete());
    }

    #[test]
    fn paper_matmul_example_formulation() {
        // §IV-A: maximize Ti*Tj + (2*16*Tj) subject to the GA100 FP64
        // constraints with a 50% split and WARP_ALIGNMENT_FACTOR = 16:
        //   Bsize*3*2 <= 64K, Ti*Tj + Tk*Tj <= 12288, Ti*Tk <= 12288.
        // The paper reports the solution Ti=16, Tj=384, Tk=16.
        let mut s = Solver::new();
        let cap = 12_288; // 96 KiB / 8 bytes (FP64 elements)
        let ti = s.int_var_in("Ti", multiples(16, 1024));
        let tj = s.int_var_in("Tj", multiples(16, 1024));
        let tk = s.int_var_in("Tk", multiples(16, 1024));
        let bsize = ti.clone() * tj.clone();
        s.assert((bsize.clone() * IntExpr::constant(3) * IntExpr::constant(2)).le(65_536));
        s.assert((ti.clone() * tj.clone() + tk.clone() * tj.clone()).le(cap));
        s.assert((ti.clone() * tk.clone()).le(cap));
        let obj = bsize + IntExpr::constant(2 * 16) * tj.clone();
        let out = s.maximize(&obj).unwrap();
        assert!(out.complete());
        let m = out.model.as_ref().unwrap();
        let (i, j, k) = (named(&s, m, "Ti"), named(&s, m, "Tj"), named(&s, m, "Tk"));
        // Optimality: the paper's solution value is a lower bound on ours.
        let paper = 16 * 384 + 32 * 384;
        assert!(out.best().unwrap() >= paper, "found {i},{j},{k}");
        // And our solution must satisfy all constraints.
        assert!(i * j + k * j <= cap && i * k <= cap);
        assert_eq!(out.best().unwrap(), i * j + 32 * j);
    }

    #[test]
    fn node_limit_reports_incomplete() {
        let mut s = Solver::with_config(SolverConfig {
            node_limit: 0,
            ..SolverConfig::default()
        });
        let x = s.int_var("x", 1, 1000);
        let y = s.int_var("y", 1, 1000);
        // Propagation leaves both domains wide, so the solver must
        // branch — which the zero node budget forbids.
        s.assert((x.clone() * y.clone()).le(1000));
        let r = s.maximize(&(x + y)).unwrap();
        assert!(r.model.is_none());
        assert!(!r.complete(), "limit must be reported as incomplete");
        assert_eq!(r.stop, Some(StopReason::NodeLimit));
        assert_eq!(s.stats().node_limit_hits, 1);
    }

    #[test]
    fn zero_deadline_reports_deadline_stop() {
        let build = |config| {
            let mut s = Solver::with_config(config);
            let x = s.int_var("x", 1, 10);
            s.assert(x.le(9));
            (s, x)
        };
        let (mut s, x) = build(SolverConfig {
            deadline: Some(Duration::ZERO),
            ..SolverConfig::default()
        });
        let r = s.maximize(&x).unwrap();
        assert!(!r.complete());
        assert_eq!(r.stop, Some(StopReason::Deadline));
        assert_eq!(s.stats().deadline_hits, 1);
        // An expired budget proves nothing: the problem is satisfiable.
        let (mut s, x) = build(SolverConfig::default());
        assert!(s.maximize(&x).unwrap().model.is_some());
    }

    #[test]
    fn cancelled_token_stops_check() {
        // A cancelled token stops the tie question before it is settled.
        let (mut free, obj) = matmul_formulation(SolverConfig::default(), 16);
        let optimum = free.maximize(&obj).unwrap();
        let m = optimum.model.as_ref().unwrap();
        let tiles: Vec<(VarId, i64)> = (0..3)
            .map(|i| (VarId(i), m.value_of(VarId(i)).unwrap()))
            .collect();
        let token = CancelToken::new();
        token.cancel();
        let config = SolverConfig {
            cancel: Some(token),
            ..SolverConfig::default()
        };
        let (mut s, obj) = matmul_formulation(config, 16);
        let r = s
            .other_optimum(&obj, optimum.best().unwrap(), &tiles)
            .unwrap();
        assert!(r.model.is_none());
        assert!(!r.complete());
        assert_eq!(r.stop, Some(StopReason::Cancelled));
        assert_eq!(s.stats().cancellations, 1);
    }

    /// Builds the §IV-A matmul formulation with a configurable
    /// warp-alignment factor (smaller factor → larger search space).
    fn matmul_formulation(config: SolverConfig, waf: i64) -> (Solver, IntExpr) {
        let mut s = Solver::with_config(config);
        let cap = 12_288;
        let ti = s.int_var_in("Ti", multiples(waf, 1024));
        let tj = s.int_var_in("Tj", multiples(waf, 1024));
        let tk = s.int_var_in("Tk", multiples(waf, 1024));
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
        assert!(!out.complete(), "52 nodes cannot prove optimality here");
        assert_eq!(out.stop, Some(StopReason::NodeLimit));
        let m = out
            .model
            .as_ref()
            .expect("anytime: best-so-far model returned");
        // The returned model must satisfy the full formulation.
        let (i, j, k) = (named(&s, m, "Ti"), named(&s, m, "Tj"), named(&s, m, "Tk"));
        assert!(i % 2 == 0 && j % 2 == 0 && k % 2 == 0);
        assert!(i * j * 6 <= 65_536);
        assert!(i * j + k * j <= 12_288 && i * k <= 12_288);
        assert_eq!(out.best().unwrap(), i * j + 32 * j);
        assert_eq!(s.stats().node_limit_hits, 1);
        // With the budget lifted the same search proves a better optimum.
        let (mut s, obj) = matmul_formulation(SolverConfig::default(), 2);
        let proved = s.maximize(&obj).unwrap();
        assert!(proved.complete() && proved.best() > out.best());
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
            assert!(fast.complete());
            assert!(!fast.incumbents.is_empty(), "waf {waf}: satisfiable");
            assert!(
                fast.incumbents.windows(2).all(|w| w[0] < w[1]),
                "waf {waf}: {:?}",
                fast.incumbents
            );
            assert_eq!(fast.best(), naive.best, "waf {waf}");
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
        assert!(!out.complete());
        assert_eq!(out.stop, Some(StopReason::Cancelled));
    }

    #[test]
    fn foreign_variable_is_an_error() {
        let mut a = Solver::new();
        let mut b = Solver::new();
        b.int_var("p", 0, 1);
        b.int_var("q", 0, 1);
        let foreign = b.int_var("r", 0, 1);
        let own = a.int_var("own", 0, 1);
        let objective = own.clone() + foreign.clone();
        assert!(matches!(
            a.maximize(&objective),
            Err(SolveError::UnknownVariable(name)) if name == "r"
        ));
        let mut warm = WarmStart::new();
        warm.observe(&Model::new(vec![1]));
        assert!(matches!(
            a.maximize_warm(&objective, &warm),
            Err(SolveError::UnknownVariable(name)) if name == "r"
        ));
        assert_eq!(a.stats().warm_cut_hits, 0);
        a.assert(foreign.le(0));
        assert!(matches!(
            a.maximize(&own),
            Err(SolveError::UnknownVariable(name)) if name == "r"
        ));
    }

    #[test]
    fn non_rows_are_refused_before_any_search() {
        // The first assertion that is no row is named, else the objective.
        let refused = |s: &mut Solver, objective: &IntExpr| match s.maximize(objective) {
            Err(SolveError::NotARow(text)) => text,
            other => panic!("{other:?}"),
        };
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", -1, 10);
        s.assert(x.le(8));
        // A negative literal, even one whose sign another cancels.
        assert_eq!(
            refused(&mut s, &(x.clone() + c(-1) * x.clone())),
            "(+ x (* (- 1) x))"
        );
        assert_eq!(refused(&mut s, &(c(-1) * c(-1) * x.clone())), "x");
        // A variable whose domain holds a negative value.
        assert_eq!(refused(&mut s, &(x.clone() * y.clone())), "(* x y)");
        // A repeated factor.
        s.assert((x.clone() * x.clone()).le(64));
        assert_eq!(refused(&mut s, &x), "(<= (* x x) 64)");
        assert!(SolveError::NotARow("x".into())
            .to_string()
            .contains("not a row"));
        assert_eq!(s.stats().checks, 0, "refused before any search");
    }

    #[test]
    fn other_optimum_finds_ties_and_proves_uniqueness() {
        // `x + y ≤ 10`: `x + y` peaks at 10 along a whole diagonal,
        // `2x + y` only at (10, 0).
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        s.assert((x.clone() + y.clone()).le(10));
        let point = [(VarId(0), 10), (VarId(1), 0)];
        let tie = s
            .other_optimum(&(x.clone() + y.clone()), 10, &point)
            .unwrap();
        assert!(tie.complete());
        let other = tie.model.expect("another point of the diagonal");
        assert_ne!(
            (other.value_of(VarId(0)), other.value_of(VarId(1))),
            (Some(10), Some(0))
        );
        assert_eq!(other.eval(&(x.clone() + y.clone())), Ok(10));
        let objective = c(2) * x + y;
        let unique = s.other_optimum(&objective, 20, &point).unwrap();
        assert!(unique.complete() && unique.model.is_none());
        assert!(s
            .other_optimum(&objective, 20, &[])
            .unwrap()
            .model
            .is_none());
        assert!(matches!(
            s.other_optimum(&objective, 20, &[(VarId(7), 1)]),
            Err(SolveError::UnknownVariable(_))
        ));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 100);
        s.assert(x.le(93));
        let _ = s.maximize(&x).unwrap();
        let _ = s.maximize(&x).unwrap();
        assert_eq!(s.stats().checks, 2);
    }

    /// Brute-force cross-check on a small non-linear problem.
    #[test]
    fn matches_brute_force_on_small_space() {
        let mut s = Solver::new();
        let x = s.int_var_in("x", multiples(2, 12));
        let y = s.int_var("y", 1, 12);
        let z = s.int_var("z", 1, 12);
        s.assert((x.clone() * y.clone() * z.clone()).le(50));
        s.assert((c(3) * z.clone() + x.clone() * y.clone()).le(30));
        let obj = x.clone() * y.clone() + z.clone();
        let out = s.maximize(&obj).unwrap();
        let mut best = i64::MIN;
        for xv in 1..=12i64 {
            for yv in 1..=12i64 {
                for zv in 1..=12i64 {
                    if xv * yv * zv <= 50 && 3 * zv + xv * yv <= 30 && xv % 2 == 0 {
                        best = best.max(xv * yv + zv);
                    }
                }
            }
        }
        assert_eq!(out.best(), Some(best));
    }

    #[test]
    fn hull_rebuilds_once_per_check_regression() {
        // Regression guard for the O(V·C) hull rebuild: the worklist
        // engine builds the hull vector exactly once per `check` and
        // maintains it incrementally. If per-round or per-probe rebuilds
        // return, this count explodes past `checks`.
        let (mut s, obj) = matmul_formulation(SolverConfig::default(), 16);
        let out = s.maximize(&obj).unwrap();
        assert!(out.complete());
        let _ = s.maximize(&obj).unwrap();
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
        assert!(out.complete());
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
        assert!(cold_out.complete());
        let cold_model = cold_out.model.clone().unwrap();

        let mut warm_start = WarmStart::new();
        warm_start.observe(&cold_model);

        let (mut warm, obj2) = matmul_formulation(SolverConfig::default(), 16);
        let warm_out = warm.maximize_warm(&obj2, &warm_start).unwrap();
        assert_eq!(warm_out.best(), cold_out.best());
        assert_eq!(warm_out.complete(), cold_out.complete());
        let warm_model = warm_out.model.as_ref().unwrap();
        let cold_bindings: Vec<_> = cold.var_names().zip(cold_model.values()).collect();
        let warm_bindings: Vec<_> = warm.var_names().zip(warm_model.values()).collect();
        assert_eq!(warm_bindings, cold_bindings);
        // The warm run starts at the optimum's floor, so it needs at most
        // as many improvement passes as the cold run.
        assert!(warm_out.solver_calls() <= cold_out.solver_calls());
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
        warm.observe(&Model::new(vec![50, 50]));
        // Out of domain: y = 200 > 64.
        warm.observe(&Model::new(vec![1, 200]));
        // Foreign formulation: misses `y` entirely.
        warm.observe(&Model::new(vec![3]));

        let out = s.maximize_warm(&obj, &warm).unwrap();
        assert!(out.complete());
        assert_eq!(out.best(), Some(65));
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
        warm.observe(&Model::new(vec![2, 50]));
        let out = s.maximize_warm(&obj, &warm).unwrap();
        assert!(out.complete());
        assert_eq!(out.best(), Some(65));
        assert_eq!(s.stats().warm_seeds, 1);
        assert_eq!(s.stats().warm_cut_hits, 1);
    }

    #[test]
    fn warm_start_observe_dedups_and_evicts_oldest() {
        let mut warm = WarmStart::new();
        let m = Model::new(vec![7]);
        warm.observe(&m);
        warm.observe(&m);
        assert_eq!(warm.len(), 1, "identical bindings are deduplicated");
        for v in 0..(WarmStart::MAX_HINTS as i64 + 4) {
            warm.observe(&Model::new(vec![v]));
        }
        assert_eq!(warm.len(), WarmStart::MAX_HINTS, "bounded ring of hints");
    }
}
