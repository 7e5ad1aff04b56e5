//! The solver's hot loop: trail-based depth-first search with worklist
//! propagation and objective-bound pruning.
//!
//! Three structural choices keep the per-node cost low (the naive engine
//! they replaced is retained verbatim in [`crate::reference`] for
//! differential testing):
//!
//! * **Trail-based undo** ([`crate::trail::Trail`]): a node saves only the
//!   domains it narrows instead of cloning the whole `Vec<Domain>`.
//! * **Worklist propagation**: interval hulls are maintained incrementally
//!   (updated when a domain changes, restored on backtrack) and an
//!   AC-3-style queue revisits only constraints watching a changed
//!   variable, instead of re-evaluating every constraint against freshly
//!   rebuilt hulls each round.
//! * **Objective-bound pruning**: when the search runs under an incumbent
//!   (branch-and-bound inside [`crate::Solver::maximize`]), any subtree
//!   whose interval upper bound on the objective cannot beat the incumbent
//!   is cut immediately.
//!
//! All three preserve exact results: propagation only removes values proven
//! inconsistent, the exhaustive search still visits every surviving
//! assignment, and bound pruning discards only subtrees the active
//! `OBJ > best` constraint would reject anyway.

use crate::domain::Domain;
use crate::expr::{BoolExpr, BoolNode, IntExpr, IntNode, VarId};
use crate::interval::Interval;
use crate::model::Model;
use crate::solver::{budget_stop, SolverConfig, StopReason};
use crate::stats::SolverStats;
use crate::trail::Trail;
use std::collections::VecDeque;
use std::time::Instant;

/// Three-valued verdict of interval constraint evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tri {
    True,
    False,
    Unknown,
}

/// Poll the clock/cancel flag every this many search nodes — often enough
/// that a 10 ms deadline is honoured promptly, rare enough that
/// `Instant::now` stays off the hot path.
const BUDGET_POLL_PERIOD: u64 = 64;

/// Domains larger than this are filtered by hull reasoning only; exact
/// per-value probing is reserved for small domains where it pays off.
pub(crate) const PROBE_LIMIT: usize = 4096;

/// Propagation budget per search node, in constraint visits relative to a
/// full pass: filtering stops after `MAX_PROPAGATION_ROUNDS × constraints`
/// visits — weaker pruning, never unsoundness.
pub(crate) const MAX_PROPAGATION_ROUNDS: u32 = 16;

/// A branching variable's candidates, largest first: large tiles score
/// high, so the maximization climbs in few improvements (like Z3's
/// default behaviour on these formulations).
pub(crate) fn branch_order(domain: &Domain) -> Vec<i64> {
    domain.iter().rev().collect()
}

/// An objective being maximized under an incumbent. The search treats
/// `objective > incumbent` as a *virtual constraint*: it sits in the
/// propagation worklist like an asserted constraint (filtering domain
/// values that cannot beat the incumbent), cuts whole subtrees whose
/// interval upper bound is `<= incumbent` at node entry, and is verified
/// exactly at every candidate leaf. This replaces the paper's growing
/// stack of asserted `OBJ > best` constraints with a single incumbent the
/// search tightens in place. `incumbent` is `None` until a first model is
/// found (the bound is inert then — any model improves on nothing).
struct ObjectiveBound<'a> {
    objective: &'a IntExpr,
    incumbent: Option<i64>,
}

/// What a [`Search`] is asked to do.
pub(crate) enum SearchMode<'a> {
    /// Find any satisfying assignment (plain `check`).
    Satisfy,
    /// Single-pass branch-and-bound maximization: improving leaves tighten
    /// the incumbent in place and the search continues to exhaustion.
    /// `floor`, when present, seeds the incumbent below a known-achievable
    /// objective value (warm start): every subtree that survives the seeded
    /// bound has hull upper bound `> floor`, so subtrees containing an
    /// optimum-valued leaf are never cut and the first optimum leaf found —
    /// the returned model — is identical to a cold search's. The seed only
    /// removes provably-suboptimal work.
    Optimize {
        objective: &'a IntExpr,
        floor: Option<i64>,
    },
}

/// What one [`Search`] found.
#[derive(Default)]
pub(crate) struct Pass {
    /// The satisfying assignment — when maximizing, the best one.
    pub(crate) values: Option<Vec<i64>>,
    /// Objective value of `values` when maximizing.
    pub(crate) best: Option<i64>,
    /// Incumbent improvements taken when maximizing.
    pub(crate) improvements: u32,
    /// Why the search stopped early, if it did.
    pub(crate) stop: Option<StopReason>,
}

/// One `check` call's worth of search state.
pub(crate) struct Search<'a> {
    names: &'a [String],
    constraints: &'a [(BoolExpr, Vec<VarId>)],
    config: &'a SolverConfig,
    stats: &'a mut SolverStats,
    /// Working copy of the variable domains (cloned once per check; all
    /// further narrowing goes through the trail).
    domains: Vec<Domain>,
    /// Interval hull of every domain, maintained incrementally: updated on
    /// narrowing, restored from the trailed domain on backtrack.
    hulls: Vec<Interval>,
    trail: Trail,
    /// Constraint indices watching each variable.
    watchers: Vec<Vec<u32>>,
    /// Dirty-constraint worklist plus its membership flags.
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    nodes_at_entry: u64,
    deadline_at: Option<Instant>,
    stop: Option<StopReason>,
    /// Present when maximizing: an improving leaf does not end the search
    /// — it becomes the new incumbent and the search continues, so one
    /// exhaustive pass proves optimality (no restart per improvement).
    bound: Option<ObjectiveBound<'a>>,
    /// Variables of the bound objective (watch the virtual constraint).
    bound_vars: Vec<VarId>,
    /// Best (objective value, assignment) found so far in optimize mode.
    best: Option<(i64, Vec<i64>)>,
    /// Number of incumbent improvements in optimize mode.
    improvements: u32,
    /// Set when an improving leaf was just recorded: the search unwinds
    /// to the root and re-dives under the tightened incumbent, so that
    /// bound filtering is applied *at the root* (where narrows are
    /// permanent) instead of being re-derived and popped per subtree.
    restart: bool,
}

impl<'a> Search<'a> {
    pub(crate) fn new(
        names: &'a [String],
        base_domains: &[Domain],
        constraints: &'a [(BoolExpr, Vec<VarId>)],
        config: &'a SolverConfig,
        stats: &'a mut SolverStats,
        deadline_at: Option<Instant>,
        mode: SearchMode<'a>,
    ) -> Self {
        let bound = match mode {
            SearchMode::Satisfy => None,
            SearchMode::Optimize { objective, floor } => Some(ObjectiveBound {
                objective,
                incumbent: floor,
            }),
        };
        let domains = base_domains.to_vec();
        // The only full O(V) hull construction in a check: every later
        // update is per-variable. `SolverStats::hull_rebuilds` counts these
        // so a regression back to per-round rebuilds is detectable.
        let hulls: Vec<Interval> = domains.iter().map(Domain::hull).collect();
        stats.hull_rebuilds += 1;
        let mut watchers = vec![Vec::new(); names.len()];
        for (ci, (_, vars)) in constraints.iter().enumerate() {
            for v in vars {
                watchers[v.index()].push(ci as u32);
            }
        }
        // The incumbent bound is a virtual constraint at index
        // `constraints.len()`: the objective's variables watch it so the
        // worklist revisits it like any asserted constraint.
        let mut bound_vars = Vec::new();
        if let Some(b) = &bound {
            b.objective.collect_vars(&mut bound_vars);
            for v in &bound_vars {
                watchers[v.index()].push(constraints.len() as u32);
            }
        }
        let nodes_at_entry = stats.nodes;
        Search {
            names,
            constraints,
            config,
            stats,
            domains,
            hulls,
            trail: Trail::new(names.len()),
            watchers,
            queue: VecDeque::with_capacity(constraints.len() + 1),
            in_queue: vec![false; constraints.len() + 1],
            nodes_at_entry,
            deadline_at,
            stop: None,
            bound,
            bound_vars,
            best: None,
            improvements: 0,
            restart: false,
        }
    }

    /// Runs the search to completion (or budget).
    pub(crate) fn run(mut self) -> Pass {
        // Seed the worklist with every constraint (plus the virtual
        // incumbent bound): the root propagation must consider all once.
        for ci in 0..self.constraints.len() {
            self.enqueue(ci as u32);
        }
        if self.bound.is_some() {
            self.enqueue(self.constraints.len() as u32);
        }
        let found = loop {
            let found = self.dfs();
            // Branch-and-bound re-dive: an improving leaf unwinds to the
            // root, where only the tightened incumbent bound needs
            // re-propagating (its filtering cascades through the
            // watchers, and root-level narrows are permanent — pruning
            // learned in earlier dives is never re-derived). Everything
            // else about the root state is already at fixpoint.
            if self.restart && self.stop.is_none() {
                self.restart = false;
                self.enqueue(self.constraints.len() as u32);
                continue;
            }
            break found;
        };
        // A maximizing search never returns from `dfs` with a model —
        // improving leaves are recorded and the search continues.
        let (best, values) = match self.best {
            Some((value, values)) => (Some(value), Some(values)),
            None => (None, found),
        };
        Pass {
            values,
            best,
            improvements: self.improvements,
            stop: self.stop,
        }
    }

    fn nodes_used(&self) -> u64 {
        self.stats.nodes - self.nodes_at_entry
    }

    /// Checks all budgets; sets [`Search::stop`] and returns `true` if
    /// any is exhausted. Node limit is exact; clock and cancellation are
    /// polled every [`BUDGET_POLL_PERIOD`] nodes.
    fn out_of_budget(&mut self) -> bool {
        if self.stop.is_some() {
            return true;
        }
        if self.nodes_used() >= self.config.node_limit {
            self.stop = Some(StopReason::NodeLimit);
            return true;
        }
        if self.nodes_used().is_multiple_of(BUDGET_POLL_PERIOD) {
            if let Some(reason) = budget_stop(self.deadline_at, self.config.cancel.as_ref()) {
                self.stop = Some(reason);
                return true;
            }
        }
        false
    }

    fn enqueue(&mut self, ci: u32) {
        if !self.in_queue[ci as usize] {
            self.in_queue[ci as usize] = true;
            self.queue.push_back(ci);
        }
    }

    fn enqueue_watchers(&mut self, var: usize) {
        for wi in 0..self.watchers[var].len() {
            let ci = self.watchers[var][wi];
            if !self.in_queue[ci as usize] {
                self.in_queue[ci as usize] = true;
                self.queue.push_back(ci);
            }
        }
    }

    fn clear_queue(&mut self) {
        while let Some(ci) = self.queue.pop_front() {
            self.in_queue[ci as usize] = false;
        }
    }

    /// Narrows `domains[var]` to `new`, through the trail, keeping the
    /// hull in sync and waking the variable's watchers.
    fn narrow(&mut self, var: usize, new: Domain) {
        self.trail.replace(var, &mut self.domains, new);
        self.hulls[var] = self.domains[var].hull();
        self.enqueue_watchers(var);
    }

    fn dfs(&mut self) -> Option<Vec<i64>> {
        // Branch-and-bound cut, before any propagation work: if the
        // interval upper bound of the objective over this subtree cannot
        // beat the incumbent, no leaf below can either. (The asserted
        // `OBJ > incumbent` constraint would also refute the subtree, but
        // only after paying for a propagation pass.)
        if let Some(b) = &self.bound {
            if let Some(incumbent) = b.incumbent {
                if bounds(b.objective, &self.hulls).hi() <= incumbent {
                    self.stats.bound_prunes += 1;
                    self.clear_queue();
                    return None;
                }
            }
        }
        if !self.propagate() {
            return None;
        }
        if let Some(values) = assignment_of(&self.domains) {
            // Every domain is a singleton; do a final exact check (interval
            // reasoning may have left some constraints undecided).
            let model = Model::new(values.clone(), self.names.to_vec());
            for (c, _) in self.constraints {
                match model.eval_bool(c) {
                    Ok(true) => {}
                    // Division by zero under this assignment: treat the
                    // candidate as violating, like Z3's total-function
                    // semantics never would satisfy our guarded uses.
                    Ok(false) | Err(_) => return None,
                }
            }
            // Exact strict-improvement check: the incumbent bound admits
            // only models that beat it, matching the semantics of the
            // paper's asserted `OBJ > best` constraint.
            if let Some(b) = &self.bound {
                let improves = match model.eval(b.objective) {
                    Ok(v) if b.incumbent.is_none_or(|inc| v > inc) => Some(v),
                    Ok(_) | Err(_) => None,
                };
                let Some(value) = improves else {
                    self.stats.bound_prunes += 1;
                    return None;
                };
                // Branch-and-bound: record the improvement, tighten the
                // incumbent in place, and unwind to the root for a
                // re-dive (see `run`) — exhausting a dive without an
                // improvement is the optimality proof.
                if let Some(b) = &mut self.bound {
                    b.incumbent = Some(value);
                }
                self.best = Some((value, values));
                self.improvements += 1;
                self.restart = true;
                return None;
            }
            return Some(values);
        }
        // Branch on the smallest non-singleton domain.
        let (var_idx, _) = self
            .domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.len() > 1)
            .min_by_key(|(_, d)| d.len())?;
        for value in branch_order(&self.domains[var_idx]) {
            if self.out_of_budget() {
                return None;
            }
            self.stats.nodes += 1;
            self.trail.push_level();
            self.narrow(var_idx, Domain::singleton(value));
            if let Some(values) = self.dfs() {
                return Some(values);
            }
            self.trail.pop_level(&mut self.domains, &mut self.hulls);
            self.stats.backtracks += 1;
            if self.stop.is_some() || self.restart {
                return None;
            }
        }
        None
    }

    /// Drains the dirty-constraint worklist to fixpoint (or the visit
    /// budget). Returns `false` on inconsistency, with the queue cleared.
    fn propagate(&mut self) -> bool {
        let started = Instant::now();
        // The visit budget mirrors the old engine's `rounds × constraints`
        // worst case; hitting it merely weakens pruning, never soundness.
        let mut visits_left =
            (MAX_PROPAGATION_ROUNDS as u64).saturating_mul(self.constraints.len().max(1) as u64);
        let ok = loop {
            let Some(ci) = self.queue.pop_front() else {
                break true;
            };
            self.in_queue[ci as usize] = false;
            if visits_left == 0 {
                // Budget exhausted: drop the remaining work. Sound — the
                // search below simply branches on less-filtered domains.
                self.clear_queue();
                break true;
            }
            visits_left -= 1;
            self.stats.propagations += 1;
            let consistent = if (ci as usize) == self.constraints.len() {
                self.revise_bound()
            } else {
                self.revise(ci as usize)
            };
            if !consistent {
                self.clear_queue();
                break false;
            }
        };
        self.stats.propagation_time += started.elapsed();
        ok
    }

    /// Revises one constraint: entailment check by hulls, then exact
    /// per-value probing of each small domain it watches. Returns `false`
    /// on a wiped-out domain or a disentailed constraint.
    fn revise(&mut self, ci: usize) -> bool {
        // Re-borrow the constraint slice at its own lifetime so the watched
        // variables stay readable while `self` is mutated below.
        let constraints: &'a [(BoolExpr, Vec<VarId>)] = self.constraints;
        let (constraint, vars) = &constraints[ci];
        match tri_bool(constraint, &self.hulls) {
            Tri::False => return false,
            Tri::True => return true,
            Tri::Unknown => {}
        }
        for &var in vars {
            let idx = var.index();
            let len = self.domains[idx].len();
            if len <= 1 || len > PROBE_LIMIT {
                continue;
            }
            // Probe each candidate by pinning this variable's hull to a
            // singleton *in place* — no `hulls.clone()` per variable.
            let saved_hull = self.hulls[idx];
            let mut kept: Vec<i64> = Vec::with_capacity(len);
            for v in self.domains[idx].iter() {
                self.hulls[idx] = Interval::singleton(v);
                if tri_bool(constraint, &self.hulls) != Tri::False {
                    kept.push(v);
                }
            }
            self.hulls[idx] = saved_hull;
            if kept.len() == len {
                continue;
            }
            self.stats.values_pruned += (len - kept.len()) as u64;
            if kept.is_empty() {
                return false;
            }
            // `kept` preserves the domain's sorted order.
            self.narrow(idx, Domain::from_values(kept));
        }
        true
    }

    /// Revises the virtual `objective > incumbent` constraint: refute the
    /// subtree when the hull upper bound cannot beat the incumbent, and
    /// probe the objective's variables to drop values that cannot either.
    /// Every refutation here is incumbent-driven, so it counts toward
    /// [`SolverStats::bound_prunes`].
    fn revise_bound(&mut self) -> bool {
        let Some(b) = &self.bound else { return true };
        let objective = b.objective;
        // No incumbent yet: the virtual constraint is inert.
        let Some(incumbent) = b.incumbent else {
            return true;
        };
        let hull = bounds(objective, &self.hulls);
        if hull.is_empty() || hull.hi() <= incumbent {
            self.stats.bound_prunes += 1;
            return false;
        }
        if hull.lo() > incumbent {
            return true; // Entailed: every assignment below improves.
        }
        for vi in 0..self.bound_vars.len() {
            let idx = self.bound_vars[vi].index();
            let len = self.domains[idx].len();
            if len <= 1 || len > PROBE_LIMIT {
                continue;
            }
            let saved_hull = self.hulls[idx];
            let mut kept: Vec<i64> = Vec::with_capacity(len);
            for v in self.domains[idx].iter() {
                self.hulls[idx] = Interval::singleton(v);
                if bounds(objective, &self.hulls).hi() > incumbent {
                    kept.push(v);
                }
            }
            self.hulls[idx] = saved_hull;
            if kept.len() == len {
                continue;
            }
            self.stats.values_pruned += (len - kept.len()) as u64;
            if kept.is_empty() {
                self.stats.bound_prunes += 1;
                return false;
            }
            self.narrow(idx, Domain::from_values(kept));
        }
        true
    }
}

pub(crate) fn assignment_of(domains: &[Domain]) -> Option<Vec<i64>> {
    domains.iter().map(Domain::as_singleton).collect()
}

/// Interval evaluation of an integer expression given per-variable hulls.
pub(crate) fn bounds(expr: &IntExpr, hulls: &[Interval]) -> Interval {
    match &*expr.0 {
        IntNode::Const(v) => Interval::singleton(*v),
        IntNode::Var(id, _) => hulls
            .get(id.index())
            .copied()
            .unwrap_or_else(Interval::top),
        IntNode::Add(xs) => xs
            .iter()
            .fold(Interval::singleton(0), |acc, x| acc + bounds(x, hulls)),
        IntNode::Mul(xs) => xs
            .iter()
            .fold(Interval::singleton(1), |acc, x| acc * bounds(x, hulls)),
        IntNode::Sub(a, b) => bounds(a, hulls) - bounds(b, hulls),
        IntNode::Neg(a) => -bounds(a, hulls),
        IntNode::Div(a, b) => bounds(a, hulls).div_euclid(bounds(b, hulls)),
        IntNode::Mod(a, b) => bounds(a, hulls).rem_euclid(bounds(b, hulls)),
        IntNode::Min(a, b) => bounds(a, hulls).min(bounds(b, hulls)),
        IntNode::Max(a, b) => bounds(a, hulls).max(bounds(b, hulls)),
    }
}

pub(crate) fn tri_cmp(op: crate::expr::CmpOp, a: Interval, b: Interval) -> Tri {
    use crate::expr::CmpOp::*;
    if a.is_empty() || b.is_empty() {
        return Tri::False;
    }
    match op {
        Le => {
            if a.hi() <= b.lo() {
                Tri::True
            } else if a.lo() > b.hi() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Lt => {
            if a.hi() < b.lo() {
                Tri::True
            } else if a.lo() >= b.hi() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Ge => tri_cmp(Le, b, a),
        Gt => tri_cmp(Lt, b, a),
        Eq => {
            if a.is_singleton() && b.is_singleton() && a.lo() == b.lo() {
                Tri::True
            } else if a.intersect(b).is_empty() {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        Ne => match tri_cmp(Eq, a, b) {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        },
    }
}

/// Kleene three-valued evaluation of a constraint under interval hulls.
pub(crate) fn tri_bool(expr: &BoolExpr, hulls: &[Interval]) -> Tri {
    match &*expr.0 {
        BoolNode::True => Tri::True,
        BoolNode::False => Tri::False,
        BoolNode::Cmp(op, a, b) => tri_cmp(*op, bounds(a, hulls), bounds(b, hulls)),
        BoolNode::And(xs) => {
            let mut any_unknown = false;
            for x in xs {
                match tri_bool(x, hulls) {
                    Tri::False => return Tri::False,
                    Tri::Unknown => any_unknown = true,
                    Tri::True => {}
                }
            }
            if any_unknown {
                Tri::Unknown
            } else {
                Tri::True
            }
        }
        BoolNode::Or(xs) => {
            let mut any_unknown = false;
            for x in xs {
                match tri_bool(x, hulls) {
                    Tri::True => return Tri::True,
                    Tri::Unknown => any_unknown = true,
                    Tri::False => {}
                }
            }
            if any_unknown {
                Tri::Unknown
            } else {
                Tri::False
            }
        }
        BoolNode::Not(a) => match tri_bool(a, hulls) {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        },
        BoolNode::Implies(a, b) => match (tri_bool(a, hulls), tri_bool(b, hulls)) {
            (Tri::False, _) | (_, Tri::True) => Tri::True,
            (Tri::True, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        },
    }
}
