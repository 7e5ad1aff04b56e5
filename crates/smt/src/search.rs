//! The solver's hot loop: trail-based depth-first search with worklist
//! propagation, one-pass branch-and-bound and closed-form rows.
//!
//! Five structural choices keep the cost low (the naive engine they
//! replaced is retained verbatim in [`crate::reference`] for differential
//! testing):
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
//! * **One pass**: an improving leaf tightens the incumbent and the
//!   depth-first search simply continues. Each ancestor, when control
//!   returns to it, re-filters *its own* level under the new incumbent
//!   (permanently at the root, trailed below it) before trying its next
//!   candidate, so a subtree is refuted once — under the best incumbent
//!   known when it is reached — and never re-entered.
//! * **Closed-form rows**: every EATSS constraint is a sum of products of
//!   tile sizes `≤` a capacity, and the objective is such a sum. Each is
//!   lowered once per search into a flat row ([`crate::row`]) and revised
//!   by one saturating pass that yields the row's interval and, per
//!   watched variable, its coefficient `a`; the values a capacity keeps
//!   are then `v ≤ ⌊(cap − b)/a⌋` and those the incumbent bound keeps
//!   `v > ⌊(inc − b)/a⌋`, a cut found by `partition_point` at no
//!   evaluation. It is exact: on non-negative operands saturating `+` and
//!   `·` give `min(exact, i64::MAX)` at every step, which is what the
//!   tree's interval evaluation computes, so a row's ends are the tree's
//!   and each cut is the one the per-value probe finds; where the pass's
//!   end or `a` saturated, the variable is probed. Everything that is not
//!   a row (an `=`, a `≠`, a disjunction, a signed product, a repeated
//!   factor) is probed value by value ([`Search::probe`], the spec); a
//!   unary constraint so probed at the root is entailed from then on and
//!   stops watching its variable. A tile's warp alignment is no
//!   constraint at all: it is the domain the tile was declared with.
//!
//! All five preserve exact results: propagation only removes values proven
//! inconsistent, the exhaustive search still visits every surviving
//! assignment, and bound pruning discards only subtrees the active
//! `OBJ > best` constraint would reject anyway. Variable order (smallest
//! domain first) and value order ([`next_candidate`], largest first) are
//! what decides *which* of several equal-valued optima is met first, so
//! none of the above touches them.
//!
//! Every hull check, probe and leaf check is one interval evaluation — a
//! row pass, or [`bounds`]/[`tri_bool`] over the tree — and their fixed
//! cost is most of a solve's. Per select of the `select-cold` benchmark
//! workload (seed 1, counted on an instrumented build), closed-form rows
//! replaced the polarity analysis and its bisection as follows:
//!
//! | evaluations per select | bisection | closed form |
//! |---|---|---|
//! | capacity hull checks (`revise`) | 166.1 | 166.1 row passes |
//! | bound hull checks (`revise_bound`) | 29.9 | 29.9 row passes |
//! | node-entry bound cuts (`dfs`) | 13.1 | 13.1 row passes |
//! | leaf objective values | 5.4 | 5.4 |
//! | filter probes: far-end tests + bisection steps | 176.3 + 357.9 | 0 (176.3 cuts) |
//! | total | 748.6 | 214.3 |
//!
//! An endpoint is the exact value saturated to the `i64` range, computed
//! with saturating `i64` operations (two products, not four, when no
//! factor can be negative); see [`Interval`]. An inner node builds no
//! assignment, and a cut keeps the domain's order instead of sorting it
//! again.

use crate::domain::Domain;
use crate::expr::{BoolExpr, BoolNode, CmpOp, IntExpr, IntNode, VarId};
use crate::interval::Interval;
use crate::row::{End, Row, Rows};
use crate::solver::{budget_stop, SolverConfig, StopReason};
use crate::stats::SolverStats;
use crate::trail::Trail;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

/// Three-valued verdict of interval constraint evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tri {
    True,
    False,
    Unknown,
}

impl Tri {
    /// `True` where `holds`, else `False` where `fails`, else `Unknown`.
    fn of(holds: bool, fails: bool) -> Tri {
        match (holds, fails) {
            (true, _) => Tri::True,
            (_, true) => Tri::False,
            _ => Tri::Unknown,
        }
    }
}

/// Poll the clock/cancel flag every this many search nodes — often enough
/// that a 10 ms deadline is honoured promptly, rare enough that
/// `Instant::now` stays off the hot path.
const BUDGET_POLL_PERIOD: u64 = 64;

/// Domains larger than this are filtered by hull reasoning only; exact
/// per-value probing is reserved for small domains where it pays off.
pub(crate) const PROBE_LIMIT: usize = 4096;

/// A branching variable's next candidate after `tried` (its first when
/// `None`): the largest value below it. Large tiles score high, so the
/// maximization climbs in few improvements (like Z3's default behaviour
/// on these formulations). Looking the successor up in the *current*
/// domain lets a node skip candidates that a tightened incumbent removed
/// while an earlier sibling was being searched.
pub(crate) fn next_candidate(domain: &Domain, tried: Option<i64>) -> Option<i64> {
    let values = domain.values();
    let untried = tried.map_or(values.len(), |t| values.partition_point(|&v| v < t));
    values[..untried].last().copied()
}

/// Every candidate of a branching variable in [`next_candidate`] order.
pub(crate) fn branch_order(domain: &Domain) -> impl Iterator<Item = i64> + '_ {
    std::iter::successors(next_candidate(domain, None), move |&v| {
        next_candidate(domain, Some(v))
    })
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
    /// The objective lowered to a row, when it qualifies.
    row: Option<Row>,
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
    /// optimum-valued leaf are never cut. The seed only removes
    /// provably-suboptimal work; it can change *which* optimum-valued leaf
    /// is met first when there are several (see [`crate::WarmStart`]).
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
    /// When maximizing: the objective value of every incumbent in the
    /// order it was taken, strictly increasing; the last is `values`'.
    pub(crate) incumbents: Vec<i64>,
    /// Why the search stopped early, if it did.
    pub(crate) stop: Option<StopReason>,
}

/// One `check` call's worth of search state.
pub(crate) struct Search<'a> {
    constraints: &'a [(BoolExpr, Vec<VarId>)],
    /// Every row of this search: the capacities and the objective.
    rows: Rows,
    /// Per constraint, its row and capacity when it lowered to one.
    capacities: Vec<Option<(Row, i64)>>,
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
    /// exhaustive pass proves optimality.
    bound: Option<ObjectiveBound<'a>>,
    /// Variables of the bound objective (they watch the virtual
    /// constraint), in the order of its row's slots.
    bound_vars: Vec<VarId>,
    /// Best assignment found so far in optimize mode, and the objective
    /// value of each incumbent taken on the way to it.
    best: Option<Vec<i64>>,
    incumbents: Vec<i64>,
}

impl<'a> Search<'a> {
    pub(crate) fn new(
        base_domains: &[Domain],
        constraints: &'a [(BoolExpr, Vec<VarId>)],
        config: &'a SolverConfig,
        stats: &'a mut SolverStats,
        deadline_at: Option<Instant>,
        mode: SearchMode<'a>,
    ) -> Self {
        let domains = base_domains.to_vec();
        // The only full O(V) hull construction in a check: every later
        // update is per-variable. `SolverStats::hull_rebuilds` counts these
        // so a regression back to per-round rebuilds is detectable.
        let hulls: Vec<Interval> = domains.iter().map(Domain::hull).collect();
        stats.hull_rebuilds += 1;
        let mut watchers = vec![Vec::new(); domains.len()];
        let mut rows = Rows::default();
        let mut capacities = Vec::with_capacity(constraints.len());
        for (ci, (constraint, vars)) in constraints.iter().enumerate() {
            for v in vars {
                watchers[v.index()].push(ci as u32);
            }
            capacities.push(rows.capacity(constraint, vars, &hulls));
        }
        // The incumbent bound is a virtual constraint at index
        // `constraints.len()`: the objective's variables watch it so the
        // worklist revisits it like any asserted constraint.
        let mut bound_vars = Vec::new();
        let bound = match mode {
            SearchMode::Satisfy => None,
            SearchMode::Optimize { objective, floor } => {
                objective.collect_vars(&mut bound_vars);
                for v in &bound_vars {
                    watchers[v.index()].push(constraints.len() as u32);
                }
                Some(ObjectiveBound {
                    objective,
                    row: rows.lower(objective, &bound_vars, &hulls),
                    incumbent: floor,
                })
            }
        };
        let nodes_at_entry = stats.nodes;
        Search {
            constraints,
            rows,
            capacities,
            config,
            stats,
            trail: Trail::new(domains.len()),
            domains,
            hulls,
            watchers,
            queue: VecDeque::with_capacity(constraints.len() + 1),
            in_queue: vec![false; constraints.len() + 1],
            nodes_at_entry,
            deadline_at,
            stop: None,
            bound,
            bound_vars,
            best: None,
            incumbents: Vec::new(),
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
        let found = self.dfs();
        // A maximizing search never returns from `dfs` with a model —
        // improving leaves are recorded and the search continues.
        Pass {
            values: self.best.or(found),
            incumbents: self.incumbents,
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
            self.enqueue(self.watchers[var][wi]);
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
                if b.hull(&mut self.rows, &self.hulls).hi() <= incumbent {
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
            // Every hull is a singleton, and propagation ran to its
            // fixpoint: each constraint was revised after its last
            // variable was pinned, exactly, and held.
            debug_assert!(holds_at(self.constraints, &self.hulls));
            let Some(b) = &mut self.bound else {
                return Some(values);
            };
            // Exact strict-improvement check: the incumbent bound admits
            // only models that beat it, matching the semantics of the
            // paper's asserted `OBJ > best` constraint.
            let value = value_at(b.objective, &self.hulls);
            if b.incumbent.is_none_or(|inc| value > inc) {
                // Record the improvement and tighten the incumbent in
                // place; the search goes on, and each ancestor re-filters
                // its level when control returns to it. Exhausting the
                // tree is the optimality proof.
                b.incumbent = Some(value);
                self.best = Some(values);
                self.incumbents.push(value);
            } else {
                self.stats.bound_prunes += 1;
            }
            return None;
        }
        // Branch on the smallest non-singleton domain.
        let (var_idx, _) = self
            .domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.len() > 1)
            .min_by_key(|(_, d)| d.len())?;
        let mut candidate = next_candidate(&self.domains[var_idx], None);
        while let Some(value) = candidate {
            if self.out_of_budget() {
                return None;
            }
            self.stats.nodes += 1;
            let incumbents_before = self.incumbents.len();
            self.trail.push_level();
            self.narrow(var_idx, Domain::singleton(value));
            if let Some(values) = self.dfs() {
                return Some(values);
            }
            self.trail.pop_level(&mut self.domains, &mut self.hulls);
            self.stats.backtracks += 1;
            if self.stop.is_some() {
                return None;
            }
            // The incumbent rose somewhere below: re-filter this level
            // under it before the next candidate (which the filtering may
            // remove). Only the bound needs re-propagating — its narrowing
            // cascades through the watchers, and everything else about
            // this level is already at fixpoint.
            if self.incumbents.len() != incumbents_before {
                self.enqueue(self.constraints.len() as u32);
                if !self.propagate() {
                    return None;
                }
            }
            candidate = next_candidate(&self.domains[var_idx], Some(value));
        }
        None
    }

    /// Drains the dirty-constraint worklist to its fixpoint. Returns
    /// `false` on inconsistency, with the queue cleared.
    ///
    /// It terminates: within a call, a constraint is re-enqueued only after
    /// [`Search::probe`] or [`Search::cut`] strictly narrows a finite
    /// domain of at most [`PROBE_LIMIT`] values, so the visits are bounded
    /// by the queue it starts with plus Σ|D| · watchers.
    fn propagate(&mut self) -> bool {
        let started = Instant::now();
        let ok = loop {
            let Some(ci) = self.queue.pop_front() else {
                break true;
            };
            self.in_queue[ci as usize] = false;
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

    /// The per-value probe, every filter's spec: narrows `domains[idx]`
    /// to the values `keep` accepts with the variable's hull pinned to
    /// each in turn; `false` on a wipe-out. Domains of one value (the hull
    /// check has spoken for it) or of more than [`PROBE_LIMIT`] are left
    /// alone, here and in [`Search::cut`].
    fn probe(&mut self, idx: usize, keep: impl Fn(&[Interval]) -> bool) -> bool {
        let values = self.domains[idx].values();
        if !(2..=PROBE_LIMIT).contains(&values.len()) {
            return true;
        }
        // Pin this variable's hull to a singleton *in place* — no
        // `hulls.clone()` per variable.
        let saved_hull = self.hulls[idx];
        let hulls = &mut self.hulls;
        let kept: Vec<i64> = (values.iter().copied())
            .filter(|&v| {
                hulls[idx] = Interval::singleton(v);
                keep(hulls)
            })
            .collect();
        self.hulls[idx] = saved_hull;
        self.keep_only(idx, kept)
    }

    /// Narrows `domains[idx]` to the positions a row's closed form keeps
    /// (a prefix or a suffix of the sorted domain): no evaluation.
    fn cut(&mut self, idx: usize, kept: impl FnOnce(&[i64]) -> Range<usize>) -> bool {
        let values = self.domains[idx].values();
        if !(2..=PROBE_LIMIT).contains(&values.len()) {
            return true;
        }
        let kept = kept(values);
        if kept.len() == values.len() {
            return true;
        }
        let kept = values[kept].to_vec();
        self.keep_only(idx, kept)
    }

    /// Narrows `domains[idx]` to `kept`, a subsequence of it; `false` when
    /// nothing is kept.
    fn keep_only(&mut self, idx: usize, kept: Vec<i64>) -> bool {
        let pruned = self.domains[idx].len() - kept.len();
        if pruned == 0 {
            return true;
        }
        self.stats.values_pruned += pruned as u64;
        if kept.is_empty() {
            return false;
        }
        self.narrow(idx, Domain::from_sorted(kept));
        true
    }

    /// Revises one constraint: entailment check by hulls, then exact
    /// filtering of each small domain it watches — a capacity row's cut in
    /// closed form ([`Rows::cut`]), anything else by
    /// [`Search::probe`]. Returns `false` on a wiped-out domain or a
    /// disentailed constraint.
    fn revise(&mut self, ci: usize) -> bool {
        let (constraint, vars) = &self.constraints[ci];
        let capacity = self.capacities[ci];
        let verdict = match capacity {
            Some((row, cap)) => {
                let ends = self.rows.pass(row, &self.hulls, End::Lo);
                tri_cmp(CmpOp::Le, ends, Interval::singleton(cap))
            }
            None => tri_bool(constraint, &self.hulls),
        };
        match verdict {
            Tri::False => return false,
            Tri::True => return true,
            Tri::Unknown => {}
        }
        for (slot, &var) in vars.iter().enumerate() {
            let idx = var.index();
            // A unary constraint filtered exactly with no level open is
            // entailed for the rest of the search: root narrowing is
            // permanent, and no later narrowing can make a kept value
            // refutable. It stops watching its variable.
            if vars.len() == 1 && self.trail.depth() == 0 && self.domains[idx].len() <= PROBE_LIMIT {
                self.watchers[idx].retain(|&c| c as usize != ci);
            }
            let cut = capacity.and_then(|(_, cap)| self.rows.cut(slot, self.hulls[idx], cap));
            let consistent = match cut {
                Some(t) => self.cut(idx, |values| 0..values.partition_point(|&v| v <= t)),
                None => self.probe(idx, |hulls| tri_bool(constraint, hulls) != Tri::False),
            };
            if !consistent {
                return false;
            }
        }
        true
    }

    /// Revises the virtual `objective > incumbent` constraint: refute the
    /// subtree when the hull upper bound cannot beat the incumbent, and
    /// filter the objective's variables to drop values that cannot either
    /// — in closed form ([`Rows::cut`]) when the objective is a row.
    /// Every refutation here is incumbent-driven, so it counts toward
    /// [`SolverStats::bound_prunes`].
    fn revise_bound(&mut self) -> bool {
        let Some(b) = &self.bound else { return true };
        // No incumbent yet: the virtual constraint is inert.
        let Some(incumbent) = b.incumbent else {
            return true;
        };
        let (objective, row) = (b.objective, b.row);
        let hull = b.hull(&mut self.rows, &self.hulls);
        if hull.is_empty() || hull.hi() <= incumbent {
            self.stats.bound_prunes += 1;
            return false;
        }
        if hull.lo() > incumbent {
            return true; // Entailed: every assignment below improves.
        }
        for slot in 0..self.bound_vars.len() {
            let idx = self.bound_vars[slot].index();
            let cut = row.and_then(|_| self.rows.cut(slot, self.hulls[idx], incumbent));
            let consistent = match cut {
                Some(t) => self.cut(idx, |values| {
                    values.partition_point(|&v| v <= t)..values.len()
                }),
                None => self.probe(idx, |hulls| bounds(objective, hulls).hi() > incumbent),
            };
            if !consistent {
                self.stats.bound_prunes += 1;
                return false;
            }
        }
        true
    }
}

impl ObjectiveBound<'_> {
    /// The objective's interval over `hulls`: one pass of its row at the
    /// high ends (keeping the coefficients [`Rows::cut`] reads), or the
    /// tree's when it did not lower.
    fn hull(&self, rows: &mut Rows, hulls: &[Interval]) -> Interval {
        match self.row {
            Some(row) => rows.pass(row, hulls, End::Hi),
            None => bounds(self.objective, hulls),
        }
    }
}

/// The assignment a search state pins, if every domain is a singleton.
/// Checked before anything is collected, so an inner node allocates
/// nothing.
pub(crate) fn assignment_of(domains: &[Domain]) -> Option<Vec<i64>> {
    if !domains.iter().all(Domain::is_singleton) {
        return None;
    }
    Some(domains.iter().filter_map(Domain::as_singleton).collect())
}

/// Interval evaluation of an integer expression given per-variable hulls.
pub(crate) fn bounds(expr: &IntExpr, hulls: &[Interval]) -> Interval {
    match &*expr.0 {
        IntNode::Const(v) => Interval::singleton(*v),
        IntNode::Var(id, _) => hulls
            .get(id.index())
            .copied()
            .unwrap_or_else(Interval::top),
        // Folded from the first term: `0 + x` and `1 · x` are `x` exactly.
        IntNode::Add(xs) => xs
            .iter()
            .map(|x| bounds(x, hulls))
            .reduce(|acc, x| acc + x)
            .unwrap_or(Interval::singleton(0)),
        IntNode::Mul(xs) => xs
            .iter()
            .map(|x| bounds(x, hulls))
            .reduce(|acc, x| acc * x)
            .unwrap_or(Interval::singleton(1)),
    }
}

/// The value of `expr` at a point (every hull a singleton, so every
/// operation yields one value).
pub(crate) fn value_at(expr: &IntExpr, point: &[Interval]) -> i64 {
    bounds(expr, point).lo()
}

/// Whether every constraint holds at a point — the leaf check.
pub(crate) fn holds_at(constraints: &[(BoolExpr, Vec<VarId>)], point: &[Interval]) -> bool {
    constraints
        .iter()
        .all(|(c, _)| tri_bool(c, point) == Tri::True)
}

fn tri_cmp(op: CmpOp, a: Interval, b: Interval) -> Tri {
    if a.is_empty() || b.is_empty() {
        return Tri::False;
    }
    let equal = a.is_singleton() && a == b;
    match op {
        CmpOp::Le => Tri::of(a.hi() <= b.lo(), a.lo() > b.hi()),
        CmpOp::Eq => Tri::of(equal, a.intersect(b).is_empty()),
        CmpOp::Ne => Tri::of(a.intersect(b).is_empty(), equal),
    }
}

/// Kleene three-valued evaluation of a constraint under interval hulls.
pub(crate) fn tri_bool(expr: &BoolExpr, hulls: &[Interval]) -> Tri {
    match &*expr.0 {
        BoolNode::Cmp(op, a, b) => tri_cmp(*op, bounds(a, hulls), bounds(b, hulls)),
        // Decided by the first `True`; short of that, any `Unknown` leaves
        // it open.
        BoolNode::Or(xs) => {
            let mut verdict = Tri::False;
            for x in xs {
                match tri_bool(x, hulls) {
                    Tri::True => return Tri::True,
                    Tri::Unknown => verdict = Tri::Unknown,
                    Tri::False => {}
                }
            }
            verdict
        }
    }
}

#[cfg(test)]
mod tests {
    //! A row's closed form must be the per-value probe (the spec) in one
    //! step: its interval is the tree's bit for bit, its cut keeps exactly
    //! the values `tri_bool` keeps on a brute-force scan, and a search that
    //! cuts builds node for node the tree of one that probes — on
    //! EATSS-shaped formulations at every scale (tile-like, with zeros,
    //! near `i64::MAX`, under `cap = i64::MAX`), and on unrestricted ones,
    //! which must not lower.

    use super::*;
    use crate::Solver;
    use proptest::prelude::TestRng;

    const CASES: u32 = 2000;

    /// A uniform draw from `lo..=hi`, for any `i64` range.
    fn pick(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
        let span = (i128::from(hi) - i128::from(lo) + 1) as u128;
        (i128::from(lo) + (u128::from(rng.next_u64()) % span) as i128) as i64
    }

    /// The magnitudes of an EATSS-shaped case.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Scale {
        /// Tile sizes, weights and capacities.
        Tiles,
        /// Zero weights, and variables that can be 0.
        Zeros,
        /// Small values or values up to `2^42`, weights up to `i64::MAX`,
        /// and capacities and incumbents anywhere: products, ends and
        /// coefficients saturate.
        Huge,
        /// Tile sizes under `cap = i64::MAX`.
        CapMax,
    }

    /// Three variables over small domains: contiguous or thinned,
    /// non-negative like tile sizes at `scale` or (when `None`)
    /// straddling zero.
    fn variables(rng: &mut TestRng, s: &mut Solver, scale: Option<Scale>) -> Vec<IntExpr> {
        (0..3)
            .map(|i| {
                let (lo, unit) = match scale {
                    None => (pick(rng, -6, 3), 1),
                    Some(Scale::Zeros) => (pick(rng, 0, 2), 1),
                    Some(Scale::Huge) if pick(rng, 0, 1) == 0 => (pick(rng, 0, 3), 1),
                    Some(Scale::Huge) => {
                        (pick(rng, 0, 3) << pick(rng, 0, 40), 1 << pick(rng, 0, 30))
                    }
                    Some(Scale::Tiles | Scale::CapMax) => (pick(rng, 1, 4), 1),
                };
                let count = pick(rng, 0, 14);
                let stride = pick(rng, 1, 3);
                let values = (0..=count)
                    .map(|k| lo + k * unit)
                    .filter(|v| v % stride == 0 || *v == lo)
                    .collect();
                s.int_var_in(&format!("v{i}"), Domain::from_values(values))
            })
            .collect()
    }

    /// A product's weight at `scale`.
    fn weight(rng: &mut TestRng, scale: Scale) -> i64 {
        match scale {
            Scale::Zeros => pick(rng, 0, 3),
            Scale::Huge if pick(rng, 0, 3) == 0 => i64::MAX - pick(rng, 0, 2),
            Scale::Huge => pick(rng, 0, 3) << pick(rng, 0, 61),
            Scale::Tiles | Scale::CapMax => pick(rng, 1, 5),
        }
    }

    /// A value in `0..=i64::MAX >> k` for a random `k`, or as far below
    /// `i64::MAX`, where saturated ends straddle it.
    fn at_any_magnitude(rng: &mut TestRng) -> i64 {
        let shift = pick(rng, 0, 62);
        let below = pick(rng, 0, i64::MAX >> shift);
        if pick(rng, 0, 1) == 0 {
            below
        } else {
            i64::MAX - below
        }
    }

    /// A capacity at `scale`.
    fn capacity(rng: &mut TestRng, scale: Scale) -> i64 {
        match scale {
            Scale::Tiles => pick(rng, 1, 400),
            Scale::Zeros => pick(rng, 0, 400),
            Scale::Huge => at_any_magnitude(rng),
            Scale::CapMax => i64::MAX,
        }
    }

    /// An incumbent at the case's scale.
    fn incumbent(rng: &mut TestRng, scale: Option<Scale>) -> i64 {
        match scale {
            Some(Scale::Huge) => at_any_magnitude(rng) - 50,
            _ => pick(rng, -50, 400),
        }
    }

    /// A sum of products of variables with non-negative weights — the
    /// shape of every EATSS capacity constraint and of the objective. One
    /// product in eight is a power of one variable; of degree two or more
    /// it repeats the variable, and the sum does not lower.
    fn sum_of_products(rng: &mut TestRng, vars: &[IntExpr], scale: Scale) -> IntExpr {
        IntExpr::sum((0..pick(rng, 1, 3)).map(|_| {
            let weight = IntExpr::constant(weight(rng, scale));
            let (first, count) = (pick(rng, 0, 2), pick(rng, 1, 3));
            let step = if pick(rng, 0, 7) == 0 { 0 } else { 1 };
            let factors = (0..count).map(|k| vars[((first + k * step) % 3) as usize].clone());
            IntExpr::product(std::iter::once(weight).chain(factors))
        }))
    }

    /// Any expression the tree admits, including the non-monotone ones:
    /// signed products and differences `a + (−1)·b`.
    fn any_expr(rng: &mut TestRng, vars: &[IntExpr], depth: u32) -> IntExpr {
        if depth == 0 || pick(rng, 0, 3) == 0 {
            return match pick(rng, 0, 2) {
                0 => IntExpr::constant(pick(rng, -4, 9)),
                _ => vars[pick(rng, 0, 2) as usize].clone(),
            };
        }
        let a = any_expr(rng, vars, depth - 1);
        let b = any_expr(rng, vars, depth - 1);
        match pick(rng, 0, 2) {
            0 => a + b,
            1 => a * b,
            _ => a + IntExpr::constant(-1) * b,
        }
    }

    /// `a <= b`, `a < b` as `a + 1 <= b`, `a > b` as `b + 1 <= a`, `==` or
    /// `!=`.
    fn comparison(rng: &mut TestRng, a: IntExpr, b: IntExpr) -> BoolExpr {
        let one = IntExpr::constant(1);
        match pick(rng, 0, 4) {
            0 => a.le(b),
            1 => (a + one).le(b),
            2 => (b + one).le(a),
            3 => a.eq_expr(b),
            _ => a.ne_expr(b),
        }
    }

    /// One random formulation: a constraint and an objective, alternating
    /// between the EATSS shape (cycling through the scales) and the
    /// unrestricted one, whose scale is `None`.
    fn formulation(rng: &mut TestRng, case: u32) -> (Solver, IntExpr, Option<Scale>) {
        let mut s = Solver::new();
        let scales = [Scale::Tiles, Scale::Zeros, Scale::Huge, Scale::CapMax];
        let scale = case
            .is_multiple_of(2)
            .then(|| scales[(case / 2 % 4) as usize]);
        let vars = variables(rng, &mut s, scale);
        let (constraint, objective) = if let Some(scale) = scale {
            let cap = IntExpr::constant(capacity(rng, scale));
            let lhs = sum_of_products(rng, &vars, scale);
            let one = IntExpr::constant(1);
            let constraint = match pick(rng, 0, 5) {
                0 | 1 => lhs.le(cap),
                2 | 3 => (lhs + one).le(cap),
                4 => cap.le(lhs),
                _ => (cap + one).le(lhs),
            };
            (constraint, sum_of_products(rng, &vars, scale))
        } else {
            let atom = |rng: &mut TestRng| {
                let (a, b) = (any_expr(rng, &vars, 3), any_expr(rng, &vars, 2));
                comparison(rng, a, b)
            };
            let constraint = match pick(rng, 0, 3) {
                0 => atom(rng).or(atom(rng)),
                1 => BoolExpr::any([atom(rng), atom(rng), atom(rng)]),
                _ => atom(rng),
            };
            (constraint, any_expr(rng, &vars, 3))
        };
        s.assert(constraint);
        (s, objective, scale)
    }

    /// A random sub-hull of every domain — the states a search can reach.
    fn narrowed(rng: &mut TestRng, domains: &[Domain]) -> Vec<Domain> {
        domains
            .iter()
            .map(|d| {
                let values = d.values();
                let from = pick(rng, 0, values.len() as i64 - 1) as usize;
                let to = pick(rng, from as i64, values.len() as i64 - 1) as usize;
                Domain::from_values(values[from..=to].to_vec())
            })
            .collect()
    }

    fn search_over<'a>(
        domains: &[Domain],
        solver: &'a Solver,
        config: &'a SolverConfig,
        stats: &'a mut SolverStats,
        objective: &'a IntExpr,
    ) -> Search<'a> {
        let mode = SearchMode::Optimize {
            objective,
            floor: None,
        };
        Search::new(domains, solver.constraint_entries(), config, stats, None, mode)
    }

    impl Search<'_> {
        /// The spec: the same search with every row forgotten, so all
        /// filtering goes through the per-value probe and every hull
        /// through the tree.
        fn probing(mut self) -> Self {
            self.capacities.fill(None);
            if let Some(b) = &mut self.bound {
                b.row = None;
            }
            self
        }

        /// How many of its constraints and objective lowered to rows.
        fn lowered(&self) -> usize {
            let objective = self.bound.as_ref().is_some_and(|b| b.row.is_some());
            self.capacities.iter().flatten().count() + usize::from(objective)
        }
    }

    /// What a row is checked as: the capacity atom `row ≤ cap`, or the
    /// incumbent bound `row > incumbent`.
    #[derive(Clone, Copy)]
    enum Side<'a> {
        Capacity(&'a BoolExpr, i64),
        Bound(i64),
    }

    /// Checks `row`, lowered from `expr`, in one narrowed state: its pass
    /// is `bounds(expr)` bit for bit, at the state's hulls and at every
    /// point of a brute-force scan of each watched variable; and where the
    /// hull check leaves the row open, the closed-form cut keeps exactly
    /// the values the scan keeps (`tri_bool` for a capacity, `hi > inc`
    /// for the bound). Returns how many variables were cut in closed form
    /// and how many declined because the pass saturated.
    fn check_row(
        rows: &mut Rows,
        (row, expr): (Row, &IntExpr),
        side: Side,
        vars: &[VarId],
        domains: &[Domain],
    ) -> (u32, u32) {
        let mut hulls: Vec<Interval> = domains.iter().map(Domain::hull).collect();
        let (end, level) = match side {
            Side::Capacity(_, cap) => (End::Lo, cap),
            Side::Bound(incumbent) => (End::Hi, incumbent),
        };
        let ends = rows.pass(row, &hulls, end);
        assert_eq!(ends, bounds(expr, &hulls), "{expr}");
        let keep = |h: &[Interval]| match side {
            Side::Capacity(atom, _) => tri_bool(atom, h) != Tri::False,
            Side::Bound(incumbent) => bounds(expr, h).hi() > incumbent,
        };
        if let Side::Capacity(atom, cap) = side {
            let verdict = tri_cmp(CmpOp::Le, ends, Interval::singleton(cap));
            assert_eq!(verdict, tri_bool(atom, &hulls), "{atom}");
        }
        if ends.is_empty() || ends.lo() > level || ends.hi() <= level {
            return (0, 0);
        }
        let cuts: Vec<Option<i64>> = (vars.iter().enumerate())
            .map(|(slot, var)| rows.cut(slot, hulls[var.index()], level))
            .collect();
        let (mut cut, mut saturated) = (0, 0);
        for (&var, t) in vars.iter().zip(cuts) {
            let (idx, values) = (var.index(), domains[var.index()].values());
            let saved = hulls[idx];
            let mut flags = Vec::new();
            for &v in values {
                hulls[idx] = Interval::singleton(v);
                assert_eq!(
                    rows.pass(row, &hulls, end),
                    bounds(expr, &hulls),
                    "{expr} at {v}"
                );
                flags.push(keep(&hulls));
            }
            hulls[idx] = saved;
            let Some(t) = t else {
                saturated += 1;
                continue;
            };
            cut += 1;
            let closed: Vec<bool> = (values.iter())
                .map(|&v| match side {
                    Side::Capacity(..) => v <= t,
                    Side::Bound(_) => v > t,
                })
                .collect();
            assert_eq!(closed, flags, "{expr} vs {level} in {var:?}: cut at {t}");
        }
        (cut, saturated)
    }

    #[test]
    fn lowered_rows_agree_with_tri_bool_on_every_point() {
        let (mut lowered, mut cuts, mut saturated, mut cap_max) = (0, 0, 0, 0);
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("lowered_rows", case);
            let (solver, objective, scale) = formulation(rng, case);
            let base: Vec<Interval> = solver.base_domains().iter().map(Domain::hull).collect();
            let (atom, vars) = &solver.constraint_entries()[0];
            let mut objective_vars = Vec::new();
            objective.collect_vars(&mut objective_vars);
            // Rows are lowered over the base hulls and must hold in every
            // state the search narrows them to.
            let mut rows = Rows::default();
            let capacity = rows.capacity(atom, vars, &base);
            let objective_row = rows.lower(&objective, &objective_vars, &base);
            lowered += u32::from(capacity.is_some()) + u32::from(objective_row.is_some());
            for _ in 0..4 {
                let domains = narrowed(rng, solver.base_domains());
                let incumbent = incumbent(rng, scale);
                let mut tally = |(c, s)| {
                    cuts += c;
                    saturated += s;
                };
                if let Some((row, cap)) = capacity {
                    let BoolNode::Cmp(_, lhs, _) = &*atom.0 else {
                        unreachable!("a capacity is a `<=` atom")
                    };
                    let side = Side::Capacity(atom, cap);
                    tally(check_row(&mut rows, (row, lhs), side, vars, &domains));
                    cap_max += u32::from(cap == i64::MAX);
                }
                if let Some(row) = objective_row {
                    let side = Side::Bound(incumbent);
                    let (objective, vars) = ((row, &objective), &objective_vars);
                    tally(check_row(&mut rows, objective, side, vars, &domains));
                }
            }
        }
        let counts =
            format!("{lowered} rows, {cuts} cuts, {saturated} saturated, {cap_max} at i64::MAX");
        assert!(
            lowered > CASES / 2 && cuts > CASES / 2 && saturated > 50 && cap_max > 50,
            "{counts}"
        );
    }

    #[test]
    fn one_revision_filters_exactly_like_the_per_value_probe() {
        let config = SolverConfig::default();
        let mut lowered = 0;
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("one_revision", case);
            let (solver, objective, scale) = formulation(rng, case);
            let domains = narrowed(rng, solver.base_domains());
            let incumbent = incumbent(rng, scale);
            let (mut stats_cut, mut stats_probe) = Default::default();
            // Rows are lowered over the base hulls, the revision starts
            // from a narrowed state: what a node deep in the tree sees.
            let mut cut = search_over(solver.base_domains(), &solver, &config, &mut stats_cut, &objective);
            lowered += cut.lowered();
            let mut probe =
                search_over(solver.base_domains(), &solver, &config, &mut stats_probe, &objective)
                    .probing();
            for search in [&mut cut, &mut probe] {
                search.trail.push_level();
                for (idx, domain) in domains.iter().enumerate() {
                    search.narrow(idx, domain.clone());
                }
                search.clear_queue();
                if let Some(b) = &mut search.bound {
                    b.incumbent = Some(incumbent);
                }
            }
            assert_eq!(cut.revise(0), probe.revise(0), "case {case}: revise verdict");
            assert_eq!(cut.domains, probe.domains, "case {case}: domains after revise");
            assert_eq!(cut.revise_bound(), probe.revise_bound(), "case {case}: bound verdict");
            assert_eq!(cut.domains, probe.domains, "case {case}: domains after revise_bound");
            assert_eq!(stats_cut.values_pruned, stats_probe.values_pruned, "case {case}");
        }
        assert!(lowered > CASES as usize / 2, "{lowered} rows");
    }

    #[test]
    fn cuts_leave_the_search_tree_unchanged() {
        // Same filtered domains at every node means the same tree: equal
        // node counts, improvement sequences and models, cut or probed.
        let config = SolverConfig::default();
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("same_tree", case);
            let (solver, objective, _) = formulation(rng, case);
            let (mut stats_cut, mut stats_probe) = Default::default();
            let cut = search_over(solver.base_domains(), &solver, &config, &mut stats_cut, &objective)
                .run();
            let probe =
                search_over(solver.base_domains(), &solver, &config, &mut stats_probe, &objective)
                    .probing()
                    .run();
            assert_eq!(cut.values, probe.values, "case {case}: model");
            assert_eq!(cut.incumbents, probe.incumbents, "case {case}: improvements");
            assert_eq!(stats_cut.nodes, stats_probe.nodes, "case {case}: nodes");
            assert_eq!(stats_cut.bound_prunes, stats_probe.bound_prunes, "case {case}");
            assert_eq!(stats_cut.values_pruned, stats_probe.values_pruned, "case {case}");
        }
    }

    #[test]
    fn eatss_shaped_atoms_are_cut_and_holes_are_probed() {
        let mut s = Solver::new();
        let ti = s.int_var("Ti", 1, 64);
        let tj = s.int_var("Tj", 1, 64);
        let tk = s.int_var("Tk", -4, 64);
        let base: Vec<Interval> = s.base_domains().iter().map(Domain::hull).collect();
        let lowers = |atom: &BoolExpr| {
            let mut vars = Vec::new();
            atom.collect_vars(&mut vars);
            Rows::default().capacity(atom, &vars, &base).is_some()
        };
        let c = IntExpr::constant;
        // A capacity (registers nest a product in a product, memory sums
        // volumes) and an objective, as the model generator builds them.
        let capacity = (ti.clone() * tj.clone() + c(2) * tj.clone()).le(512);
        assert!(lowers(&capacity));
        assert!(lowers(&((ti.clone() * tj.clone()) * c(6)).le(65536)));
        let volumes = (ti.clone() + tj.clone()) + (c(0) + tj.clone());
        assert!(lowers(&volumes.le(4096)));
        let objective = c(0) + ti.clone() * tj.clone() + c(16) * ti.clone();
        let vars = [VarId(0), VarId(1)];
        assert!(Rows::default().lower(&objective, &vars, &base).is_some());
        // A hole, a difference, a product with a factor that may be
        // negative, a repeated factor, a product of sums, a right side
        // that is no constant, and anything that is not a single `<=`
        // atom: probed.
        let minus = |x: IntExpr| c(-1) * x;
        let probed = [
            (ti.clone() + tj.clone()).ne_expr(16),
            (ti.clone() * tj.clone() + minus(ti.clone())).le(100),
            (tk.clone() * tj.clone()).le(100),
            (ti.clone() * ti.clone()).le(100),
            ((ti.clone() + c(8)) * tj.clone()).le(100),
            tj.le(&ti),
            c(512).le(ti.clone() * tj.clone()),
            ti.le(8).or(c(32).le(&ti)),
            ti.eq_expr(tj.clone()),
            ti.ne_expr(tj.clone()),
        ];
        for atom in &probed {
            assert!(!lowers(atom), "{atom}");
        }
        // With `Tj = 16` the capacity keeps `16·Ti + 32 ≤ 512`, `Ti ≤ 30`,
        // in one revision and without a probe.
        s.assert(capacity);
        let config = SolverConfig::default();
        let mut stats = SolverStats::default();
        let objective = ti * tj;
        let mut search = search_over(s.base_domains(), &s, &config, &mut stats, &objective);
        search.narrow(1, Domain::singleton(16));
        assert!(search.revise(0));
        assert_eq!(search.domains[0], Domain::range(1, 30));
    }

    #[test]
    fn propagation_and_the_leaf_check_agree_past_two_to_the_61() {
        // x·y·4 = 2^64 saturates to i64::MAX, above the bound, so
        // propagation refutes what the leaf check would: a narrower clamp
        // would saturate the product below the bound and entail it.
        let mut s = Solver::new();
        let x = s.int_var("x", 1 << 31, 1 << 31);
        let y = s.int_var("y", 1 << 31, 1 << 31);
        let c = (x * y * IntExpr::constant(4)).le(i64::MAX / 4 + 1);
        let hulls = [Interval::singleton(1 << 31); 2];
        assert_eq!(tri_bool(&c, &hulls), Tri::False);
        s.assert(c);
        assert!(s.check().unwrap().model.is_none());
    }

    #[test]
    fn a_unary_constraint_probed_at_the_root_stops_watching() {
        let mut s = Solver::new();
        let ti = s.int_var("Ti", 1, 64);
        let tj = s.int_var("Tj", 1, 64);
        s.assert(BoolExpr::any([16, 32, 48, 64].map(|v| ti.eq_expr(v))));
        s.assert((ti.clone() * tj.clone()).le(256));
        let config = SolverConfig::default();
        let mut stats = SolverStats::default();
        let objective = ti * tj;
        let mut search = search_over(s.base_domains(), &s, &config, &mut stats, &objective);
        assert_eq!(search.watchers[0], vec![0, 1, 2]);
        assert!(search.revise(0));
        assert_eq!(search.domains[0].values(), &[16, 32, 48, 64]);
        assert_eq!(search.watchers[0], vec![1, 2], "the choice is entailed from here on");
        // Below the root a probe is undone on backtrack, so it proves nothing.
        search.trail.push_level();
        assert!(search.revise(1));
        assert_eq!(search.watchers[1], vec![1, 2]);
    }

    #[test]
    fn propagation_runs_to_its_fixpoint() {
        // Each revision moves the ends by one value, so refuting the pair
        // takes thousands of visits to two constraints: only a propagation
        // that runs until nothing changes proves it without branching.
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 4000);
        let y = s.int_var("y", 0, 4000);
        s.assert((x.clone() + IntExpr::constant(1)).le(&y));
        s.assert((y + IntExpr::constant(1)).le(&x));
        assert!(s.check().unwrap().model.is_none());
        assert_eq!(s.stats().nodes, 0, "root propagation alone proves it");
    }
}
