//! The solver's hot loop: trail-based depth-first search with worklist
//! propagation, one-pass branch-and-bound and monotone cuts.
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
//! * **Monotone cuts**: EATSS constraints are sums of products of tile
//!   sizes against a capacity, and the objective is one too, so the values
//!   a constraint keeps are a prefix (or suffix) of the sorted domain. Where
//!   a syntactic polarity analysis ([`kept_shape`]) proves that, filtering
//!   tests the extreme value (nothing to prune: one evaluation) and
//!   otherwise bisects for the cut — `O(log |D|)` interval evaluations
//!   instead of `|D|`, the same filtered domain. Everything else (the
//!   `T % WAF == 0` alignment) is probed value by value; a unary
//!   constraint so probed at the root is entailed from then on and stops
//!   watching its variable.
//!
//! All five preserve exact results: propagation only removes values proven
//! inconsistent, the exhaustive search still visits every surviving
//! assignment, and bound pruning discards only subtrees the active
//! `OBJ > best` constraint would reject anyway. Variable order (smallest
//! domain first) and value order ([`next_candidate`], largest first) are
//! what decides *which* of several equal-valued optima is met first, so
//! none of the above touches them.

use crate::domain::Domain;
use crate::expr::{BoolExpr, BoolNode, CmpOp, IntExpr, IntNode, VarId};
use crate::interval::Interval;
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

impl Tri {
    /// `True` where `holds`, else `False` where `fails`, else `Unknown`.
    fn of(holds: bool, fails: bool) -> Tri {
        match (holds, fails) {
            (true, _) => Tri::True,
            (_, true) => Tri::False,
            _ => Tri::Unknown,
        }
    }

    fn not(self) -> Tri {
        Tri::of(self == Tri::False, self == Tri::True)
    }
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

/// How an expression's interval moves as one variable grows, the others'
/// hulls held fixed: both ends of the interval are non-decreasing (`Up`),
/// non-increasing (`Down`), fixed (`Const`), or nothing is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Polarity {
    Const,
    Up,
    Down,
    Unknown,
}

impl Polarity {
    fn join(self, other: Polarity) -> Polarity {
        match (self, other) {
            (Polarity::Const, p) | (p, Polarity::Const) => p,
            (a, b) if a == b => a,
            _ => Polarity::Unknown,
        }
    }

    fn flip(self) -> Polarity {
        match self {
            Polarity::Up => Polarity::Down,
            Polarity::Down => Polarity::Up,
            p => p,
        }
    }
}

/// Syntactic polarity of `expr` in `var`. `hulls` are the search's base
/// hulls: domains only shrink, so a factor that is non-negative over them
/// stays non-negative, and a product of non-negative factors moves with
/// each of them. Interval `+`, `-`, `*`, `min`, `max` and the saturating
/// clamp are all monotone in their operands' ends, which is what carries
/// the claim from the leaves to the root.
fn polarity(expr: &IntExpr, var: VarId, hulls: &[Interval]) -> Polarity {
    let of = |x: &IntExpr| polarity(x, var, hulls);
    match &*expr.0 {
        IntNode::Const(_) => Polarity::Const,
        IntNode::Var(id, _) if *id == var => Polarity::Up,
        IntNode::Var(..) => Polarity::Const,
        IntNode::Add(xs) => xs.iter().fold(Polarity::Const, |p, x| p.join(of(x))),
        IntNode::Mul(xs) => {
            let joined = xs.iter().fold(Polarity::Const, |p, x| p.join(of(x)));
            let signed = xs.iter().any(|x| bounds(x, hulls).lo() < 0);
            if joined != Polarity::Const && signed {
                Polarity::Unknown
            } else {
                joined
            }
        }
        IntNode::Sub(a, b) => of(a).join(of(b).flip()),
        IntNode::Neg(a) => of(a).flip(),
        IntNode::Min(a, b) | IntNode::Max(a, b) => of(a).join(of(b)),
        IntNode::Div(a, b) | IntNode::Mod(a, b) => match of(a).join(of(b)) {
            Polarity::Const => Polarity::Const,
            _ => Polarity::Unknown,
        },
    }
}

/// Which values of one variable's sorted domain a filter can keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kept {
    /// Provably a prefix: once a value is refuted, so is every larger one.
    Prefix,
    /// Provably a suffix: once a value is refuted, so is every smaller one.
    Suffix,
    /// No provable shape — every value is probed.
    Any,
}

/// The shape of the values of `var` that `constraint` keeps. Only a single
/// ordering atom has one: `a <= b` is refuted by `lo(a) > hi(b)`, so when
/// `a - b` moves one way in `var` the refuted values are one end of the
/// domain.
pub(crate) fn kept_shape(constraint: &BoolExpr, var: VarId, hulls: &[Interval]) -> Kept {
    let BoolNode::Cmp(op, a, b) = &*constraint.0 else {
        return Kept::Any;
    };
    let slope = polarity(a, var, hulls).join(polarity(b, var, hulls).flip());
    match (op, slope) {
        (CmpOp::Le | CmpOp::Lt, Polarity::Up) | (CmpOp::Ge | CmpOp::Gt, Polarity::Down) => {
            Kept::Prefix
        }
        (CmpOp::Le | CmpOp::Lt, Polarity::Down) | (CmpOp::Ge | CmpOp::Gt, Polarity::Up) => {
            Kept::Suffix
        }
        _ => Kept::Any,
    }
}

/// The shape of the values of `var` whose objective upper bound can still
/// beat an incumbent (`hi(objective) > incumbent`).
pub(crate) fn bound_shape(objective: &IntExpr, var: VarId, hulls: &[Interval]) -> Kept {
    match polarity(objective, var, hulls) {
        Polarity::Up => Kept::Suffix,
        Polarity::Down => Kept::Prefix,
        _ => Kept::Any,
    }
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
    /// Per constraint, the [`Kept`] shape for each variable it watches
    /// (parallel to the constraint's variable list).
    shapes: Vec<Vec<Kept>>,
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
    /// constraint), each with the shape of the values the bound keeps.
    bound_vars: Vec<(VarId, Kept)>,
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
        let mut shapes = Vec::with_capacity(constraints.len());
        for (ci, (constraint, vars)) in constraints.iter().enumerate() {
            for v in vars {
                watchers[v.index()].push(ci as u32);
            }
            shapes.push(
                vars.iter()
                    .map(|&v| kept_shape(constraint, v, &hulls))
                    .collect(),
            );
        }
        // The incumbent bound is a virtual constraint at index
        // `constraints.len()`: the objective's variables watch it so the
        // worklist revisits it like any asserted constraint.
        let bound = match mode {
            SearchMode::Satisfy => None,
            SearchMode::Optimize { objective, floor } => Some(ObjectiveBound {
                objective,
                incumbent: floor,
            }),
        };
        let mut bound_vars = Vec::new();
        if let Some(b) = &bound {
            let mut vars = Vec::new();
            b.objective.collect_vars(&mut vars);
            for v in vars {
                watchers[v.index()].push(constraints.len() as u32);
                bound_vars.push((v, bound_shape(b.objective, v, &hulls)));
            }
        }
        let nodes_at_entry = stats.nodes;
        Search {
            constraints,
            shapes,
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
            // Every hull is a singleton: a final exact check (the visit
            // budget may have left a constraint unrevised).
            if !holds_at(self.constraints, &self.hulls) {
                return None;
            }
            let Some(b) = &mut self.bound else {
                return Some(values);
            };
            // Exact strict-improvement check: the incumbent bound admits
            // only models that beat it, matching the semantics of the
            // paper's asserted `OBJ > best` constraint.
            match value_at(b.objective, &self.hulls) {
                Some(value) if b.incumbent.is_none_or(|inc| value > inc) => {
                    // Record the improvement and tighten the incumbent in
                    // place; the search goes on, and each ancestor
                    // re-filters its level when control returns to it.
                    // Exhausting the tree is the optimality proof.
                    b.incumbent = Some(value);
                    self.best = Some(values);
                    self.incumbents.push(value);
                }
                _ => self.stats.bound_prunes += 1,
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

    /// Filters `domains[idx]` down to the values `keep` accepts with the
    /// variable's hull pinned to each in turn; `false` on a wipe-out.
    /// Domains of one value (the hull check has spoken for it) or of more
    /// than [`PROBE_LIMIT`] are left alone. A `Prefix`/`Suffix` shape is
    /// trusted: the far end is tested first (kept means all kept) and the
    /// cut is found by bisection; `Any` probes every value.
    fn filter(&mut self, idx: usize, shape: Kept, keep: impl Fn(&[Interval]) -> bool) -> bool {
        let values = self.domains[idx].values();
        let [first, .., last] = *values else {
            return true;
        };
        if values.len() > PROBE_LIMIT {
            return true;
        }
        // Pin this variable's hull to a singleton *in place* — no
        // `hulls.clone()` per variable.
        let saved_hull = self.hulls[idx];
        let hulls = &mut self.hulls;
        let mut keeps = |v: i64| {
            hulls[idx] = Interval::singleton(v);
            keep(hulls)
        };
        let kept = match shape {
            Kept::Prefix if keeps(last) => None,
            Kept::Prefix => Some(values[..values.partition_point(|&v| keeps(v))].to_vec()),
            Kept::Suffix if keeps(first) => None,
            Kept::Suffix => Some(values[values.partition_point(|&v| !keeps(v))..].to_vec()),
            Kept::Any => {
                let kept: Vec<i64> = values.iter().copied().filter(|&v| keeps(v)).collect();
                (kept.len() != values.len()).then_some(kept)
            }
        };
        self.hulls[idx] = saved_hull;
        let Some(kept) = kept else {
            return true;
        };
        self.stats.values_pruned += (values.len() - kept.len()) as u64;
        if kept.is_empty() {
            return false;
        }
        // `kept` preserves the domain's sorted order.
        self.narrow(idx, Domain::from_values(kept));
        true
    }

    /// Revises one constraint: entailment check by hulls, then exact
    /// filtering of each small domain it watches ([`Search::filter`]).
    /// Returns `false` on a wiped-out domain or a disentailed constraint.
    fn revise(&mut self, ci: usize) -> bool {
        let (constraint, vars) = &self.constraints[ci];
        match tri_bool(constraint, &self.hulls) {
            Tri::False => return false,
            Tri::True => return true,
            Tri::Unknown => {}
        }
        for (vi, &var) in vars.iter().enumerate() {
            let idx = var.index();
            // A unary constraint filtered exactly with no level open is
            // entailed for the rest of the search: root narrowing is
            // permanent, and no later narrowing can make a kept value
            // refutable. It stops watching its variable.
            if vars.len() == 1 && self.trail.depth() == 0 && self.domains[idx].len() <= PROBE_LIMIT {
                self.watchers[idx].retain(|&c| c as usize != ci);
            }
            let keep = |hulls: &[Interval]| tri_bool(constraint, hulls) != Tri::False;
            if !self.filter(idx, self.shapes[ci][vi], keep) {
                return false;
            }
        }
        true
    }

    /// Revises the virtual `objective > incumbent` constraint: refute the
    /// subtree when the hull upper bound cannot beat the incumbent, and
    /// filter the objective's variables to drop values that cannot either.
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
            let (var, shape) = self.bound_vars[vi];
            let keep = |hulls: &[Interval]| bounds(objective, hulls).hi() > incumbent;
            if !self.filter(var.index(), shape, keep) {
                self.stats.bound_prunes += 1;
                return false;
            }
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

/// The value of `expr` at a point (every hull a singleton): `None` when
/// it hinges on a division by zero, which leaves it any value.
pub(crate) fn value_at(expr: &IntExpr, point: &[Interval]) -> Option<i64> {
    let value = bounds(expr, point);
    value.is_singleton().then_some(value.lo())
}

/// Whether every constraint holds at a point — the leaf check. One that
/// hinges on a division by zero holds only if it holds whatever that
/// division yields.
pub(crate) fn holds_at(constraints: &[(BoolExpr, Vec<VarId>)], point: &[Interval]) -> bool {
    constraints
        .iter()
        .all(|(c, _)| tri_bool(c, point) == Tri::True)
}

pub(crate) fn tri_cmp(op: crate::expr::CmpOp, a: Interval, b: Interval) -> Tri {
    use crate::expr::CmpOp::*;
    if a.is_empty() || b.is_empty() {
        return Tri::False;
    }
    let equal = a.is_singleton() && a == b;
    match op {
        Le => Tri::of(a.hi() <= b.lo(), a.lo() > b.hi()),
        Lt => Tri::of(a.hi() < b.lo(), a.lo() >= b.hi()),
        Ge => tri_cmp(Le, b, a),
        Gt => tri_cmp(Lt, b, a),
        Eq => Tri::of(equal, a.intersect(b).is_empty()),
        Ne => Tri::of(a.intersect(b).is_empty(), equal),
    }
}

/// Kleene three-valued evaluation of a constraint under interval hulls.
pub(crate) fn tri_bool(expr: &BoolExpr, hulls: &[Interval]) -> Tri {
    // A conjunction is decided by its first `False`, a disjunction by its
    // first `True`; short of that, any `Unknown` leaves it open.
    let any = |xs: &[BoolExpr], decisive: Tri| {
        let mut verdict = decisive.not();
        for x in xs {
            match tri_bool(x, hulls) {
                t if t == decisive => return decisive,
                Tri::Unknown => verdict = Tri::Unknown,
                _ => {}
            }
        }
        verdict
    };
    match &*expr.0 {
        BoolNode::True => Tri::True,
        BoolNode::False => Tri::False,
        BoolNode::Cmp(op, a, b) => tri_cmp(*op, bounds(a, hulls), bounds(b, hulls)),
        BoolNode::And(xs) => any(xs, Tri::False),
        BoolNode::Or(xs) => any(xs, Tri::True),
        BoolNode::Not(a) => tri_bool(a, hulls).not(),
        BoolNode::Implies(a, b) => match (tri_bool(a, hulls), tri_bool(b, hulls)) {
            (Tri::False, _) | (_, Tri::True) => Tri::True,
            (Tri::True, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        },
    }
}

#[cfg(test)]
mod tests {
    //! The two filtering paths must be one function: wherever the polarity
    //! analysis claims a shape, bisection has to produce exactly the domain
    //! the per-value probe (`Kept::Any`, the spec) produces, and the claim
    //! itself has to survive a brute-force scan — on EATSS-shaped
    //! constraints, where it should fire, and on non-monotone ones, where
    //! it must not.

    use super::*;
    use crate::Solver;
    use proptest::prelude::TestRng;

    const CASES: u32 = 2000;

    fn pick(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
        lo + (rng.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Three variables over small domains: contiguous or thinned,
    /// positive like tile sizes or (when `signed`) straddling zero.
    fn variables(rng: &mut TestRng, s: &mut Solver, signed: bool) -> Vec<IntExpr> {
        (0..3)
            .map(|i| {
                let lo = if signed { pick(rng, -6, 3) } else { pick(rng, 1, 4) };
                let hi = lo + pick(rng, 0, 14);
                let stride = pick(rng, 1, 3);
                let values = (lo..=hi).filter(|v| v % stride == 0 || *v == lo).collect();
                s.int_var_in(&format!("v{i}"), Domain::from_values(values))
            })
            .collect()
    }

    /// A sum of products of variables with positive weights — the shape of
    /// every EATSS capacity constraint and of the objective.
    fn sum_of_products(rng: &mut TestRng, vars: &[IntExpr]) -> IntExpr {
        IntExpr::sum((0..pick(rng, 1, 3)).map(|_| {
            let weight = IntExpr::constant(pick(rng, 1, 5));
            let factors = (0..pick(rng, 1, 3)).map(|_| vars[pick(rng, 0, 2) as usize].clone());
            IntExpr::product(std::iter::once(weight).chain(factors))
        }))
    }

    /// Any expression the tree admits, including the non-monotone ones.
    fn any_expr(rng: &mut TestRng, vars: &[IntExpr], depth: u32) -> IntExpr {
        if depth == 0 || pick(rng, 0, 3) == 0 {
            return match pick(rng, 0, 2) {
                0 => IntExpr::constant(pick(rng, -4, 9)),
                _ => vars[pick(rng, 0, 2) as usize].clone(),
            };
        }
        let a = any_expr(rng, vars, depth - 1);
        let b = any_expr(rng, vars, depth - 1);
        match pick(rng, 0, 7) {
            0 => a + b,
            1 => a * b,
            2 => a - b,
            3 => -a,
            4 => a.min(b),
            5 => a.max(b),
            6 => a.div(b),
            _ => a.modulo(b),
        }
    }

    fn comparison(rng: &mut TestRng, a: IntExpr, b: IntExpr) -> BoolExpr {
        match pick(rng, 0, 5) {
            0 => a.le(b),
            1 => a.lt(b),
            2 => a.ge(b),
            3 => a.gt(b),
            4 => a.eq_expr(b),
            _ => a.eq_expr(b).not(),
        }
    }

    /// One random formulation: a constraint and an objective, alternating
    /// between the EATSS shape and the unrestricted one.
    fn formulation(rng: &mut TestRng, case: u32) -> (Solver, IntExpr) {
        let mut s = Solver::new();
        let eatss_shaped = case.is_multiple_of(2);
        let vars = variables(rng, &mut s, !eatss_shaped);
        let (constraint, objective) = if eatss_shaped {
            let cap = IntExpr::constant(pick(rng, 1, 400));
            let lhs = sum_of_products(rng, &vars);
            let constraint = match pick(rng, 0, 3) {
                0 => lhs.le(cap),
                1 => lhs.lt(cap),
                2 => cap.ge(lhs),
                _ => cap.gt(lhs),
            };
            (constraint, sum_of_products(rng, &vars))
        } else {
            let atom = |rng: &mut TestRng| {
                let (a, b) = (any_expr(rng, &vars, 3), any_expr(rng, &vars, 2));
                comparison(rng, a, b)
            };
            let constraint = match pick(rng, 0, 3) {
                0 => atom(rng).or(atom(rng)),
                1 => atom(rng).implies(atom(rng)),
                _ => atom(rng),
            };
            (constraint, any_expr(rng, &vars, 3))
        };
        s.assert(constraint);
        (s, objective)
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
        /// The spec: the same search with every shape forgotten, so all
        /// filtering goes through the per-value probe.
        fn probing(mut self) -> Self {
            for shape in self.shapes.iter_mut().flatten() {
                *shape = Kept::Any;
            }
            for (_, shape) in &mut self.bound_vars {
                *shape = Kept::Any;
            }
            self
        }
    }

    /// Whether the flags (one per domain value, ascending) contradict the
    /// claimed shape: a kept value beyond a pruned one.
    fn contradicts(shape: Kept, kept: &[bool]) -> bool {
        match shape {
            Kept::Prefix => kept.windows(2).any(|w| !w[0] && w[1]),
            Kept::Suffix => kept.windows(2).any(|w| w[0] && !w[1]),
            Kept::Any => false,
        }
    }

    #[test]
    fn claimed_shapes_survive_a_brute_force_scan() {
        let mut claimed = 0;
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("claimed_shapes", case);
            let (solver, objective) = formulation(rng, case);
            let base_hulls: Vec<Interval> =
                solver.base_domains().iter().map(Domain::hull).collect();
            let (constraint, vars) = &solver.constraint_entries()[0];
            // Shapes are decided over the base hulls and must hold in every
            // state the search narrows them to.
            for _ in 0..4 {
                let domains = narrowed(rng, solver.base_domains());
                let mut hulls: Vec<Interval> = domains.iter().map(Domain::hull).collect();
                let incumbent = pick(rng, -50, 400);
                let mut scan = |idx: usize, keep: &dyn Fn(&[Interval]) -> bool| {
                    let saved = hulls[idx];
                    let flags: Vec<bool> = (domains[idx].iter())
                        .map(|v| {
                            hulls[idx] = Interval::singleton(v);
                            keep(&hulls)
                        })
                        .collect();
                    hulls[idx] = saved;
                    flags
                };
                for &var in vars {
                    let shape = kept_shape(constraint, var, &base_hulls);
                    claimed += u32::from(shape != Kept::Any);
                    let flags = scan(var.index(), &|h| tri_bool(constraint, h) != Tri::False);
                    assert!(
                        !contradicts(shape, &flags),
                        "case {case}: {constraint} claims {shape:?} in {var:?}, scan {flags:?}"
                    );
                }
                let mut objective_vars = Vec::new();
                objective.collect_vars(&mut objective_vars);
                for var in objective_vars {
                    let shape = bound_shape(&objective, var, &base_hulls);
                    claimed += u32::from(shape != Kept::Any);
                    let flags = scan(var.index(), &|h| bounds(&objective, h).hi() > incumbent);
                    assert!(
                        !contradicts(shape, &flags),
                        "case {case}: {objective} > {incumbent} claims {shape:?} in {var:?}, \
                         scan {flags:?}"
                    );
                }
            }
        }
        assert!(claimed > CASES, "the analysis never fired: {claimed} claims");
    }

    #[test]
    fn one_revision_filters_exactly_like_the_per_value_probe() {
        let config = SolverConfig::default();
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("one_revision", case);
            let (solver, objective) = formulation(rng, case);
            let domains = narrowed(rng, solver.base_domains());
            let incumbent = pick(rng, -50, 400);
            let (mut stats_cut, mut stats_probe) = Default::default();
            // Shapes come from the base hulls, the revision starts from a
            // narrowed state: what a node deep in the tree sees.
            let mut cut = search_over(solver.base_domains(), &solver, &config, &mut stats_cut, &objective);
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
    }

    #[test]
    fn cuts_leave_the_search_tree_unchanged() {
        // Same filtered domains at every node means the same tree: equal
        // node counts, improvement sequences and models, cut or probed.
        let config = SolverConfig::default();
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("same_tree", case);
            let (solver, objective) = formulation(rng, case);
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
            assert_eq!(stats_cut.values_pruned, stats_probe.values_pruned, "case {case}");
        }
    }

    #[test]
    fn eatss_shaped_atoms_are_cut_and_alignment_is_probed() {
        let mut s = Solver::new();
        let ti = s.int_var("Ti", 1, 64);
        let tj = s.int_var("Tj", 1, 64);
        let hulls = [Interval::new(1, 64), Interval::new(1, 64)];
        let (i, j) = (VarId(0), VarId(1));
        let capacity = (ti.clone() * tj.clone() + IntExpr::constant(2) * tj.clone()).le(512);
        assert_eq!(kept_shape(&capacity, i, &hulls), Kept::Prefix);
        assert_eq!(kept_shape(&capacity, j, &hulls), Kept::Prefix);
        assert_eq!(kept_shape(&ti.ge(tj.clone()), i, &hulls), Kept::Suffix);
        assert_eq!(kept_shape(&ti.ge(tj.clone()), j, &hulls), Kept::Prefix);
        assert_eq!(bound_shape(&(ti.clone() * tj.clone()), i, &hulls), Kept::Suffix);
        // Alignment, a difference of one variable with itself, a product
        // with a factor that may be negative, and anything that is not a
        // single ordering atom: no claim.
        let unknown = [
            ti.modulo(16).eq_expr(0),
            (ti.clone() * tj.clone() - ti.clone()).le(100),
            ((ti.clone() - IntExpr::constant(8)) * tj.clone()).le(100),
            ti.le(8).or(ti.ge(32)),
            ti.eq_expr(tj.clone()),
        ];
        for constraint in &unknown {
            assert_eq!(kept_shape(constraint, i, &hulls), Kept::Any, "{constraint}");
        }
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
        s.assert(ti.modulo(16).eq_expr(0));
        s.assert((ti.clone() * tj.clone()).le(256));
        let config = SolverConfig::default();
        let mut stats = SolverStats::default();
        let objective = ti * tj;
        let mut search = search_over(s.base_domains(), &s, &config, &mut stats, &objective);
        assert_eq!(search.watchers[0], vec![0, 1, 2]);
        assert!(search.revise(0));
        assert_eq!(search.domains[0].values(), &[16, 32, 48, 64]);
        assert_eq!(search.watchers[0], vec![1, 2], "alignment is entailed from here on");
        // Below the root a probe is undone on backtrack, so it proves nothing.
        search.trail.push_level();
        assert!(search.revise(1));
        assert_eq!(search.watchers[1], vec![1, 2]);
    }
}
