//! The solver's hot loop: trail-based depth-first search over capacity
//! rows, with worklist propagation and one-pass branch-and-bound.
//!
//! The search speaks one language, the paper's: capacity rows
//! `Σ c·Π T ≤ cap` and an objective row maximized under the §IV-L
//! `OBJ_{n+1} > OBJ_n` loop. [`crate::row`] copies their terms once per
//! search into one flat buffer. Five structural choices keep the cost low
//! (the exhaustive engine in [`crate::reference`] is the spec they are
//! tested against):
//!
//! * **Trail-based undo** ([`crate::trail::Trail`]): a node saves only the
//!   domains it narrows instead of cloning the whole `Vec<Domain>`, and a
//!   domain is a window into shared values ([`Domain`]), so a branch and a
//!   closed-form cut narrow it to a sub-window and the trail saves and
//!   restores windows: neither copies a value.
//! * **Worklist propagation**: interval hulls are maintained incrementally
//!   (updated when a domain changes, restored on backtrack) and an
//!   AC-3-style queue revisits only the rows watching a changed variable.
//!   A capacity row found entailed sleeps until the search backtracks
//!   above the depth where it was found (for good at the root): domains
//!   only shrink until then, so it stays entailed and is not revisited.
//! * **Objective-bound pruning**: the incumbent acts as a virtual
//!   `objective > incumbent` row, and any subtree whose objective upper
//!   bound cannot beat it is cut before propagation is paid for.
//! * **One pass**: an improving leaf tightens the incumbent and the
//!   depth-first search simply continues. Each ancestor, when control
//!   returns to it, re-filters *its own* level under the new incumbent
//!   (permanently at the root, trailed below it) before trying its next
//!   candidate, so a subtree is refuted once — under the best incumbent
//!   known when it is reached — and never re-entered.
//! * **Closed-form cuts**: one saturating pass over a row yields its
//!   interval and, per watched variable, its coefficient `a`; the values a
//!   capacity keeps are then `v ≤ ⌊(cap − b)/a⌋` and those the incumbent
//!   bound keeps `v > ⌊(inc − b)/a⌋`, a cut found by `partition_point` at
//!   no evaluation. Where the pass's end or `a` saturated, the variable is
//!   probed instead: its hull is pinned to each value in turn and the pass
//!   run again ([`Search::probe`]) — the same filter, value by value. A
//!   unary row filtered at the root is entailed from then on and sleeps
//!   for good. A tile's warp alignment is no row at all: it
//!   is the domain the tile was declared with, and a domain with a hole in
//!   it (the tie question's) is cut the same way.
//!
//! All five preserve exact results: propagation only removes values proven
//! inconsistent, the exhaustive search still visits every surviving
//! assignment, and bound pruning discards only subtrees the
//! `OBJ > best` row would reject anyway. The branching order decides
//! which of several equal-valued optima is returned: the first open
//! variable in registration order, largest value first
//! ([`next_candidate`]), meets leaves in lexicographically descending
//! order, so the answer is the lexicographically greatest optimum, whatever
//! the incumbent was seeded at. Only a leaf that improves on the incumbent
//! builds an assignment, and a probe keeps the domain's order instead of
//! sorting it again.

use crate::domain::Domain;
use crate::interval::Interval;
use crate::row::{End, Lowered, Row, Rows};
use crate::solver::{budget_stop, SolverConfig, StopReason};
use crate::stats::SolverStats;
use crate::trail::Trail;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

/// Poll the clock/cancel flag every this many search nodes — often enough
/// that a 10 ms deadline is honoured promptly, rare enough that
/// `Instant::now` stays off the hot path.
const BUDGET_POLL_PERIOD: u64 = 64;

/// Domains larger than this are filtered by hull reasoning only; exact
/// per-value filtering is reserved for small domains where it pays off.
const PROBE_LIMIT: usize = 4096;

/// A branching variable's next candidate after `tried` (its first when
/// `None`): the largest value below it, and its position in the domain.
/// Large tiles score high, so the maximization climbs in few improvements
/// (like Z3's default behaviour on these formulations). Looking the
/// successor up in the *current* domain lets a node skip candidates that
/// a tightened incumbent removed while an earlier sibling was being
/// searched.
fn next_candidate(domain: &Domain, tried: Option<i64>) -> Option<(usize, i64)> {
    let values = domain.values();
    let untried = tried.map_or(values.len(), |t| values.partition_point(|&v| v < t));
    let at = untried.checked_sub(1)?;
    Some((at, values[at]))
}

/// What one [`Search`] found.
#[derive(Default)]
pub(crate) struct Pass {
    /// The best assignment found.
    pub(crate) values: Option<Vec<i64>>,
    /// The objective value of every incumbent in the order it was taken,
    /// strictly increasing; the last is `values`'.
    pub(crate) incumbents: Vec<i64>,
    /// Why the search stopped early, if it did.
    pub(crate) stop: Option<StopReason>,
}

/// A row's place on the worklist.
#[derive(Debug, Clone, Copy, Default)]
struct RowState {
    /// On the worklist.
    queued: bool,
    /// The trail depth at which the row was found entailed, if it was: it
    /// sleeps (is never enqueued) until the search backtracks above that
    /// depth, and for the rest of the search when that depth is the root.
    entailed_at: Option<usize>,
}

/// One maximization's worth of search state.
pub(crate) struct Search<'a> {
    rows: Rows,
    /// Per assertion, its row and capacity.
    capacities: Vec<(Row, i64)>,
    /// The objective's row (its variables watch the incumbent bound).
    objective: Row,
    /// The incumbent: an improving leaf does not end the search — it
    /// becomes the new incumbent and the search continues, so one
    /// exhaustive pass proves optimality. `None` until a first model is
    /// found (the bound is inert then — any model improves on nothing),
    /// unless a floor seeded it.
    incumbent: Option<i64>,
    config: &'a SolverConfig,
    stats: &'a mut SolverStats,
    /// Working copy of the variable domains (all narrowing goes through
    /// the trail).
    domains: Vec<Domain>,
    /// Interval hull of every domain, maintained incrementally: updated on
    /// narrowing, restored from the trailed domain on backtrack.
    hulls: Vec<Interval>,
    trail: Trail,
    /// The rows watching each variable, in one buffer: variable `v`'s are
    /// `watching[watch_starts[v]..watch_starts[v + 1]]`. The incumbent
    /// bound is row index `capacities.len()`.
    watch_starts: Vec<usize>,
    watching: Vec<u32>,
    /// Dirty-row worklist, plus each row's state, the bound's last.
    queue: VecDeque<u32>,
    row_state: Vec<RowState>,
    nodes_at_entry: u64,
    deadline_at: Option<Instant>,
    stop: Option<StopReason>,
    /// Best assignment found so far, and the objective value of each
    /// incumbent taken on the way to it.
    best: Option<Vec<i64>>,
    incumbents: Vec<i64>,
    /// The values a probe keeps, reused from one probe to the next.
    kept: Vec<i64>,
    /// Tests switch the closed form off to hold it against the probe.
    #[cfg(test)]
    probe_only: bool,
    /// Tests keep entailed rows awake to hold sleeping against it.
    #[cfg(test)]
    no_sleep: bool,
}

impl<'a> Search<'a> {
    /// A maximization of `lowered`'s objective over `domains` under
    /// `constraints` (lowered alike). `floor`, when present, seeds the
    /// incumbent below a known-achievable objective value (warm start):
    /// every subtree that survives the seeded bound has objective upper
    /// bound `> floor`, so subtrees containing an optimum-valued leaf are
    /// never cut. The seed only removes provably-suboptimal work.
    pub(crate) fn new(
        domains: Vec<Domain>,
        lowered: Lowered,
        floor: Option<i64>,
        config: &'a SolverConfig,
        stats: &'a mut SolverStats,
        deadline_at: Option<Instant>,
    ) -> Self {
        let Lowered {
            rows,
            capacities,
            objective,
            mut hulls,
        } = lowered;
        // The only full O(V) hull construction in a search: every later
        // update is per-variable. `SolverStats::hull_rebuilds` counts these
        // so a regression back to per-round rebuilds is detectable.
        hulls.clear();
        hulls.extend(domains.iter().map(Domain::hull));
        stats.hull_rebuilds += 1;
        // The incumbent bound is a virtual row at index `capacities.len()`:
        // the objective's variables watch it so the worklist revisits it
        // like any assertion. Each variable's watchers are in row order:
        // counted, then placed from the last row back.
        let bound = capacities.len();
        let row_at = |ci: usize| capacities.get(ci).map_or(objective, |&(row, _)| row);
        let mut watch_starts = vec![0; domains.len() + 1];
        for ci in 0..=bound {
            for &v in rows.vars(row_at(ci)) {
                watch_starts[v] += 1;
            }
        }
        let mut total = 0;
        for start in &mut watch_starts {
            total += *start;
            *start = total;
        }
        let mut watching = vec![0; total];
        for ci in (0..=bound).rev() {
            for &v in rows.vars(row_at(ci)) {
                watch_starts[v] -= 1;
                watching[watch_starts[v]] = ci as u32;
            }
        }
        let nodes_at_entry = stats.nodes;
        Search {
            rows,
            objective,
            incumbent: floor,
            config,
            stats,
            trail: Trail::new(domains.len()),
            domains,
            hulls,
            watch_starts,
            watching,
            queue: VecDeque::with_capacity(bound + 1),
            row_state: vec![RowState::default(); bound + 1],
            capacities,
            nodes_at_entry,
            deadline_at,
            stop: None,
            best: None,
            incumbents: Vec::new(),
            kept: Vec::new(),
            #[cfg(test)]
            probe_only: false,
            #[cfg(test)]
            no_sleep: false,
        }
    }

    /// Runs the search to completion (or budget).
    pub(crate) fn run(mut self) -> Pass {
        // Seed the worklist with every row, the incumbent bound included:
        // the root propagation must consider all once.
        for ci in 0..=self.capacities.len() {
            self.enqueue(ci as u32);
        }
        self.dfs();
        Pass {
            values: self.best,
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

    /// Puts row `ci` on the worklist, unless it is there already or
    /// sleeps.
    fn enqueue(&mut self, ci: u32) {
        let state = &mut self.row_state[ci as usize];
        if !state.queued && state.entailed_at.is_none() {
            state.queued = true;
            self.queue.push_back(ci);
        }
    }

    fn enqueue_watchers(&mut self, var: usize) {
        for wi in self.watch_starts[var]..self.watch_starts[var + 1] {
            self.enqueue(self.watching[wi]);
        }
    }

    fn clear_queue(&mut self) {
        while let Some(ci) = self.queue.pop_front() {
            self.row_state[ci as usize].queued = false;
        }
    }

    /// Row `ci` is entailed under the current domains. Domains only shrink
    /// until the search backtracks, and a capacity row's ends only fall as
    /// they shrink, so it stays entailed until then: it sleeps.
    fn sleep(&mut self, ci: usize) {
        #[cfg(test)]
        if self.no_sleep {
            return;
        }
        self.row_state[ci].entailed_at = Some(self.trail.depth());
    }

    /// Closes the innermost decision level, restoring its domains, and
    /// wakes the rows found entailed inside it.
    fn pop_level(&mut self) {
        self.trail.pop_level(&mut self.domains, &mut self.hulls);
        let depth = self.trail.depth();
        for state in &mut self.row_state {
            if state.entailed_at.is_some_and(|at| at > depth) {
                state.entailed_at = None;
            }
        }
    }

    /// Narrows `domains[var]` to `new`, through the trail, keeping the
    /// hull in sync and waking the variable's watchers.
    fn narrow(&mut self, var: usize, new: Domain) {
        self.trail.replace(var, &mut self.domains, new);
        self.hulls[var] = self.domains[var].hull();
        self.enqueue_watchers(var);
    }

    /// The objective's interval over the current hulls: one pass of its
    /// row at the high ends, keeping the coefficients [`Rows::cut`] reads.
    fn objective_hull(&mut self) -> Interval {
        self.rows.pass(self.objective, &self.hulls, End::Hi)
    }

    fn dfs(&mut self) {
        // Branch-and-bound cut, before any propagation work: if the
        // objective's upper bound over this subtree cannot beat the
        // incumbent, no leaf below can either. (The bound row would also
        // refute the subtree, but only after paying for a propagation
        // pass.)
        if let Some(incumbent) = self.incumbent {
            if self.objective_hull().hi() <= incumbent {
                self.stats.bound_prunes += 1;
                self.clear_queue();
                return;
            }
        }
        if !self.propagate() {
            return;
        }
        if self.domains.iter().all(Domain::is_singleton) {
            // Every hull is a singleton, and propagation ran to its
            // fixpoint: each row was revised after its last variable was
            // pinned, exactly, and held.
            debug_assert!(self.leaf_holds());
            // Exact strict-improvement check: the incumbent bound admits
            // only models that beat it, matching the semantics of the
            // paper's asserted `OBJ > best` constraint.
            let value = self.objective_hull().lo();
            if self.incumbent.is_none_or(|inc| value > inc) {
                // Record the improvement and tighten the incumbent in
                // place; the search goes on, and each ancestor re-filters
                // its level when control returns to it. Exhausting the
                // tree is the optimality proof. Only here is the leaf's
                // assignment collected.
                self.incumbent = Some(value);
                let best =
                    (self.best).get_or_insert_with(|| Vec::with_capacity(self.domains.len()));
                best.clear();
                best.extend(self.domains.iter().filter_map(Domain::as_singleton));
                self.incumbents.push(value);
            } else {
                self.stats.bound_prunes += 1;
            }
            return;
        }
        // Branch on the first non-singleton domain in registration order.
        let Some(var_idx) = self.domains.iter().position(|d| d.len() > 1) else {
            return;
        };
        let mut candidate = next_candidate(&self.domains[var_idx], None);
        while let Some((at, value)) = candidate {
            if self.out_of_budget() {
                return;
            }
            self.stats.nodes += 1;
            let incumbents_before = self.incumbents.len();
            self.trail.push_level();
            let pinned = self.domains[var_idx].window(at..at + 1);
            self.narrow(var_idx, pinned);
            self.dfs();
            self.pop_level();
            self.stats.backtracks += 1;
            if self.stop.is_some() {
                return;
            }
            // The incumbent rose somewhere below: re-filter this level
            // under it before the next candidate (which the filtering may
            // remove). Only the bound needs re-propagating — its narrowing
            // cascades through the watchers, and everything else about
            // this level is already at fixpoint.
            if self.incumbents.len() != incumbents_before {
                self.enqueue(self.capacities.len() as u32);
                if !self.propagate() {
                    return;
                }
            }
            candidate = next_candidate(&self.domains[var_idx], Some(value));
        }
    }

    /// Whether every capacity holds at the current point.
    fn leaf_holds(&mut self) -> bool {
        let (rows, hulls) = (&mut self.rows, &self.hulls);
        (self.capacities.iter()).all(|&(row, cap)| rows.pass(row, hulls, End::Lo).hi() <= cap)
    }

    /// Drains the dirty-row worklist to its fixpoint. Returns `false` on
    /// inconsistency, with the queue cleared.
    ///
    /// It terminates: within a call, a row is re-enqueued only after
    /// [`Search::cut`] or [`Search::probe`] strictly narrows a finite
    /// domain of at most [`PROBE_LIMIT`] values, so the visits are bounded
    /// by the queue it starts with plus Σ|D| · watchers.
    fn propagate(&mut self) -> bool {
        let started = Instant::now();
        let ok = loop {
            let Some(ci) = self.queue.pop_front() else {
                break true;
            };
            self.row_state[ci as usize].queued = false;
            self.stats.propagations += 1;
            let consistent = if (ci as usize) == self.capacities.len() {
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

    /// The closed-form cut of the variable in `slot` of the row last
    /// passed, whose hull index is `idx`, against `level` ([`Rows::cut`]).
    fn row_cut(&self, slot: usize, idx: usize, level: i64) -> Option<i64> {
        #[cfg(test)]
        if self.probe_only {
            return None;
        }
        self.rows.cut(slot, self.hulls[idx], level)
    }

    /// The per-value probe, every cut's spec: narrows `domains[idx]` to
    /// the values whose pass of `row` at `end`, with the variable's hull
    /// pinned to the value, `keep` accepts; `false` on a wipe-out. Then
    /// passes `row` again over the restored hulls, so the coefficients
    /// the next cut reads are the row's. Domains of one value (the hull
    /// check has spoken for it) or of more than [`PROBE_LIMIT`] are left
    /// alone, here and in [`Search::cut`]. The kept values, any
    /// subsequence of the domain, are the one narrowing that copies
    /// values.
    fn probe(&mut self, idx: usize, row: Row, end: End, keep: impl Fn(Interval) -> bool) -> bool {
        let values = self.domains[idx].values();
        if !(2..=PROBE_LIMIT).contains(&values.len()) {
            return true;
        }
        // Pin this variable's hull to a singleton *in place* — no
        // `hulls.clone()` per variable.
        let saved_hull = self.hulls[idx];
        let (rows, hulls, kept) = (&mut self.rows, &mut self.hulls, &mut self.kept);
        kept.clear();
        kept.extend(values.iter().copied().filter(|&v| {
            hulls[idx] = Interval::singleton(v);
            keep(rows.pass(row, hulls, end))
        }));
        self.hulls[idx] = saved_hull;
        self.rows.pass(row, &self.hulls, end);
        let narrowed = match self.kept.len() {
            0 => self.domains[idx].window(0..0),
            kept if kept == self.domains[idx].len() => return true,
            _ => Domain::from_sorted(&self.kept),
        };
        self.keep_only(idx, narrowed)
    }

    /// Narrows `domains[idx]` to the positions a row's closed form keeps
    /// (a prefix or a suffix of the sorted domain): a window, with no
    /// evaluation and no copy.
    fn cut(&mut self, idx: usize, kept: impl FnOnce(&[i64]) -> Range<usize>) -> bool {
        let domain = &self.domains[idx];
        if !(2..=PROBE_LIMIT).contains(&domain.len()) {
            return true;
        }
        let kept = kept(domain.values());
        let narrowed = domain.window(kept);
        self.keep_only(idx, narrowed)
    }

    /// Narrows `domains[idx]` to `kept`, a sub-domain of it; `false` when
    /// nothing is kept.
    fn keep_only(&mut self, idx: usize, kept: Domain) -> bool {
        let pruned = self.domains[idx].len() - kept.len();
        if pruned == 0 {
            return true;
        }
        self.stats.values_pruned += pruned as u64;
        if kept.is_empty() {
            return false;
        }
        self.narrow(idx, kept);
        true
    }

    /// Revises one capacity row: entailment check by one pass at the low
    /// ends (an entailed row sleeps), then exact filtering of each small
    /// domain it watches — in closed form ([`Rows::cut`]), or by
    /// [`Search::probe`] where the pass saturated. Returns `false` on a
    /// wiped-out domain or a disentailed row.
    fn revise(&mut self, ci: usize) -> bool {
        let (row, cap) = self.capacities[ci];
        let ends = self.rows.pass(row, &self.hulls, End::Lo);
        if ends.is_empty() || ends.lo() > cap {
            return false;
        }
        if ends.hi() <= cap {
            self.sleep(ci);
            return true;
        }
        let unary = self.rows.vars(row).len() == 1;
        for slot in 0..self.rows.vars(row).len() {
            let idx = self.rows.vars(row)[slot];
            // A unary row filtered exactly with no level open is entailed
            // for the rest of the search: root narrowing is permanent, and
            // no later narrowing can make a kept value refutable. It sleeps
            // from here on.
            if unary && self.trail.depth() == 0 && self.domains[idx].len() <= PROBE_LIMIT {
                self.sleep(ci);
            }
            let consistent = match self.row_cut(slot, idx, cap) {
                Some(t) => self.cut(idx, |values| 0..values.partition_point(|&v| v <= t)),
                None => self.probe(idx, row, End::Lo, |ends| ends.lo() <= cap),
            };
            if !consistent {
                return false;
            }
        }
        true
    }

    /// Revises the virtual `objective > incumbent` row: refute the subtree
    /// when the objective's upper bound cannot beat the incumbent, and
    /// filter the objective's variables to drop values that cannot either
    /// — in closed form ([`Rows::cut`]) or by [`Search::probe`]. Every
    /// refutation here is incumbent-driven, so it counts toward
    /// [`SolverStats::bound_prunes`].
    fn revise_bound(&mut self) -> bool {
        // No incumbent yet: the bound is inert.
        let Some(incumbent) = self.incumbent else {
            return true;
        };
        let hull = self.objective_hull();
        if hull.is_empty() || hull.hi() <= incumbent {
            self.stats.bound_prunes += 1;
            return false;
        }
        if hull.lo() > incumbent {
            return true; // Entailed: every assignment below improves.
        }
        for slot in 0..self.rows.vars(self.objective).len() {
            let idx = self.rows.vars(self.objective)[slot];
            let consistent = match self.row_cut(slot, idx, incumbent) {
                Some(t) => self.cut(idx, |values| {
                    values.partition_point(|&v| v <= t)..values.len()
                }),
                None => self.probe(idx, self.objective, End::Hi, |ends| ends.hi() > incumbent),
            };
            if !consistent {
                self.stats.bound_prunes += 1;
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    //! A row's closed form must be the per-value probe in one step, and
    //! both must be exact: a row's pass is its exact interval — a
    //! brute-force `i128` evaluation of its terms, saturated to `i64` only
    //! at the end — at every point of a scan, its cut keeps exactly the
    //! values the scan keeps, and a search that cuts builds node for node
    //! the tree of one that probes; on EATSS-shaped rows at every scale
    //! (tile-like, with zeros, near `i64::MAX`, under `cap = i64::MAX`).

    use super::*;
    use crate::expr::{BoolExpr, IntExpr};
    use crate::Solver;
    use proptest::prelude::TestRng;

    const CASES: u32 = 2000;

    /// A uniform draw from `lo..=hi`, for any `i64` range.
    fn pick(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
        let span = (i128::from(hi) - i128::from(lo) + 1) as u128;
        (i128::from(lo) + (u128::from(rng.next_u64()) % span) as i128) as i64
    }

    /// The magnitudes of a case.
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

    /// Three non-negative variables over small domains, contiguous or
    /// thinned, at `scale`.
    fn variables(rng: &mut TestRng, s: &mut Solver, scale: Scale) -> Vec<IntExpr> {
        (0..3)
            .map(|i| {
                let (lo, unit) = match scale {
                    Scale::Zeros => (pick(rng, 0, 2), 1),
                    Scale::Huge if pick(rng, 0, 1) == 0 => (pick(rng, 0, 3), 1),
                    Scale::Huge => (pick(rng, 0, 3) << pick(rng, 0, 40), 1 << pick(rng, 0, 30)),
                    Scale::Tiles | Scale::CapMax => (pick(rng, 1, 4), 1),
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
    fn incumbent(rng: &mut TestRng, scale: Scale) -> i64 {
        match scale {
            Scale::Huge => at_any_magnitude(rng) - 50,
            _ => pick(rng, -50, 400),
        }
    }

    /// A sum of products of distinct variables with non-negative weights
    /// — the shape of every EATSS capacity and of the objective.
    fn sum_of_products(rng: &mut TestRng, vars: &[IntExpr], scale: Scale) -> IntExpr {
        IntExpr::sum((0..pick(rng, 1, 3)).map(|_| {
            let weight = IntExpr::constant(weight(rng, scale));
            let (first, count) = (pick(rng, 0, 2), pick(rng, 1, 3));
            let factors = (0..count).map(|k| vars[((first + k) % 3) as usize].clone());
            IntExpr::product(std::iter::once(weight).chain(factors))
        }))
    }

    /// One random formulation, cycling through the scales: a capacity
    /// row (`lhs <= cap` or `lhs + 1 <= cap`) and an objective row.
    fn formulation(rng: &mut TestRng, case: u32) -> (Solver, IntExpr, Scale) {
        let mut s = Solver::new();
        let scale = [Scale::Tiles, Scale::Zeros, Scale::Huge, Scale::CapMax][(case % 4) as usize];
        let vars = variables(rng, &mut s, scale);
        let cap = capacity(rng, scale);
        let lhs = sum_of_products(rng, &vars, scale);
        let constraint = match pick(rng, 0, 1) {
            0 => lhs.le(cap),
            _ => (lhs + IntExpr::constant(1)).le(cap),
        };
        s.assert(constraint);
        (s, sum_of_products(rng, &vars, scale), scale)
    }

    /// One past `i64::MAX`: where the spec stops counting.
    const PAST: i128 = 1 << 63;

    /// The spec of a row's value: its terms evaluated exactly in `i128`
    /// at the point `at` (every operand is non-negative, so a partial
    /// result past `i64::MAX` only grows, and is held at [`PAST`]), then
    /// saturated to `i64`.
    fn exact(expr: &IntExpr, at: &dyn Fn(usize) -> i64) -> i64 {
        let sum = &*expr.0;
        let product = |term: crate::expr::Term| {
            (term.vars.iter()).fold(i128::from(term.coef), |p, v| {
                (p * i128::from(at(v.id.index()))).min(PAST)
            })
        };
        let total = sum.terms().fold(i128::from(sum.constant), |t, term| {
            (t + product(term)).min(PAST)
        });
        total.min(i128::from(i64::MAX)) as i64
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

    fn lowered(solver: &Solver, objective: &IntExpr) -> Lowered {
        let base: Vec<Interval> = solver.base_domains().iter().map(Domain::hull).collect();
        Lowered::new(solver.constraints(), objective, base).expect("rows")
    }

    fn search_over<'a>(
        domains: &[Domain],
        solver: &'a Solver,
        config: &'a SolverConfig,
        stats: &'a mut SolverStats,
        objective: &IntExpr,
    ) -> Search<'a> {
        let lowered = lowered(solver, objective);
        Search::new(domains.to_vec(), lowered, None, config, stats, None)
    }

    impl Search<'_> {
        /// The spec: the same search with the closed form switched off,
        /// so every filter is the per-value probe.
        fn probing(mut self) -> Self {
            self.probe_only = true;
            self
        }

        /// The same search with every entailed row kept awake.
        fn awake(mut self) -> Self {
            self.no_sleep = true;
            self
        }
    }

    /// What a row is checked as: the capacity `row ≤ cap`, or the
    /// incumbent bound `row > incumbent`.
    #[derive(Clone, Copy)]
    enum Side {
        Capacity(i64),
        Bound(i64),
    }

    /// Checks `row`, lowered from `expr`, in one narrowed state: its pass
    /// is [`exact`] at the low and the high corner, at the state's hulls
    /// and at every point of a scan of each watched variable; and where
    /// the hull check leaves the row open, the closed-form cut keeps
    /// exactly the values the scan keeps. Returns how many variables were
    /// cut in closed form and how many declined because the pass
    /// saturated.
    fn check_row(
        rows: &mut Rows,
        (row, expr): (Row, &IntExpr),
        side: Side,
        domains: &[Domain],
    ) -> (u32, u32) {
        let vars = rows.vars(row).to_vec();
        let mut hulls: Vec<Interval> = domains.iter().map(Domain::hull).collect();
        let (end, level) = match side {
            Side::Capacity(cap) => (End::Lo, cap),
            Side::Bound(incumbent) => (End::Hi, incumbent),
        };
        let spec = |hulls: &[Interval]| {
            let lo = exact(expr, &|i| hulls[i].lo());
            let hi = exact(expr, &|i| hulls[i].hi());
            Interval::new(lo, hi)
        };
        let ends = rows.pass(row, &hulls, end);
        assert_eq!(ends, spec(&hulls), "{expr}");
        if ends.lo() > level || ends.hi() <= level {
            return (0, 0);
        }
        let cuts: Vec<Option<i64>> = (vars.iter().enumerate())
            .map(|(slot, var)| rows.cut(slot, hulls[*var], level))
            .collect();
        let (mut cut, mut saturated) = (0, 0);
        for (&idx, t) in vars.iter().zip(cuts) {
            let values = domains[idx].values();
            let saved = hulls[idx];
            let mut scan = Vec::new();
            for &v in values {
                hulls[idx] = Interval::singleton(v);
                let ends = spec(&hulls);
                assert_eq!(rows.pass(row, &hulls, end), ends, "{expr} at {v}");
                scan.push(match side {
                    Side::Capacity(cap) => ends.lo() <= cap,
                    Side::Bound(incumbent) => ends.hi() > incumbent,
                });
            }
            hulls[idx] = saved;
            let Some(t) = t else {
                saturated += 1;
                continue;
            };
            cut += 1;
            let closed: Vec<bool> = (values.iter())
                .map(|&v| match side {
                    Side::Capacity(_) => v <= t,
                    Side::Bound(_) => v > t,
                })
                .collect();
            assert_eq!(closed, scan, "{expr} vs {level} in var {idx}: cut at {t}");
        }
        (cut, saturated)
    }

    #[test]
    fn lowered_rows_are_exact_on_every_point() {
        let (mut cuts, mut saturated, mut cap_max) = (0, 0, 0);
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("lowered_rows", case);
            let (solver, objective, scale) = formulation(rng, case);
            // Rows are lowered over the base hulls and must hold in every
            // state the search narrows them to.
            let Lowered {
                mut rows,
                capacities,
                objective: objective_row,
                ..
            } = lowered(&solver, &objective);
            let atom = &solver.constraints()[0];
            let (row, cap) = capacities[0];
            for _ in 0..4 {
                let domains = narrowed(rng, solver.base_domains());
                let incumbent = incumbent(rng, scale);
                let mut tally = |(c, s)| {
                    cuts += c;
                    saturated += s;
                };
                let capacity = (row, &atom.lhs);
                tally(check_row(
                    &mut rows,
                    capacity,
                    Side::Capacity(cap),
                    &domains,
                ));
                cap_max += u32::from(cap == i64::MAX);
                let bound = (objective_row, &objective);
                let side = Side::Bound(incumbent);
                tally(check_row(&mut rows, bound, side, &domains));
            }
        }
        let counts = format!("{cuts} cuts, {saturated} saturated, {cap_max} at i64::MAX");
        assert!(
            cuts > CASES / 2 && saturated > 50 && cap_max > 50,
            "{counts}"
        );
    }

    #[test]
    fn one_revision_filters_exactly_like_the_per_value_probe() {
        let config = SolverConfig::default();
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("one_revision", case);
            let (solver, objective, scale) = formulation(rng, case);
            let domains = narrowed(rng, solver.base_domains());
            let incumbent = incumbent(rng, scale);
            let (mut stats_cut, mut stats_probe) = Default::default();
            // Rows are lowered over the base hulls, the revision starts
            // from a narrowed state: what a node deep in the tree sees.
            let base = solver.base_domains();
            let mut cut = search_over(base, &solver, &config, &mut stats_cut, &objective);
            let mut probe =
                search_over(base, &solver, &config, &mut stats_probe, &objective).probing();
            for search in [&mut cut, &mut probe] {
                search.trail.push_level();
                for (idx, domain) in domains.iter().enumerate() {
                    search.narrow(idx, domain.clone());
                }
                search.clear_queue();
                search.incumbent = Some(incumbent);
            }
            assert_eq!(
                cut.revise(0),
                probe.revise(0),
                "case {case}: revise verdict"
            );
            assert_eq!(
                cut.domains, probe.domains,
                "case {case}: domains after revise"
            );
            assert_eq!(
                cut.revise_bound(),
                probe.revise_bound(),
                "case {case}: bound verdict"
            );
            assert_eq!(
                cut.domains, probe.domains,
                "case {case}: domains after revise_bound"
            );
            assert_eq!(
                stats_cut.values_pruned, stats_probe.values_pruned,
                "case {case}"
            );
        }
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
            let base = solver.base_domains();
            let cut = search_over(base, &solver, &config, &mut stats_cut, &objective).run();
            let probe = search_over(base, &solver, &config, &mut stats_probe, &objective)
                .probing()
                .run();
            assert_eq!(cut.values, probe.values, "case {case}: model");
            assert_eq!(
                cut.incumbents, probe.incumbents,
                "case {case}: improvements"
            );
            assert_eq!(stats_cut.nodes, stats_probe.nodes, "case {case}: nodes");
            assert_eq!(
                stats_cut.bound_prunes, stats_probe.bound_prunes,
                "case {case}"
            );
            assert_eq!(
                stats_cut.values_pruned, stats_probe.values_pruned,
                "case {case}"
            );
        }
    }

    #[test]
    fn eatss_shaped_atoms_are_rows_and_others_are_refused() {
        let mut s = Solver::new();
        let ti = s.int_var("Ti", 1, 64);
        let tj = s.int_var("Tj", 1, 64);
        let tk = s.int_var("Tk", -4, 64);
        let base: Vec<Interval> = s.base_domains().iter().map(Domain::hull).collect();
        let c = IntExpr::constant;
        let lowers =
            |atom: &BoolExpr| Lowered::new(std::slice::from_ref(atom), &c(0), base.clone()).is_ok();
        // A capacity (registers nest a product in a product, memory sums
        // volumes) and an objective, as the model generator builds them.
        let capacity = (ti.clone() * tj.clone() + c(2) * tj.clone()).le(512);
        assert!(lowers(&capacity));
        assert!(lowers(&((ti.clone() * tj.clone()) * c(6)).le(65536)));
        let volumes = (ti.clone() + tj.clone()) + (c(0) + tj.clone());
        assert!(lowers(&volumes.le(4096)));
        // A product of sums is a sum of products.
        assert!(lowers(&((ti.clone() + c(8)) * tj.clone()).le(100)));
        let objective = c(0) + ti.clone() * tj.clone() + c(16) * ti.clone();
        assert!(Lowered::new(&[], &objective, base.clone()).is_ok());
        // A difference, a cancelled sign, a product with a factor that may
        // be negative and a repeated factor: refused.
        let minus = |x: IntExpr| c(-1) * x;
        let refused = [
            (ti.clone() * tj.clone() + minus(ti.clone())).le(100),
            (minus(c(-1)) * ti.clone()).le(100),
            (tk.clone() * tj.clone()).le(100),
            (ti.clone() * tj.clone() * ti.clone()).le(100),
        ];
        for atom in &refused {
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
        let product = x * y * IntExpr::constant(4);
        s.assert(product.le(i64::MAX / 4 + 1));
        let mut lowered = lowered(&s, &product);
        assert_eq!(
            lowered.objective_at(&[Interval::singleton(1 << 31); 2]),
            None
        );
        let outcome = s.maximize(&product).unwrap();
        assert!(outcome.model.is_none() && outcome.complete());
    }

    #[test]
    fn a_unary_constraint_probed_at_the_root_stops_watching() {
        // `Ti · i64::MAX ≤ i64::MAX − 1`: `Ti`'s coefficient saturated, so
        // the cut declines and the probe keeps `Ti = 0`.
        let mut s = Solver::new();
        let ti = s.int_var("Ti", 0, 64);
        let tj = s.int_var("Tj", 1, 64);
        s.assert((ti.clone() * IntExpr::constant(i64::MAX)).le(i64::MAX - 1));
        s.assert((ti.clone() * tj.clone()).le(256));
        let config = SolverConfig::default();
        let mut stats = SolverStats::default();
        let objective = ti * tj;
        let mut search = search_over(s.base_domains(), &s, &config, &mut stats, &objective);
        let watchers = |search: &Search, v: usize| {
            search.watching[search.watch_starts[v]..search.watch_starts[v + 1]].to_vec()
        };
        assert_eq!(watchers(&search, 0), [0, 1, 2]);
        assert_eq!(watchers(&search, 1), [1, 2]);
        assert!(search.revise(0));
        assert_eq!(search.domains[0].values(), &[0]);
        let entailed = |search: &Search| -> Vec<_> {
            search.row_state.iter().map(|r| r.entailed_at).collect()
        };
        assert_eq!(entailed(&search)[0], Some(0), "entailed from here on");
        search.enqueue_watchers(0);
        assert_eq!(search.queue, [1, 2], "a sleeping row is not enqueued");
        search.clear_queue();
        // Below the root an entailment lasts until the search backtracks
        // above it: `Ti·Tj = 0` sleeps at depth 1 and wakes at the root.
        search.trail.push_level();
        assert!(search.revise(1));
        assert_eq!(entailed(&search)[..2], [Some(0), Some(1)]);
        search.pop_level();
        assert_eq!(entailed(&search)[..2], [Some(0), None]);
    }

    #[test]
    fn sleeping_rows_leave_the_search_tree_unchanged() {
        // An entailed row stays entailed until backtrack, so not revising
        // it changes no domain: the same tree, with no more revisions.
        let config = SolverConfig::default();
        let (mut slept, mut woken) = (0, 0);
        for case in 0..CASES {
            let rng = &mut TestRng::for_case("sleeping_rows", case);
            let (solver, objective, _) = formulation(rng, case);
            let (mut stats_sleep, mut stats_awake) = Default::default();
            let base = solver.base_domains();
            let sleep = search_over(base, &solver, &config, &mut stats_sleep, &objective).run();
            let awake = search_over(base, &solver, &config, &mut stats_awake, &objective)
                .awake()
                .run();
            assert_eq!(sleep.values, awake.values, "case {case}: model");
            assert_eq!(sleep.incumbents, awake.incumbents, "case {case}");
            assert_eq!(stats_sleep.nodes, stats_awake.nodes, "case {case}: nodes");
            assert_eq!(
                stats_sleep.bound_prunes, stats_awake.bound_prunes,
                "case {case}"
            );
            assert_eq!(
                stats_sleep.values_pruned, stats_awake.values_pruned,
                "case {case}"
            );
            assert!(
                stats_sleep.propagations <= stats_awake.propagations,
                "case {case}: {} > {} propagations",
                stats_sleep.propagations,
                stats_awake.propagations
            );
            slept += stats_awake.propagations - stats_sleep.propagations;
            woken += stats_awake.propagations;
        }
        assert!(slept > 0, "no revision of {woken} was saved");
    }

    #[test]
    fn propagation_runs_to_its_fixpoint() {
        // Maximizing `2x + y` under `x + 2y ≤ 4000` with the incumbent at
        // 7 999: each revision of the bound raises `x`'s low end and each
        // revision of the capacity lowers `y`'s high end in turn, fifteen
        // revisions down to the one optimum (4000, 0) — which only a
        // propagation that runs until nothing changes settles without
        // branching.
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 4000);
        let y = s.int_var("y", 0, 4000);
        s.assert((x.clone() + IntExpr::constant(2) * y.clone()).le(4000));
        let objective = IntExpr::constant(2) * x + y;
        let (config, mut stats) = (SolverConfig::default(), SolverStats::default());
        let lowered = lowered(&s, &objective);
        let domains = s.base_domains().to_vec();
        let search = Search::new(domains, lowered, Some(7_999), &config, &mut stats, None);
        let pass = search.run();
        assert_eq!(pass.values, Some(vec![4000, 0]));
        assert_eq!(stats.nodes, 0, "root propagation alone proves it");
        assert_eq!(stats.propagations, 15);
    }
}
