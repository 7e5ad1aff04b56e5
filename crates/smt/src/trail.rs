//! Trail-based backtracking for the search engine.
//!
//! The original depth-first search cloned the entire `Vec<Domain>` at every
//! node. The trail replaces that with copy-on-first-write undo: a decision
//! level saves only the domains it actually narrows, and backtracking
//! restores exactly those. On EATSS formulations — a handful of variables,
//! most untouched by any single propagation — this turns the per-node cost
//! from O(total domain values) into O(changed domains).

use crate::domain::Domain;
use crate::interval::Interval;

/// Undo stack of domain overwrites, organised into decision levels.
///
/// Saves happen lazily: [`Trail::replace`] stores the previous [`Domain`]
/// only the first time a variable changes within the current level (later
/// overwrites at the same level drop the intermediate state — restoring to
/// the level entry snapshot is all backtracking needs). Mutations made with
/// no level open (root propagation) are permanent for the enclosing search,
/// which owns its working copy of the domains.
#[derive(Debug)]
pub(crate) struct Trail {
    /// Saved `(variable index, domain as of level entry)` pairs.
    saved: Vec<(u32, Domain)>,
    /// Per level: `saved` length at entry plus the level's unique id.
    marks: Vec<(usize, u64)>,
    /// Monotonically increasing level id source (ids are never reused, so
    /// a stale stamp can never alias a live level after backtracking).
    next_id: u64,
    /// Per variable: id of the level that last saved it (0 = never).
    stamp: Vec<u64>,
}

impl Trail {
    /// A trail for `num_vars` variables with no open level, sized for a
    /// depth-first search that pins one open variable per level: it opens
    /// at most `num_vars` levels, and the `L`-th saves at most the
    /// `num_vars − L + 1` variables its ancestors left open.
    pub(crate) fn new(num_vars: usize) -> Self {
        Trail {
            saved: Vec::with_capacity(num_vars * (num_vars + 1) / 2),
            marks: Vec::with_capacity(num_vars),
            next_id: 1,
            stamp: vec![0; num_vars],
        }
    }

    /// Opens a decision level; subsequent [`Trail::replace`] calls are
    /// undone by the matching [`Trail::pop_level`].
    pub(crate) fn push_level(&mut self) {
        self.marks.push((self.saved.len(), self.next_id));
        self.next_id += 1;
    }

    /// Number of open decision levels (0 at the root, where narrowing is
    /// permanent).
    pub(crate) fn depth(&self) -> usize {
        self.marks.len()
    }

    /// Replaces `domains[var]` with `new`, saving the previous domain for
    /// undo if this is the variable's first change in the current level.
    pub(crate) fn replace(&mut self, var: usize, domains: &mut [Domain], new: Domain) {
        if let Some(&(_, id)) = self.marks.last() {
            if self.stamp[var] != id {
                self.stamp[var] = id;
                let old = std::mem::replace(&mut domains[var], new);
                self.saved.push((var as u32, old));
                return;
            }
        }
        domains[var] = new;
    }

    /// Closes the innermost level, restoring every domain it narrowed and
    /// the matching hull entries.
    ///
    /// # Panics
    ///
    /// Panics if no level is open — a search-engine invariant violation.
    pub(crate) fn pop_level(&mut self, domains: &mut [Domain], hulls: &mut [Interval]) {
        // The search pairs every pop with its push: an unmatched pop is a
        // bug in the engine, not an input.
        #[allow(clippy::expect_used)]
        let (mark, _) = self.marks.pop().expect("pop_level without push_level");
        for (var, dom) in self.saved.drain(mark..).rev() {
            let idx = var as usize;
            hulls[idx] = dom.hull();
            domains[idx] = dom;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::TestRng;

    fn doms(specs: &[(i64, i64)]) -> (Vec<Domain>, Vec<Interval>) {
        let d: Vec<Domain> = specs
            .iter()
            .map(|&(lo, hi)| Domain::range(lo, hi))
            .collect();
        let h = d.iter().map(Domain::hull).collect();
        (d, h)
    }

    #[test]
    fn pop_restores_saved_domains_and_hulls() {
        let (mut d, mut h) = doms(&[(1, 10), (1, 10)]);
        let mut t = Trail::new(2);
        t.push_level();
        t.replace(0, &mut d, Domain::singleton(7));
        h[0] = d[0].hull();
        assert_eq!(d[0].as_singleton(), Some(7));
        t.pop_level(&mut d, &mut h);
        assert_eq!(d[0].len(), 10);
        assert_eq!(h[0], Interval::new(1, 10));
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn second_replace_in_same_level_keeps_entry_snapshot() {
        let (mut d, mut h) = doms(&[(1, 10)]);
        let mut t = Trail::new(1);
        t.push_level();
        t.replace(0, &mut d, Domain::range(2, 9));
        t.replace(0, &mut d, Domain::singleton(5));
        t.pop_level(&mut d, &mut h);
        // Restores the level-entry state, not the intermediate [2, 9].
        assert_eq!(d[0].len(), 10);
    }

    #[test]
    fn nested_levels_restore_in_order() {
        let (mut d, mut h) = doms(&[(1, 8), (1, 8)]);
        let mut t = Trail::new(2);
        t.push_level();
        t.replace(0, &mut d, Domain::range(1, 4));
        t.push_level();
        t.replace(0, &mut d, Domain::singleton(2));
        t.replace(1, &mut d, Domain::singleton(3));
        t.pop_level(&mut d, &mut h);
        assert_eq!(d[0].len(), 4, "inner pop restores to outer level state");
        assert_eq!(d[1].len(), 8);
        t.pop_level(&mut d, &mut h);
        assert_eq!(d[0].len(), 8);
    }

    #[test]
    fn root_mutations_are_permanent() {
        let (mut d, _h) = doms(&[(1, 8)]);
        let mut t = Trail::new(1);
        t.replace(0, &mut d, Domain::range(2, 4));
        assert_eq!(d[0].len(), 3);
        t.push_level();
        let mut h = vec![d[0].hull()];
        t.pop_level(&mut d, &mut h);
        assert_eq!(d[0].len(), 3, "root narrowing survives backtracking");
    }

    /// A draw from `0..n`.
    fn below(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    #[test]
    fn narrowed_windows_match_copied_values_and_pop_restores_them_exactly() {
        // Random branch / cut / probe narrowings under random levels, each
        // mirrored on a plain `Vec` per variable: the windows always hold
        // the model's values, and a pop restores each window to the very
        // slice (address and length) it was at the level's entry.
        for case in 0..500 {
            let rng = &mut TestRng::for_case("narrowed_windows", case);
            let vars = 1 + below(rng, 4);
            let mut model: Vec<Vec<i64>> = (0..vars)
                .map(|_| {
                    let count = below(rng, 12);
                    let mut values: Vec<i64> = (0..count).map(|_| below(rng, 40) as i64).collect();
                    values.sort_unstable();
                    values.dedup();
                    values
                })
                .collect();
            let mut domains: Vec<Domain> = model
                .iter()
                .map(|v| Domain::from_values(v.clone()))
                .collect();
            let mut hulls: Vec<Interval> = domains.iter().map(Domain::hull).collect();
            let mut trail = Trail::new(vars);
            let window = |d: &Domain| (d.values().as_ptr(), d.len());
            let mut entries = Vec::new();
            for step in 0..60 {
                let var = below(rng, vars);
                let len = model[var].len();
                let narrowed = match below(rng, 5) {
                    0 => {
                        entries.push((
                            model.clone(),
                            domains.iter().map(window).collect::<Vec<_>>(),
                        ));
                        trail.push_level();
                        None
                    }
                    1 => {
                        let Some((values, windows)) = entries.pop() else {
                            continue;
                        };
                        trail.pop_level(&mut domains, &mut hulls);
                        model = values;
                        let restored: Vec<_> = domains.iter().map(window).collect();
                        assert_eq!(restored, windows, "case {case} step {step}: pop");
                        None
                    }
                    // A branch: one value.
                    2 if len > 0 => {
                        let at = below(rng, len);
                        Some((domains[var].window(at..at + 1), vec![model[var][at]]))
                    }
                    // A closed-form cut: a prefix or a suffix.
                    3 => {
                        let at = below(rng, len + 1);
                        let kept = if below(rng, 2) == 0 { 0..at } else { at..len };
                        Some((domains[var].window(kept.clone()), model[var][kept].to_vec()))
                    }
                    // A probe: any subsequence.
                    4 => {
                        let kept: Vec<i64> = (model[var].iter().copied())
                            .filter(|_| below(rng, 3) != 0)
                            .collect();
                        Some((Domain::from_sorted(&kept), kept))
                    }
                    _ => None,
                };
                if let Some((domain, values)) = narrowed {
                    trail.replace(var, &mut domains, domain);
                    hulls[var] = domains[var].hull();
                    model[var] = values;
                }
                for (v, (domain, values)) in domains.iter().zip(&model).enumerate() {
                    assert_eq!(domain.values(), values, "case {case} step {step}: var {v}");
                    assert_eq!(hulls[v], domain.hull(), "case {case} step {step}: hull {v}");
                }
            }
        }
    }

    #[test]
    fn stale_stamps_do_not_alias_new_levels() {
        let (mut d, mut h) = doms(&[(1, 8)]);
        let mut t = Trail::new(1);
        t.push_level();
        t.replace(0, &mut d, Domain::range(1, 4));
        t.pop_level(&mut d, &mut h);
        // A fresh level must save again even though the stamp was set by
        // a (now dead) previous level.
        t.push_level();
        t.replace(0, &mut d, Domain::singleton(1));
        t.pop_level(&mut d, &mut h);
        assert_eq!(d[0].len(), 8);
    }
}
