#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
//! Capacity rows: a constraint `Σ c·Πx ≤ cap`, or the objective `Σ c·Πx`,
//! copied into one flat buffer and revised in one saturating pass.
//!
//! An [`IntExpr`] is already a sum of products; it *qualifies* as a row
//! when no constant it was built from is negative, every variable's base
//! hull has `lo ≥ 0` and no variable appears twice in one product. That is
//! the shape of every capacity the model generator asserts and of its
//! objective, and the solver takes nothing else: [`Lowered::new`] names
//! the first assertion, or the objective, that does not qualify.
//!
//! **Exactness.** Domains only shrink, so every operand of a row stays
//! non-negative for the whole search, and on non-negative operands
//! saturating `+` and `·` give `min(exact, i64::MAX)` at every step, in
//! any order of the operands. So one pass yields the row's exact interval
//! saturated to `i64`, and with one variable pinned to `x` the row's low
//! end is
//! `min(a·x + b, i64::MAX)`, with `a` the sum over the variable's products
//! of the other factors' low ends and `b` the rest of the row (likewise at
//! the high ends). While neither the pass's end nor `a` saturated, both
//! are exact, so the values a capacity keeps are `x ≤ ⌊(cap − b)/a⌋` and
//! those the incumbent bound keeps are `x > ⌊(inc − b)/a⌋`: the cut the
//! per-value probe finds, at no evaluation. Where `a` or the end
//! saturated the search probes instead: it pins the variable's hull to
//! each value and runs the pass again.

use crate::expr::{BoolExpr, IntExpr};
use crate::interval::Interval;

/// Which ends of the hulls a pass reads coefficients at: the low ends for
/// a capacity (`lo(row) > cap` refutes a value), the high ends for the
/// incumbent bound (`hi(row) ≤ incumbent` does).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum End {
    #[default]
    Lo,
    Hi,
}

impl End {
    fn pick(self, lo: i64, hi: i64) -> i64 {
        match self {
            End::Lo => lo,
            End::Hi => hi,
        }
    }
}

/// A lowered row: the range of its products in [`Rows::terms`], the
/// range of its variables in [`Rows::vars`] and the sum of its
/// variable-free products.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    start: usize,
    end: usize,
    vars_start: usize,
    vars_end: usize,
    constant: i64,
}

/// One product `coef · Π factors`, its factors a range of
/// [`Rows::factors`].
#[derive(Debug, Clone)]
struct Term {
    coef: i64,
    start: usize,
    end: usize,
}

/// A variable in a product: its hull index, and its slot — its position
/// in the row's watched variables, where its coefficient is kept.
#[derive(Debug, Clone)]
struct Factor {
    var: usize,
    slot: usize,
}

/// Every row of one search, lowered into one flat buffer, plus what the
/// last [`Rows::pass`] found.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows {
    terms: Vec<Term>,
    factors: Vec<Factor>,
    /// Per row, its variables' hull indices in first-occurrence order: a
    /// variable's slot is its position among its row's.
    vars: Vec<usize>,
    /// Per factor of the product being passed: `coef` times the ends of
    /// the factors before it.
    prefix: Vec<i64>,
    /// The last pass: the ends it read, and the row's end there.
    last: (End, i64),
    /// Per slot: the coefficient the last pass found.
    coefs: Vec<i64>,
}

/// A formulation in rows: every assertion as a capacity, and the
/// objective.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    pub(crate) rows: Rows,
    /// Per assertion, in order: its row and its capacity.
    pub(crate) capacities: Vec<(Row, i64)>,
    pub(crate) objective: Row,
    /// The base hulls the rows were lowered over: a search's working
    /// hulls start as these.
    pub(crate) hulls: Vec<Interval>,
}

impl Lowered {
    /// Lowers every assertion and `objective` over the `base` hulls;
    /// `Err` carries the first that is not a row, in `Display` form. Every
    /// buffer is sized once, up front.
    pub(crate) fn new(
        constraints: &[BoolExpr],
        objective: &IntExpr,
        base: Vec<Interval>,
    ) -> Result<Lowered, String> {
        let exprs = || (constraints.iter().map(|c| &c.lhs)).chain([objective]);
        let terms = exprs().flat_map(|e| e.0.terms()).count();
        let factors = exprs().flat_map(IntExpr::vars).count();
        let mut rows = Rows {
            terms: Vec::with_capacity(terms),
            factors: Vec::with_capacity(factors),
            vars: Vec::with_capacity(factors),
            prefix: Vec::with_capacity(factors),
            coefs: Vec::with_capacity(factors),
            ..Rows::default()
        };
        let mut capacities = Vec::with_capacity(constraints.len());
        for c in constraints {
            let row = rows.lower(&c.lhs, &base).ok_or_else(|| c.to_string())?;
            capacities.push((row, c.cap));
        }
        let objective = (rows.lower(objective, &base)).ok_or_else(|| objective.to_string())?;
        Ok(Lowered {
            rows,
            capacities,
            objective,
            hulls: base,
        })
    }

    /// The objective's value at `point` (every hull a singleton), when
    /// every capacity holds there.
    pub(crate) fn objective_at(&mut self, point: &[Interval]) -> Option<i64> {
        let rows = &mut self.rows;
        (self.capacities.iter())
            .all(|&(row, cap)| rows.pass(row, point, End::Lo).hi() <= cap)
            .then(|| rows.pass(self.objective, point, End::Hi).lo())
    }
}

impl Rows {
    /// Lowers `expr` over the `base` hulls: a copy of its terms and its
    /// variables, or `None` when it does not qualify.
    fn lower(&mut self, expr: &IntExpr, base: &[Interval]) -> Option<Row> {
        let sum = &*expr.0;
        let qualifies = !sum.negative
            && sum.terms().all(|term| {
                (term.vars.iter().enumerate()).all(|(i, var)| {
                    let repeated = term.vars[..i].iter().any(|v| v.id == var.id);
                    !repeated && base.get(var.id.index()).is_some_and(|hull| hull.lo() >= 0)
                })
            });
        if !qualifies {
            return None;
        }
        let (start, vars_start) = (self.terms.len(), self.vars.len());
        for term in sum.terms() {
            let first = self.factors.len();
            for var in term.vars {
                let var = var.id.index();
                let vars = &self.vars[vars_start..];
                let slot = vars.iter().position(|&v| v == var).unwrap_or(vars.len());
                if slot == vars.len() {
                    self.vars.push(var);
                }
                self.factors.push(Factor { var, slot });
            }
            self.terms.push(Term {
                coef: term.coef,
                start: first,
                end: self.factors.len(),
            });
        }
        // Scratch for the longest product and the most slots of any row.
        let slots = self.vars.len().saturating_sub(vars_start);
        self.prefix.resize(self.factors.len(), 0);
        self.coefs.resize(self.coefs.len().max(slots), 0);
        Some(Row {
            start,
            end: self.terms.len(),
            vars_start,
            vars_end: self.vars.len(),
            constant: sum.constant,
        })
    }

    /// The hull indices of `row`'s variables, in the order of its slots.
    pub(crate) fn vars(&self, row: Row) -> &[usize] {
        &self.vars[row.vars_start..row.vars_end]
    }

    /// One saturating pass over `row` under `hulls`: returns its interval
    /// (exact, saturated to `i64` — empty when a variable's hull is) and
    /// keeps, per slot, the variable's coefficient at `end`: the sum over
    /// its products of `coef` times the other factors' ends, from prefix
    /// and suffix products. [`Rows::cut`] reads it.
    pub(crate) fn pass(&mut self, row: Row, hulls: &[Interval], end: End) -> Interval {
        let Rows {
            terms,
            factors,
            vars: _,
            prefix,
            last,
            coefs,
        } = self;
        coefs.fill(0);
        let (mut lo, mut hi) = (row.constant, row.constant);
        for term in &terms[row.start..row.end] {
            let factors = &factors[term.start..term.end];
            let prefix = &mut prefix[..factors.len()];
            let (mut term_lo, mut term_hi) = (term.coef, term.coef);
            for (factor, before) in factors.iter().zip(prefix.iter_mut()) {
                let hull = hulls[factor.var];
                if hull.is_empty() {
                    return Interval::empty();
                }
                *before = end.pick(term_lo, term_hi);
                term_lo = term_lo.saturating_mul(hull.lo());
                term_hi = term_hi.saturating_mul(hull.hi());
            }
            let mut after = 1i64;
            for (factor, before) in factors.iter().zip(prefix.iter()).rev() {
                let coef = &mut coefs[factor.slot];
                *coef = coef.saturating_add(before.saturating_mul(after));
                let hull = hulls[factor.var];
                after = after.saturating_mul(end.pick(hull.lo(), hull.hi()));
            }
            lo = lo.saturating_add(term_lo);
            hi = hi.saturating_add(term_hi);
        }
        *last = (end, end.pick(lo, hi));
        Interval::new(lo, hi)
    }

    /// The cut of the variable in `slot`, whose hull is `hull`, against
    /// `level`, after a pass whose interval has `lo ≤ level < hi`:
    /// `⌊(level − b)/a⌋` with `b = e − a·x`, where `e` and `x` are the
    /// row's and the variable's ends the pass read. A capacity
    /// `row ≤ level` ([`End::Lo`]) keeps the values up to the cut, the
    /// bound `row > level` ([`End::Hi`]) those above it. `None` when `e`
    /// or `a` saturated.
    pub(crate) fn cut(&self, slot: usize, hull: Interval, level: i64) -> Option<i64> {
        let (end, e) = self.last;
        let (x, a) = (end.pick(hull.lo(), hull.hi()), self.coefs[slot]);
        if e == i64::MAX || a == i64::MAX {
            return None;
        }
        if a == 0 {
            // Every value is kept.
            return Some(end.pick(i64::MAX, i64::MIN));
        }
        let b = e.saturating_sub(a.saturating_mul(x));
        level.saturating_sub(b).checked_div_euclid(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;

    /// Hull ends and weights at and beside the saturation scale.
    const ENDS: [i64; 7] = [0, 1, 2, 1 << 31, 1 << 32, i64::MAX - 1, i64::MAX];

    /// `Σ Π factors`, exact in `i128` (a partial result past `i64::MAX`
    /// is held just past it: every factor is non-negative, so it only
    /// grows), then saturated to `i64`.
    fn exact(products: &[&[i64]]) -> i64 {
        let past = i128::from(i64::MAX) + 1;
        let product = |p: &&[i64]| p.iter().fold(1, |acc, &f| (acc * i128::from(f)).min(past));
        products
            .iter()
            .map(product)
            .sum::<i128>()
            .min(i128::from(i64::MAX)) as i64
    }

    /// The hulls `[lo, hi]` over `ENDS`.
    fn hulls() -> impl Iterator<Item = Interval> {
        let ends = ENDS.iter().enumerate();
        ends.flat_map(|(i, &lo)| ENDS[i..].iter().map(move |&hi| Interval::new(lo, hi)))
    }

    #[test]
    fn a_pass_is_the_tree_bit_for_bit_at_the_saturation_scale() {
        // The row's value is its exact one, saturated once: [`exact`].
        // `c0·x·y + c1·y + c2`: zero and near-`i64::MAX` weights, zero-valued
        // and saturating variables, and an empty hull.
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 0);
        let y = s.int_var("y", 0, 0);
        let base = [Interval::new(0, 1); 2];
        for [c0, c1, c2] in [
            [0, 0, 0],
            [1, 2, 0],
            [3, 0, 1 << 40],
            [i64::MAX, 1, 0],
            [2, i64::MAX - 1, i64::MAX],
        ] {
            let c = IntExpr::constant;
            let expr = c(c0) * x.clone() * y.clone() + c(c1) * y.clone() + c(c2);
            let mut rows = Rows::default();
            let row = rows.lower(&expr, &base).expect("a row");
            for hx in hulls().chain([Interval::empty()]) {
                for hy in hulls() {
                    let point = [hx, hy];
                    let at = |x: i64, y: i64| exact(&[&[c0, x, y], &[c1, y], &[c2]]);
                    let spec = if hx.is_empty() {
                        Interval::empty()
                    } else {
                        Interval::new(at(hx.lo(), hy.lo()), at(hx.hi(), hy.hi()))
                    };
                    assert_eq!(
                        rows.pass(row, &point, End::Hi),
                        spec,
                        "{expr} over {hx}, {hy}"
                    );
                    assert_eq!(
                        rows.pass(row, &point, End::Lo),
                        spec,
                        "{expr} over {hx}, {hy}"
                    );
                    if spec.is_empty() {
                        continue;
                    }
                    // The coefficients the pass keeps: `c0·lo(y)` and
                    // `c0·lo(x) + c1`, saturated.
                    let a_x = c0.saturating_mul(hy.lo());
                    let a_y = c0.saturating_mul(hx.lo()).saturating_add(c1);
                    assert_eq!(rows.coefs[..2], [a_x, a_y], "{expr} over {hx}, {hy}");
                }
            }
        }
    }

    #[test]
    fn cuts_decline_where_the_pass_saturated() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 0);
        let y = s.int_var("y", 0, 0);
        let mut rows = Rows::default();
        let row = rows
            .lower(&(x * y), &[Interval::new(0, 1); 2])
            .expect("a row");
        // `x·y ≤ i64::MAX − 1` with `y = 2^62`: `x = 1` fits, `x = 2`
        // saturates above the capacity.
        let hulls = [Interval::new(0, 3), Interval::singleton(1 << 62)];
        let ends = rows.pass(row, &hulls, End::Lo);
        assert_eq!(ends, Interval::new(0, i64::MAX));
        assert_eq!(rows.cut(0, hulls[0], i64::MAX - 1), Some(1));
        // `y = i64::MAX`: `x`'s coefficient saturated, so the cut declines
        // to the probe; `x = 0` leaves `y` a zero coefficient, which keeps
        // every value.
        let hulls = [Interval::new(0, 3), Interval::singleton(i64::MAX)];
        let ends = rows.pass(row, &hulls, End::Lo);
        assert_eq!(ends, Interval::new(0, i64::MAX));
        assert_eq!(rows.cut(0, hulls[0], 5), None);
        assert_eq!(rows.cut(1, hulls[1], 5), Some(i64::MAX));
        // The bound reads the high ends: `hi = 3·2^61` is exact, and
        // `x·2^61 > 2^62` keeps `x ≥ 3`; at `y = 2^62` the high end
        // saturates and the bound declines.
        let hulls = [Interval::new(0, 3), Interval::new(0, 1 << 61)];
        assert_eq!(rows.pass(row, &hulls, End::Hi), Interval::new(0, 3 << 61));
        assert_eq!(rows.cut(0, hulls[0], 1 << 62), Some(2));
        let hulls = [Interval::new(0, 3), Interval::new(0, 1 << 62)];
        assert_eq!(rows.pass(row, &hulls, End::Hi), Interval::new(0, i64::MAX));
        assert_eq!(rows.cut(0, hulls[0], 1 << 62), None);
    }
}
