//! The exhaustive engine, retained as the executable spec of the search.
//!
//! It runs the paper's §IV-L loop literally: find a model, demand
//! `OBJ > best`, search again from scratch, until nothing improves. Every
//! DFS node clones the full `Vec<Domain>`, every propagation round
//! re-evaluates every row against the current domains and filters each
//! variable by trying every value, and there is no incumbent pruning. It
//! shares no code with the fast engine's rows or search: it reads each
//! row's terms, checks them itself and has its own evaluator — a row's
//! low end (every variable at its smallest value) against a capacity, and
//! its high end against `OBJ > best` — in `i128`, held at `i64::MAX`,
//! where the fast engine saturates machine words. Its one job is differential testing: the fast
//! engine must return the same optimal objective values and models on
//! every random small formulation (`crates/smt/tests/differential.rs`) and on every
//! PolyBench formulation of the paper's setting
//! (`tests/solver_vs_bruteforce.rs`).
//!
//! The reference runs exhaustively, with no budgets: callers are expected
//! to hand it formulations it can finish (all of the PolyBench
//! formulations qualify).

use crate::domain::Domain;
use crate::expr::IntExpr;
use crate::model::{known_vars, Model};
use crate::solver::{SolveError, Solver};

/// Result of a reference [`maximize`].
#[derive(Debug, Clone)]
pub struct ReferenceMaximize {
    /// The optimal model (none if unsatisfiable).
    pub model: Option<Model>,
    /// The proved-optimal objective value.
    pub best: Option<i64>,
    /// Number of searches run by the `OBJ > best` loop.
    pub solver_calls: u32,
    /// Total search-tree nodes expanded across all calls.
    pub nodes: u64,
}

/// `i64::MAX`: values are exact up to it and held there past it (every
/// operand of a row is non-negative, so a value past it only grows).
const MAX: i128 = i64::MAX as i128;

/// Whether `expr` is a row over `domains`: no negative constant went into
/// it, no variable's domain holds a negative value, and no variable is
/// twice in one product.
fn is_row(expr: &IntExpr, domains: &[Domain]) -> bool {
    let sum = &*expr.0;
    !sum.negative
        && sum.terms().all(|term| {
            (term.vars.iter().enumerate()).all(|(i, var)| {
                let lo = domains[var.id.index()].values().first();
                lo.is_none_or(|&lo| lo >= 0) && term.vars[..i].iter().all(|v| v.id != var.id)
            })
        })
}

/// The row's value with each variable `i` at `value(i)`, held at [`MAX`].
fn at(row: &IntExpr, value: impl Fn(usize) -> i64) -> i128 {
    let sum = &*row.0;
    sum.terms().fold(i128::from(sum.constant), |total, term| {
        let product = (term.vars.iter()).fold(i128::from(term.coef), |p, v| {
            (p * i128::from(value(v.id.index()))).min(MAX)
        });
        (total + product).min(MAX)
    })
}

/// A row and the test its end must pass.
enum Check {
    /// `row ≤ cap`, refuted by the row's low end.
    Capacity(i128),
    /// `row > best`, refuted by the row's high end.
    Above(i128),
}

struct NaiveSearch<'a> {
    rows: Vec<(&'a IntExpr, Check)>,
    nodes: u64,
}

impl NaiveSearch<'_> {
    /// Whether `row` can still hold over `domains`, with variable `pinned`
    /// (when given) at one value: the one end that could satisfy it.
    fn possible(
        (row, check): &(&IntExpr, Check),
        domains: &[Domain],
        pinned: Option<(usize, i64)>,
    ) -> bool {
        let end = |pick: fn(&Domain) -> Option<i64>| {
            at(row, |v| match pinned {
                Some((p, value)) if p == v => value,
                _ => pick(&domains[v]).unwrap_or(0),
            })
        };
        match check {
            Check::Capacity(cap) => end(|d| d.values().first().copied()) <= *cap,
            Check::Above(best) => end(|d| d.values().last().copied()) > *best,
        }
    }

    /// Returns an assignment extending `domains` under every row, or
    /// `None`.
    fn dfs(&mut self, mut domains: Vec<Domain>) -> Option<Vec<i64>> {
        if !self.propagate(&mut domains) {
            return None;
        }
        if domains.iter().all(|d| d.len() == 1) {
            let values: Vec<i64> = domains.iter().map(|d| d.values()[0]).collect();
            let holds = |row| Self::possible(row, &domains, None);
            return self.rows.iter().all(holds).then_some(values);
        }
        // The first open variable in registration order, largest value
        // first, as the fast engine branches.
        let var = domains.iter().position(|d| d.len() > 1)?;
        for &value in domains[var].values().iter().rev() {
            self.nodes += 1;
            let mut child = domains.clone();
            child[var] = Domain::singleton(value);
            if let Some(values) = self.dfs(child) {
                return Some(values);
            }
        }
        None
    }

    /// Filters every variable of every row value by value until a round
    /// changes nothing. Every round that goes on removed a value from a
    /// finite domain, so it ends. Returns `false` on inconsistency.
    fn propagate(&mut self, domains: &mut [Domain]) -> bool {
        if domains.iter().any(Domain::is_empty) {
            return false;
        }
        loop {
            let mut changed = false;
            for row in &self.rows {
                if !Self::possible(row, domains, None) {
                    return false;
                }
                for var in row.0.vars().map(|v| v.id.index()) {
                    let mut kept = domains[var].clone();
                    if kept.retain(|&v| Self::possible(row, domains, Some((var, v)))) {
                        if kept.is_empty() {
                            return false;
                        }
                        domains[var] = kept;
                        changed = true;
                    }
                }
            }
            if !changed {
                return true;
            }
        }
    }
}

/// Maximizes `objective` with the literal §IV-L loop: find a model,
/// demand `objective > best`, re-search, repeat until nothing improves. No
/// incumbent pruning, no budgets. The solver itself is untouched.
///
/// # Errors
///
/// The conditions of [`Solver::maximize`]: [`SolveError::UnknownVariable`]
/// for a variable from another solver, and [`SolveError::NotARow`] naming
/// the first assertion, or else the objective, that is not a row.
pub fn maximize(solver: &Solver, objective: &IntExpr) -> Result<ReferenceMaximize, SolveError> {
    solver.validate()?;
    let domains = solver.base_domains();
    known_vars(objective.vars(), domains.len())?;
    let mut capacities = Vec::new();
    for c in solver.constraints() {
        if !is_row(&c.lhs, domains) {
            return Err(SolveError::NotARow(c.to_string()));
        }
        capacities.push((&c.lhs, i128::from(c.cap)));
    }
    if !is_row(objective, domains) {
        return Err(SolveError::NotARow(objective.to_string()));
    }
    let mut best: Option<(i64, Vec<i64>)> = None;
    let (mut calls, mut nodes) = (0u32, 0u64);
    loop {
        let rows = (capacities.iter())
            .map(|&(row, cap)| (row, Check::Capacity(cap)))
            .chain(
                best.as_ref()
                    .map(|(value, _)| (objective, Check::Above((*value).into()))),
            )
            .collect();
        let mut search = NaiveSearch { rows, nodes: 0 };
        let found = search.dfs(domains.to_vec());
        calls += 1;
        nodes += search.nodes;
        let Some(values) = found else { break };
        // Held at `i64::MAX`, which nothing exceeds.
        let value = at(objective, |v| values[v]) as i64;
        best = Some((value, values));
        if i128::from(value) == MAX {
            break;
        }
    }
    Ok(ReferenceMaximize {
        best: best.as_ref().map(|(v, _)| *v),
        model: best.map(|(_, values)| Model::new(values)),
        solver_calls: calls,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_check_agrees_on_sat_and_unsat() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 10);
        s.assert((IntExpr::constant(2) * x.clone()).le(9));
        let r = maximize(&s, &x).unwrap();
        assert_eq!(r.best, Some(4));
        s.assert((x.clone() + IntExpr::constant(1)).le(1));
        let r = maximize(&s, &x).unwrap();
        assert!(r.model.is_none());
        assert!(r.nodes <= 10);
    }

    #[test]
    fn reference_maximize_matches_fast_engine_on_matmul_slice() {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, 64);
        let y = s.int_var("y", 1, 64);
        s.assert((x.clone() * y.clone()).le(100));
        let obj = x.clone() + y.clone();
        let naive = maximize(&s, &obj).unwrap();
        let fast = s.maximize(&obj).unwrap();
        assert_eq!(naive.best, Some(65));
        assert_eq!(naive.best, fast.best());
        assert!(naive.solver_calls >= 2);
        // Both refuse what is not a row, naming it alike: a negative
        // literal, cancelled or not, a repeated factor and a variable whose
        // domain holds a negative value.
        let c = IntExpr::constant;
        let z = s.int_var("z", -1, 8);
        let refused = [
            x.clone() + c(-1) * y.clone(),
            c(-1) * c(-1) * x.clone(),
            x.clone() * y.clone() * x.clone(),
            x.clone() * z,
        ];
        for lhs in refused {
            // The same variables, under this one assertion.
            let mut s = Solver::new();
            s.int_var("x", 1, 64);
            s.int_var("y", 1, 64);
            s.int_var("z", -1, 8);
            s.assert(lhs.le(30));
            let fast = s.maximize(&obj).unwrap_err();
            assert_eq!(fast, SolveError::NotARow(lhs.le(30).to_string()));
            assert_eq!(maximize(&s, &obj).unwrap_err(), fast);
        }
    }

    #[test]
    fn a_product_of_sums_is_multiplied_out_and_solved() {
        // `(x + y)·2 ≤ 20` is the row `2x + 2y ≤ 20`: `x + y` peaks at 10.
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 64);
        let y = s.int_var("y", 0, 64);
        s.assert(((x.clone() + y.clone()) * IntExpr::constant(2)).le(20));
        let obj = x + y;
        let fast = s.maximize(&obj).unwrap();
        assert!(fast.complete());
        assert_eq!(fast.best(), Some(10));
        assert_eq!(maximize(&s, &obj).unwrap().best, Some(10));
    }
}
