//! The exhaustive engine, retained as the executable spec of the search.
//!
//! It runs the paper's §IV-L loop literally: find a model, demand
//! `OBJ > best`, search again from scratch, until nothing improves. Every
//! DFS node clones the full `Vec<Domain>`, every propagation round
//! re-evaluates every row against the current domains and filters each
//! variable by trying every value, and there is no incumbent pruning. It
//! shares no code with the fast engine's rows or search: it flattens each
//! row itself and has its own evaluator — a row's low end (every variable
//! at its smallest value) against a capacity, and its high end against
//! `OBJ > best` — in `i128`, held at `i64::MAX`, where the fast engine
//! saturates machine words. Its one job is differential testing: the fast
//! engine must return the same optimal objective values on every random
//! small formulation (`crates/smt/tests/differential.rs`) and on every
//! PolyBench formulation of the paper's setting
//! (`tests/solver_vs_bruteforce.rs`).
//!
//! The reference runs exhaustively, with no budgets: callers are expected
//! to hand it formulations it can finish (all of the PolyBench
//! formulations qualify).

use crate::domain::Domain;
use crate::expr::{IntExpr, IntNode};
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

/// A row flattened: a constant plus products `coef · Π vars`.
#[derive(Debug, Default)]
struct Poly {
    constant: i128,
    products: Vec<(i128, Vec<usize>)>,
}

impl Poly {
    /// Flattens `expr` when it is a row over `domains`: constants `≥ 0`,
    /// variables whose domains hold no negative value, no variable twice
    /// in a product and no sum inside a product.
    fn of(expr: &IntExpr, domains: &[Domain]) -> Option<Poly> {
        let mut poly = Poly::default();
        poly.add(expr, domains)?;
        Some(poly)
    }

    fn add(&mut self, expr: &IntExpr, domains: &[Domain]) -> Option<()> {
        if let IntNode::Add(xs) = &*expr.0 {
            return xs.iter().try_for_each(|x| self.add(x, domains));
        }
        let (mut coef, mut vars) = (1, Vec::new());
        product(expr, domains, &mut coef, &mut vars)?;
        if vars.is_empty() {
            self.constant = (self.constant + coef).min(MAX);
        } else {
            self.products.push((coef, vars));
        }
        Some(())
    }

    /// The row's value with each variable `i` at `value(i)`, held at
    /// [`MAX`].
    fn at(&self, value: impl Fn(usize) -> i64) -> i128 {
        self.products
            .iter()
            .fold(self.constant, |sum, (coef, vars)| {
                let product =
                    (vars.iter()).fold(*coef, |p, &v| (p * i128::from(value(v))).min(MAX));
                (sum + product).min(MAX)
            })
    }
}

fn product(
    expr: &IntExpr,
    domains: &[Domain],
    coef: &mut i128,
    vars: &mut Vec<usize>,
) -> Option<()> {
    match &*expr.0 {
        IntNode::Const(c) if *c >= 0 => *coef = (*coef * i128::from(*c)).min(MAX),
        IntNode::Var(id, _) => {
            let v = id.index();
            let negative = domains[v].values().first().is_some_and(|&lo| lo < 0);
            if negative || vars.contains(&v) {
                return None;
            }
            vars.push(v);
        }
        IntNode::Mul(xs) => return xs.iter().try_for_each(|x| product(x, domains, coef, vars)),
        IntNode::Const(_) | IntNode::Add(_) => return None,
    }
    Some(())
}

/// A row and the test its end must pass.
enum Check {
    /// `row ≤ cap`, refuted by the row's low end.
    Capacity(i128),
    /// `row > best`, refuted by the row's high end.
    Above(i128),
}

struct NaiveSearch<'a> {
    rows: Vec<(&'a Poly, Check)>,
    nodes: u64,
}

impl NaiveSearch<'_> {
    /// Whether `row` can still hold over `domains`, with variable `pinned`
    /// (when given) at one value: the one end that could satisfy it.
    fn possible(
        (poly, check): &(&Poly, Check),
        domains: &[Domain],
        pinned: Option<(usize, i64)>,
    ) -> bool {
        let end = |pick: fn(&Domain) -> Option<i64>| {
            poly.at(|v| match pinned {
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
        let (var, _) = (domains.iter().enumerate())
            .filter(|(_, d)| d.len() > 1)
            .min_by_key(|(_, d)| d.len())?;
        // Largest value first, as the fast engine branches.
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
                for var in row.0.products.iter().flat_map(|(_, vars)| vars) {
                    let mut kept = domains[*var].clone();
                    if kept.retain(|&v| Self::possible(row, domains, Some((*var, v)))) {
                        if kept.is_empty() {
                            return false;
                        }
                        domains[*var] = kept;
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
    let names = solver.names();
    known_vars(|f| objective.each_var(f), names.len())?;
    let domains = solver.base_domains();
    let mut capacities = Vec::new();
    for (c, _) in solver.constraint_entries() {
        let IntNode::Const(cap) = *c.rhs.0 else {
            return Err(SolveError::NotARow(c.to_string()));
        };
        let poly = Poly::of(&c.lhs, domains).ok_or_else(|| SolveError::NotARow(c.to_string()))?;
        capacities.push((poly, i128::from(cap)));
    }
    let obj = Poly::of(objective, domains)
        .ok_or_else(|| SolveError::NotARow(objective.to_string()))?;
    let mut best: Option<(i64, Vec<i64>)> = None;
    let (mut calls, mut nodes) = (0u32, 0u64);
    loop {
        let rows = (capacities.iter())
            .map(|(poly, cap)| (poly, Check::Capacity(*cap)))
            .chain(
                best.as_ref()
                    .map(|(value, _)| (&obj, Check::Above((*value).into()))),
            )
            .collect();
        let mut search = NaiveSearch { rows, nodes: 0 };
        let found = search.dfs(domains.to_vec());
        calls += 1;
        nodes += search.nodes;
        let Some(values) = found else { break };
        // Held at `i64::MAX`, which nothing exceeds.
        let value = obj.at(|v| values[v]) as i64;
        best = Some((value, values));
        if i128::from(value) == MAX {
            break;
        }
    }
    Ok(ReferenceMaximize {
        best: best.as_ref().map(|(v, _)| *v),
        model: best.map(|(_, values)| Model::new(values, names.to_vec())),
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
        assert_eq!(naive.best, fast.best);
        assert!(naive.solver_calls >= 2);
        // Both refuse what is not a row, naming it alike.
        let minus = IntExpr::constant(-1) * y.clone();
        s.assert((x.clone() + minus.clone()).le(3));
        assert_eq!(
            maximize(&s, &obj).unwrap_err(),
            s.maximize(&obj).unwrap_err()
        );
    }
}
