//! The naive search engine, retained for differential testing.
//!
//! This is the solver core as it stood before the trail/worklist rewrite:
//! every DFS node clones the full `Vec<Domain>`, every propagation round
//! re-evaluates every constraint against freshly rebuilt hulls, and the
//! maximization loop has no bound pruning. It is deliberately kept
//! byte-for-byte dumb — its one job is differential testing: the fast
//! engine must return the same sat/unsat verdicts and the same optimal
//! objective values on every random small formulation
//! (`crates/smt/tests/differential.rs`) and the same optimum on every
//! PolyBench formulation of the paper's setting
//! (`tests/solver_vs_bruteforce.rs`).
//!
//! The reference runs exhaustively, with no budgets: callers are expected
//! to hand it formulations the old engine could already finish (all of the
//! PolyBench formulations qualify — the pre-PR test suite solved them).

use crate::domain::Domain;
use crate::expr::{BoolExpr, IntExpr, VarId};
use crate::interval::Interval;
use crate::model::Model;
use crate::search::{assignment_of, branch_order, tri_bool, Tri, PROBE_LIMIT};
use crate::solver::{SolveError, Solver};

/// Result of a reference [`check`], with the work done to get it.
#[derive(Debug, Clone)]
pub struct ReferenceOutcome {
    /// A satisfying assignment, if one exists (the search is exhaustive,
    /// so `None` proves unsatisfiability).
    pub model: Option<Model>,
    /// Search-tree nodes expanded.
    pub nodes: u64,
}

/// Result of a reference [`maximize`].
#[derive(Debug, Clone)]
pub struct ReferenceMaximize {
    /// The optimal model (none if unsatisfiable).
    pub model: Option<Model>,
    /// The proved-optimal objective value.
    pub best: Option<i64>,
    /// Number of `check`-equivalent searches run by the `OBJ > best` loop.
    pub solver_calls: u32,
    /// Total search-tree nodes expanded across all calls.
    pub nodes: u64,
}

struct NaiveSearch<'a> {
    names: &'a [String],
    constraints: &'a [(BoolExpr, Vec<VarId>)],
    nodes: u64,
}

impl NaiveSearch<'_> {
    /// Returns a satisfying assignment extending `domains`, or `None`.
    fn dfs(&mut self, mut domains: Vec<Domain>) -> Option<Vec<i64>> {
        if !self.propagate(&mut domains) {
            return None;
        }
        if let Some(values) = assignment_of(&domains) {
            let model = Model::new(values.clone(), self.names.to_vec());
            let satisfied = |(c, _): &(BoolExpr, _)| model.eval_bool(c) == Ok(true);
            return self.constraints.iter().all(satisfied).then_some(values);
        }
        let (var_idx, _) = domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.len() > 1)
            .min_by_key(|(_, d)| d.len())?;
        for value in branch_order(&domains[var_idx]) {
            self.nodes += 1;
            let mut child = domains.clone();
            child[var_idx] = Domain::singleton(value);
            if let Some(values) = self.dfs(child) {
                return Some(values);
            }
        }
        None
    }

    /// Filters domains until a round changes nothing, rebuilding every
    /// hull for every constraint each round — the O(V·C) behaviour the
    /// fast engine replaced. Every round that goes on removed a value from
    /// a finite domain, so it ends. Returns `false` on inconsistency.
    fn propagate(&mut self, domains: &mut [Domain]) -> bool {
        loop {
            let mut changed = false;
            for (constraint, vars) in self.constraints {
                let hulls: Vec<Interval> = domains.iter().map(Domain::hull).collect();
                match tri_bool(constraint, &hulls) {
                    Tri::False => return false,
                    Tri::True => continue,
                    Tri::Unknown => {}
                }
                for &var in vars {
                    let idx = var.index();
                    if domains[idx].len() <= 1 || domains[idx].len() > PROBE_LIMIT {
                        continue;
                    }
                    let mut probe = hulls.clone();
                    let before = domains[idx].len();
                    domains[idx].retain(|&v| {
                        probe[idx] = Interval::singleton(v);
                        tri_bool(constraint, &probe) != Tri::False
                    });
                    if domains[idx].len() != before {
                        changed = true;
                        if domains[idx].is_empty() {
                            return false;
                        }
                    }
                }
            }
            if !changed {
                return true;
            }
        }
    }
}

/// Decides satisfiability of `solver`'s assertions with the naive engine.
/// The solver itself is untouched (no stats, no scopes).
///
/// # Errors
///
/// Returns [`SolveError::UnknownVariable`] if a constraint references a
/// variable from another solver.
pub fn check(solver: &Solver) -> Result<ReferenceOutcome, SolveError> {
    solver.validate()?;
    let constraints: Vec<(BoolExpr, Vec<VarId>)> = solver.constraint_entries().to_vec();
    run_check(solver, &constraints)
}

fn run_check(
    solver: &Solver,
    constraints: &[(BoolExpr, Vec<VarId>)],
) -> Result<ReferenceOutcome, SolveError> {
    let mut search = NaiveSearch {
        names: solver.names(),
        constraints,
        nodes: 0,
    };
    let found = search.dfs(solver.base_domains().to_vec());
    Ok(ReferenceOutcome {
        model: found.map(|values| Model::new(values, solver.names().to_vec())),
        nodes: search.nodes,
    })
}

/// Maximizes `objective` with the pre-PR iterative loop: find a model,
/// assert `objective > best`, re-search, repeat until unsatisfiable. No
/// incumbent pruning, no budgets. The solver itself is untouched.
///
/// # Errors
///
/// Propagates [`check`] errors, plus evaluation errors on the objective.
pub fn maximize(solver: &Solver, objective: &IntExpr) -> Result<ReferenceMaximize, SolveError> {
    solver.validate()?;
    let mut constraints: Vec<(BoolExpr, Vec<VarId>)> = solver.constraint_entries().to_vec();
    let mut best: Option<(i64, Model)> = None;
    let mut calls = 0u32;
    let mut nodes = 0u64;
    loop {
        let outcome = run_check(solver, &constraints)?;
        calls += 1;
        nodes += outcome.nodes;
        match outcome.model {
            Some(model) => {
                let value = model.eval(objective)?;
                best = Some((value, model));
                // `OBJ > best`, as `best + 1 <= OBJ`; nothing exceeds
                // `i64::MAX`.
                let Some(next) = value.checked_add(1) else {
                    break;
                };
                let improve = IntExpr::constant(next).le(objective);
                let mut vars = Vec::new();
                improve.collect_vars(&mut vars);
                constraints.push((improve, vars));
            }
            None => break,
        }
    }
    let (best_value, model) = match best {
        Some((v, m)) => (Some(v), Some(m)),
        None => (None, None),
    };
    Ok(ReferenceMaximize {
        model,
        best: best_value,
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
        s.assert(IntExpr::constant(5).le(&x));
        let r = check(&s).unwrap();
        assert!(r.model.is_some());
        s.assert((x.clone() + IntExpr::constant(1)).le(5));
        let r = check(&s).unwrap();
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
        // The reference leaves the solver untouched: still satisfiable,
        // no scopes open.
        assert!(s.check().unwrap().model.is_some());
        assert!(naive.solver_calls >= 2);
    }
}
