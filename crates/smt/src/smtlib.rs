//! SMT-LIB 2 export of a solver's current formulation.
//!
//! The paper's artifact drives the Z3 Python bindings; exporting our
//! formulations in SMT-LIB 2 keeps them inspectable with (and checkable
//! against) a real SMT solver when one is available. Each assertion and
//! the objective print as their rows do (`Display`), flat:
//! `(<= (+ (* T0 T1) (* T1 T2)) 12288)`.

use crate::expr::IntExpr;
use crate::solver::Solver;
use std::fmt::Write as _;

/// Renders the solver's variables and assertions as an SMT-LIB 2 script,
/// optionally ending with a `(maximize ...)` directive (νZ syntax).
///
/// # Examples
///
/// ```
/// use eatss_smt::{to_smtlib, Domain, IntExpr, Solver};
///
/// let mut s = Solver::new();
/// // A tile aligned to 16 is a domain of multiples of 16.
/// let x = s.int_var_in("x", Domain::from_values((1..=4).map(|k| 16 * k).collect()));
/// let y = s.int_var("y", 1, 8);
/// s.assert(x.le(48));
/// // A product of sums is written multiplied out.
/// s.assert(((x.clone() + y.clone()) * IntExpr::constant(2)).le(100));
/// let script = to_smtlib(&s, Some(&(x * y)));
/// assert!(script.contains("(declare-const x Int)"));
/// assert!(script.contains("(assert (= (mod (- x 16) 16) 0))"));
/// assert!(script.contains("(assert (<= x 48))"));
/// assert!(script.contains("(assert (<= (+ (* 2 x) (* 2 y)) 100))"));
/// assert!(script.contains("(maximize (* x y))"));
/// ```
pub fn to_smtlib(solver: &Solver, objective: Option<&IntExpr>) -> String {
    let mut out = String::new();
    out.push_str("(set-logic QF_NIA)\n");
    for name in solver.var_names() {
        let _ = writeln!(out, "(declare-const {name} Int)");
    }
    // Domains are part of the formulation.
    for (i, name) in solver.var_names().enumerate() {
        if let Some(dom) = solver.domain_of(crate::VarId(i as u32)) {
            domain_sexp(&mut out, name, dom.values());
        }
    }
    for c in solver.assertions() {
        let _ = writeln!(out, "(assert {c})");
    }
    if let Some(obj) = objective {
        let _ = writeln!(out, "(maximize {obj})");
    }
    out.push_str("(check-sat)\n(get-model)\n");
    out
}

/// Asserts that `name` ranges over exactly `values` (sorted, distinct):
/// the hull; plus a congruence when they are an arithmetic progression of
/// step above 1; plus, only when they are neither contiguous nor a
/// progression, the explicit disjunction.
fn domain_sexp(out: &mut String, name: &str, values: &[i64]) {
    let (Some(&lo), Some(&hi)) = (values.first(), values.last()) else {
        let _ = writeln!(out, "(assert false) ; empty domain for {name}");
        return;
    };
    let _ = writeln!(
        out,
        "(assert (and (>= {name} {}) (<= {name} {})))",
        const_sexp(lo),
        const_sexp(hi)
    );
    let step = values.get(1).map_or(1, |second| second - lo);
    if values.windows(2).all(|w| w[1] - w[0] == step) {
        if step > 1 {
            let _ = writeln!(
                out,
                "(assert (= (mod (- {name} {}) {step}) 0))",
                const_sexp(lo)
            );
        }
    } else {
        out.push_str("(assert (or");
        for &v in values {
            let _ = write!(out, " (= {name} {})", const_sexp(v));
        }
        out.push_str("))\n");
    }
}

/// An integer literal: a negative one as unary minus.
pub(crate) fn const_sexp(v: i64) -> String {
    if v < 0 {
        format!("(- {})", v.unsigned_abs())
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, IntExpr, Solver};

    #[test]
    fn exports_declarations_bounds_and_assertions() {
        let mut s = Solver::new();
        let ti = s.int_var("Ti", 1, 1024);
        let tj = s.int_var("Tj", 1, 1024);
        s.assert((ti.clone() * tj.clone()).le(12_288));
        let script = to_smtlib(&s, None);
        assert!(script.starts_with("(set-logic QF_NIA)"));
        assert!(script.contains("(declare-const Ti Int)"));
        assert!(script.contains("(declare-const Tj Int)"));
        assert!(script.contains("(assert (and (>= Ti 1) (<= Ti 1024)))"));
        assert!(script.contains("(assert (<= (* Ti Tj) 12288))"));
        assert!(script.ends_with("(check-sat)\n(get-model)\n"));
    }

    #[test]
    fn contiguous_domain_is_its_hull_alone() {
        let mut s = Solver::new();
        s.int_var("x", 3, 9);
        s.int_var("one", 5, 5);
        let script = to_smtlib(&s, None);
        assert!(script.contains("(assert (and (>= x 3) (<= x 9)))"));
        assert!(script.contains("(assert (and (>= one 5) (<= one 5)))"));
        assert!(!script.contains("(mod "), "{script}");
        assert!(!script.contains("(or"), "{script}");
    }

    #[test]
    fn progression_domain_adds_a_congruence() {
        let mut s = Solver::new();
        s.int_var_in("T", Domain::from_values((1..=64).map(|k| 16 * k).collect()));
        s.int_var_in("u", Domain::from_values(vec![-7, -2, 3]));
        let script = to_smtlib(&s, None);
        assert!(script.contains("(assert (and (>= T 16) (<= T 1024)))"));
        assert!(script.contains("(assert (= (mod (- T 16) 16) 0))"));
        assert!(script.contains("(assert (and (>= u (- 7)) (<= u 3)))"));
        assert!(script.contains("(assert (= (mod (- u (- 7)) 5) 0))"));
        assert!(!script.contains("(or"), "{script}");
    }

    #[test]
    fn irregular_domain_is_spelled_out() {
        // Doubling candidates, no arithmetic progression: the hull alone
        // would admit 48, which the solver does not.
        let mut s = Solver::new();
        s.int_var_in("T", Domain::from_values(vec![16, 32, 64, 128]));
        s.int_var_in("none", Domain::from_values(vec![]));
        let script = to_smtlib(&s, None);
        assert!(script.contains("(assert (and (>= T 16) (<= T 128)))"));
        assert!(script.contains("(assert (or (= T 16) (= T 32) (= T 64) (= T 128)))"));
        assert!(!script.contains("(mod "), "{script}");
        assert!(script.contains("(assert false) ; empty domain for none"));
    }

    #[test]
    fn negative_constants_use_unary_minus() {
        let mut s = Solver::new();
        let x = s.int_var("x", -10, 10);
        s.assert((x.clone() + IntExpr::constant(-5)).le(-1));
        s.assert((IntExpr::constant(-3) * x.clone()).le(-1));
        let script = to_smtlib(&s, None);
        assert!(script.contains("(assert (<= (+ x (- 5)) (- 1)))"));
        assert!(script.contains("(assert (<= (* (- 3) x) (- 1)))"));
    }

    #[test]
    fn objective_and_connectives() {
        // The script's connectives are the domain lines' `and`/`or`; the
        // objective is a νZ `maximize` directive.
        let mut s = Solver::new();
        let x = s.int_var_in("x", Domain::from_values(vec![0, 1, 5]));
        s.int_var_in("none", Domain::from_values(vec![]));
        s.assert((IntExpr::constant(2) * x.clone()).le(9));
        let obj = x.clone() + IntExpr::constant(1);
        let script = to_smtlib(&s, Some(&obj));
        assert!(script.contains("(assert (and (>= x 0) (<= x 5)))"));
        assert!(script.contains("(assert (or (= x 0) (= x 1) (= x 5)))"));
        assert!(script.contains("(assert false) ; empty domain for none"));
        assert!(script.contains("(assert (<= (* 2 x) 9))"));
        assert!(script.contains("(maximize (+ x 1))"));
    }
}
