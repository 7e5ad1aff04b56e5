//! SMT-LIB 2 export of a solver's current formulation.
//!
//! The paper's artifact drives the Z3 Python bindings; exporting our
//! formulations in SMT-LIB 2 keeps them inspectable with (and checkable
//! against) a real SMT solver when one is available.

use crate::expr::{BoolExpr, BoolNode, IntExpr, IntNode};
use crate::solver::Solver;
use std::fmt::Write as _;

/// Renders the solver's variables and assertions as an SMT-LIB 2 script,
/// optionally ending with a `(maximize ...)` directive (νZ syntax).
///
/// # Examples
///
/// ```
/// use eatss_smt::{to_smtlib, Solver};
///
/// let mut s = Solver::new();
/// let x = s.int_var("x", 1, 64);
/// s.assert(x.modulo(16).eq_expr(0));
/// let script = to_smtlib(&s, Some(&x));
/// assert!(script.contains("(declare-const x Int)"));
/// assert!(script.contains("(assert (= (mod x 16) 0))"));
/// assert!(script.contains("(maximize x)"));
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
        let _ = writeln!(out, "(assert {})", bool_sexp(c));
    }
    if let Some(obj) = objective {
        let _ = writeln!(out, "(maximize {})", int_sexp(obj));
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
            let _ = writeln!(out, "(assert (= (mod (- {name} {}) {step}) 0))", const_sexp(lo));
        }
    } else {
        out.push_str("(assert (or");
        for &v in values {
            let _ = write!(out, " (= {name} {})", const_sexp(v));
        }
        out.push_str("))\n");
    }
}

fn const_sexp(v: i64) -> String {
    if v < 0 {
        format!("(- {})", v.unsigned_abs())
    } else {
        v.to_string()
    }
}

fn int_sexp(expr: &IntExpr) -> String {
    match &*expr.0 {
        IntNode::Const(v) => const_sexp(*v),
        IntNode::Var(_, name) => name.clone(),
        IntNode::Add(xs) => nary("+", xs),
        IntNode::Mul(xs) => nary("*", xs),
        IntNode::Sub(a, b) => format!("(- {} {})", int_sexp(a), int_sexp(b)),
        IntNode::Neg(a) => format!("(- {})", int_sexp(a)),
        IntNode::Div(a, b) => format!("(div {} {})", int_sexp(a), int_sexp(b)),
        IntNode::Mod(a, b) => format!("(mod {} {})", int_sexp(a), int_sexp(b)),
        IntNode::Min(a, b) => {
            let (sa, sb) = (int_sexp(a), int_sexp(b));
            format!("(ite (<= {sa} {sb}) {sa} {sb})")
        }
        IntNode::Max(a, b) => {
            let (sa, sb) = (int_sexp(a), int_sexp(b));
            format!("(ite (>= {sa} {sb}) {sa} {sb})")
        }
    }
}

fn nary(op: &str, xs: &[IntExpr]) -> String {
    let mut s = format!("({op}");
    for x in xs {
        s.push(' ');
        s.push_str(&int_sexp(x));
    }
    s.push(')');
    s
}

fn bool_sexp(expr: &BoolExpr) -> String {
    use crate::expr::CmpOp::*;
    match &*expr.0 {
        BoolNode::True => "true".to_owned(),
        BoolNode::False => "false".to_owned(),
        BoolNode::Cmp(op, a, b) => {
            let sym = match op {
                Le => "<=",
                Lt => "<",
                Ge => ">=",
                Gt => ">",
                Eq => "=",
                Ne => "distinct",
            };
            format!("({sym} {} {})", int_sexp(a), int_sexp(b))
        }
        BoolNode::And(xs) => nary_bool("and", xs),
        BoolNode::Or(xs) => nary_bool("or", xs),
        BoolNode::Not(a) => format!("(not {})", bool_sexp(a)),
        BoolNode::Implies(a, b) => format!("(=> {} {})", bool_sexp(a), bool_sexp(b)),
    }
}

fn nary_bool(op: &str, xs: &[BoolExpr]) -> String {
    let mut s = format!("({op}");
    for x in xs {
        s.push(' ');
        s.push_str(&bool_sexp(x));
    }
    s.push(')');
    s
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
        s.assert(ti.modulo(16).eq_expr(0));
        let script = to_smtlib(&s, None);
        assert!(script.starts_with("(set-logic QF_NIA)"));
        assert!(script.contains("(declare-const Ti Int)"));
        assert!(script.contains("(declare-const Tj Int)"));
        assert!(script.contains("(assert (and (>= Ti 1) (<= Ti 1024)))"));
        assert!(script.contains("(assert (<= (* Ti Tj) 12288))"));
        assert!(script.contains("(assert (= (mod Ti 16) 0))"));
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
        s.assert(x.ge(-5));
        let script = to_smtlib(&s, None);
        assert!(script.contains("(assert (>= x (- 5)))"));
    }

    #[test]
    fn min_max_lower_to_ite() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        s.assert(x.min(y.clone()).le(3));
        let script = to_smtlib(&s, None);
        assert!(script.contains("(ite (<= x y) x y)"));
    }

    #[test]
    fn objective_and_connectives() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        s.assert(x.gt(2).and(x.lt(9)).or(x.eq_expr(0).not()));
        let obj = x.clone() + IntExpr::constant(1);
        let script = to_smtlib(&s, Some(&obj));
        assert!(script.contains("(or (and (> x 2) (< x 9)) (not (= x 0)))"));
        assert!(script.contains("(maximize (+ x 1))"));
    }
}
