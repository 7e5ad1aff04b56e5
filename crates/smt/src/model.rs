//! Satisfying assignments returned by the solver.

use crate::expr::{BoolExpr, BoolNode, IntExpr, IntNode, VarId};
use crate::solver::SolveError;
use std::fmt;

/// A total assignment of concrete values to the solver's variables.
///
/// Obtained from [`Solver::check`](crate::Solver::check) /
/// [`Solver::maximize`](crate::Solver::maximize); evaluate any expression
/// built from the same solver's variables against it.
///
/// # Examples
///
/// ```
/// use eatss_smt::Solver;
///
/// let mut s = Solver::new();
/// let x = s.int_var("x", 5, 5);
/// let model = s.check()?.model.expect("trivially satisfiable");
/// assert_eq!(model.eval(&(x.clone() * x))?, 25);
/// # Ok::<(), eatss_smt::SolveError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<i64>,
    names: Vec<String>,
}

impl Model {
    pub(crate) fn new(values: Vec<i64>, names: Vec<String>) -> Self {
        debug_assert_eq!(values.len(), names.len());
        Model { values, names }
    }

    /// Value assigned to `var`.
    ///
    /// Returns [`None`] if the variable does not belong to this model's
    /// solver.
    pub fn value_of(&self, var: VarId) -> Option<i64> {
        self.values.get(var.index()).copied()
    }

    /// Value assigned to the variable registered under `name`.
    pub fn value_of_name(&self, name: &str) -> Option<i64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.values[i])
    }

    /// Pairs of `(name, value)` in registration order.
    pub fn bindings(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
    }

    /// Evaluates an integer expression under this assignment.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DivisionByZero`] if a `div`/`mod` divisor
    /// evaluates to zero, and [`SolveError::UnknownVariable`] if the
    /// expression mentions a variable not registered with the solver that
    /// produced this model.
    pub fn eval(&self, expr: &IntExpr) -> Result<i64, SolveError> {
        eval_int(expr, &self.values)
    }

    /// Evaluates a boolean constraint under this assignment.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::eval`].
    pub fn eval_bool(&self, expr: &BoolExpr) -> Result<bool, SolveError> {
        eval_bool(expr, &self.values)
    }
}

/// [`Model::eval`] over a bare assignment (one value per variable, in
/// registration order) — the search evaluates candidate leaves and warm
/// hints this way, without building a [`Model`].
pub(crate) fn eval_int(expr: &IntExpr, values: &[i64]) -> Result<i64, SolveError> {
    Ok(match &*expr.0 {
        IntNode::Const(v) => *v,
        IntNode::Var(id, name) => *values
            .get(id.index())
            .ok_or_else(|| SolveError::UnknownVariable(name.clone()))?,
        IntNode::Add(xs) => {
            let mut acc: i64 = 0;
            for x in xs {
                acc = acc.saturating_add(eval_int(x, values)?);
            }
            acc
        }
        IntNode::Mul(xs) => {
            let mut acc: i64 = 1;
            for x in xs {
                acc = acc.saturating_mul(eval_int(x, values)?);
            }
            acc
        }
        IntNode::Sub(a, b) => eval_int(a, values)?.saturating_sub(eval_int(b, values)?),
        IntNode::Neg(a) => -eval_int(a, values)?,
        IntNode::Div(a, b) => {
            let d = eval_int(b, values)?;
            if d == 0 {
                return Err(SolveError::DivisionByZero);
            }
            eval_int(a, values)?.div_euclid(d)
        }
        IntNode::Mod(a, b) => {
            let d = eval_int(b, values)?;
            if d == 0 {
                return Err(SolveError::DivisionByZero);
            }
            eval_int(a, values)?.rem_euclid(d)
        }
        IntNode::Min(a, b) => eval_int(a, values)?.min(eval_int(b, values)?),
        IntNode::Max(a, b) => eval_int(a, values)?.max(eval_int(b, values)?),
    })
}

/// [`Model::eval_bool`] over a bare assignment.
pub(crate) fn eval_bool(expr: &BoolExpr, values: &[i64]) -> Result<bool, SolveError> {
    Ok(match &*expr.0 {
        BoolNode::True => true,
        BoolNode::False => false,
        BoolNode::Cmp(op, a, b) => op.eval(eval_int(a, values)?, eval_int(b, values)?),
        BoolNode::And(xs) => {
            for x in xs {
                if !eval_bool(x, values)? {
                    return Ok(false);
                }
            }
            true
        }
        BoolNode::Or(xs) => {
            for x in xs {
                if eval_bool(x, values)? {
                    return Ok(true);
                }
            }
            false
        }
        BoolNode::Not(a) => !eval_bool(a, values)?,
        BoolNode::Implies(a, b) => !eval_bool(a, values)? || eval_bool(b, values)?,
    })
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, v)) in self.bindings().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} = {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;

    fn fixed_model() -> (Model, IntExpr, IntExpr) {
        let mut s = Solver::new();
        let x = s.int_var("x", 7, 7);
        let y = s.int_var("y", 3, 3);
        let m = s
            .check()
            .expect("no limits hit")
            .model
            .expect("fixed domains are satisfiable");
        (m, x, y)
    }

    #[test]
    fn eval_arithmetic() {
        let (m, x, y) = fixed_model();
        assert_eq!(m.eval(&(x.clone() + y.clone())).unwrap(), 10);
        assert_eq!(m.eval(&(x.clone() - y.clone())).unwrap(), 4);
        assert_eq!(m.eval(&(x.clone() * y.clone())).unwrap(), 21);
        assert_eq!(m.eval(&x.div(y.clone())).unwrap(), 2);
        assert_eq!(m.eval(&x.modulo(y.clone())).unwrap(), 1);
        assert_eq!(m.eval(&x.min(y.clone())).unwrap(), 3);
        assert_eq!(m.eval(&x.max(y.clone())).unwrap(), 7);
        assert_eq!(m.eval(&(-x)).unwrap(), -7);
    }

    #[test]
    fn eval_bool_connectives() {
        let (m, x, y) = fixed_model();
        assert!(m.eval_bool(&x.gt(y.clone())).unwrap());
        assert!(m.eval_bool(&x.gt(y.clone()).and(y.ge(3))).unwrap());
        assert!(m.eval_bool(&x.lt(y.clone()).or(y.eq_expr(3))).unwrap());
        assert!(m.eval_bool(&x.lt(y.clone()).not()).unwrap());
        assert!(m.eval_bool(&x.lt(y.clone()).implies(y.gt(100))).unwrap());
        assert!(!m.eval_bool(&x.gt(y).implies(x.eq_expr(0))).unwrap());
    }

    #[test]
    fn division_by_zero_is_reported() {
        let (m, x, _) = fixed_model();
        let zero = IntExpr::constant(0);
        assert!(matches!(
            m.eval(&x.div(zero.clone())),
            Err(SolveError::DivisionByZero)
        ));
        assert!(matches!(
            m.eval(&x.modulo(zero)),
            Err(SolveError::DivisionByZero)
        ));
    }

    #[test]
    fn unknown_variable_is_reported() {
        let (m, _, _) = fixed_model();
        let mut other = Solver::new();
        other.int_var("a", 0, 10);
        other.int_var("b", 0, 10);
        let foreign = other.int_var("c", 0, 10);
        assert!(matches!(
            m.eval(&foreign),
            Err(SolveError::UnknownVariable(name)) if name == "c"
        ));
    }

    #[test]
    fn bindings_and_display() {
        let (m, _, _) = fixed_model();
        let pairs: Vec<_> = m.bindings().collect();
        assert_eq!(pairs, vec![("x", 7), ("y", 3)]);
        assert_eq!(m.to_string(), "{x = 7, y = 3}");
        assert_eq!(m.value_of_name("y"), Some(3));
        assert_eq!(m.value_of_name("zz"), None);
    }

    #[test]
    fn euclidean_semantics_on_negatives() {
        let mut s = Solver::new();
        let x = s.int_var("x", -7, -7);
        let m = s.check().unwrap().model.unwrap();
        assert_eq!(m.eval(&x.modulo(3)).unwrap(), 2);
        assert_eq!(m.eval(&x.div(3)).unwrap(), -3);
    }
}
