//! Satisfying assignments returned by the solver.

use crate::expr::{IntExpr, Var, VarId};
use crate::solver::SolveError;

/// A total assignment of concrete values to the solver's variables.
///
/// Obtained from [`Solver::maximize`](crate::Solver::maximize); evaluate
/// any expression built from the same solver's variables against it. It
/// holds values only: a variable's name is the solver's
/// ([`Solver::var_names`](crate::Solver::var_names), in the same order).
///
/// # Examples
///
/// ```
/// use eatss_smt::Solver;
///
/// let mut s = Solver::new();
/// let x = s.int_var("x", 5, 5);
/// let model = s.maximize(&x)?.model.expect("trivially satisfiable");
/// assert_eq!(model.eval(&(x.clone() * x))?, 25);
/// # Ok::<(), eatss_smt::SolveError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// One value per variable, in registration order.
    values: Vec<i64>,
}

impl Model {
    pub(crate) fn new(values: Vec<i64>) -> Self {
        Model { values }
    }

    /// Value assigned to `var`.
    ///
    /// Returns [`None`] if the variable does not belong to this model's
    /// solver.
    pub fn value_of(&self, var: VarId) -> Option<i64> {
        self.values.get(var.index()).copied()
    }

    /// The values, one per variable in registration order.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Evaluates an integer expression under this assignment: each term's
    /// coefficient times its variables' values, added to the constant, in
    /// saturating `i64` arithmetic, so none panics. On a row every operand
    /// is non-negative and the value is the exact one, saturated — what
    /// the search computes.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::UnknownVariable`] if the expression mentions a
    /// variable not registered with the solver that produced this model.
    pub fn eval(&self, expr: &IntExpr) -> Result<i64, SolveError> {
        known_vars(expr.vars(), self.values.len())?;
        let sum = &*expr.0;
        Ok(sum.terms().fold(sum.constant, |total, term| {
            let product = (term.vars.iter()).fold(term.coef, |p, v| {
                p.saturating_mul(self.values[v.id.index()])
            });
            total.saturating_add(product)
        }))
    }
}

/// `Ok` when every variable of `vars` is one of the first `count`
/// registered; otherwise the first foreign one, by name.
pub(crate) fn known_vars<'a>(
    mut vars: impl Iterator<Item = &'a Var>,
    count: usize,
) -> Result<(), SolveError> {
    match vars.find(|v| v.id.index() >= count) {
        Some(foreign) => Err(SolveError::UnknownVariable(foreign.name.to_string())),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;
    use proptest::prelude::TestRng;

    fn fixed_model() -> (Model, IntExpr, IntExpr) {
        let mut s = Solver::new();
        let x = s.int_var("x", 7, 7);
        let y = s.int_var("y", 3, 3);
        let m = s
            .maximize(&x)
            .expect("no limits hit")
            .model
            .expect("fixed domains are satisfiable");
        (m, x, y)
    }

    #[test]
    fn eval_arithmetic() {
        let (m, x, y) = fixed_model();
        let minus_one = IntExpr::constant(-1);
        assert_eq!(m.eval(&(x.clone() + y.clone())).unwrap(), 10);
        let difference = x.clone() + minus_one.clone() * y.clone();
        assert_eq!(m.eval(&difference).unwrap(), 4);
        assert_eq!(m.eval(&(x.clone() * y.clone())).unwrap(), 21);
        assert_eq!(m.eval(&(minus_one.clone() * x)).unwrap(), -7);
        let min = IntExpr::constant(i64::MIN);
        assert_eq!(m.eval(&(minus_one * min)).unwrap(), i64::MAX);
    }

    const MAX: i64 = i64::MAX;
    /// Constants and variable values: small ones and the non-negative
    /// `i64` extremes.
    const VALUES: [i64; 10] = [0, 1, 2, 3, 16, 1 << 31, 1 << 50, 1 << 62, MAX - 1, MAX];

    /// Variables, each with its value.
    type Vars = [(IntExpr, i64)];

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// The reference semantics: `op` exact in `i128`, saturated to `i64`
    /// (on non-negative operands, the exact value saturated once).
    fn apply(op: fn(i128, i128) -> i128, x: i64, y: i64) -> i64 {
        op(x.into(), y.into()).min(MAX.into()) as i64
    }

    /// A random tree over `vars` — sums and products of two or three
    /// terms, non-negative constants and variables — built into a row
    /// (products of sums multiplied out), and its reference value.
    fn any_expr(rng: &mut TestRng, vars: &Vars, depth: u32) -> (IntExpr, i64) {
        if depth == 0 || pick(rng, 4) == 0 {
            let (var, value) = vars[pick(rng, vars.len())].clone();
            let constant = VALUES[pick(rng, VALUES.len())];
            return match pick(rng, 2) {
                0 => (var, value),
                _ => (IntExpr::constant(constant), constant),
            };
        }
        let (a, av) = any_expr(rng, vars, depth - 1);
        let (b, bv) = any_expr(rng, vars, depth - 1);
        let (c, cv) = any_expr(rng, vars, depth - 1);
        let abc = [a.clone(), b.clone(), c];
        let add: fn(i128, i128) -> i128 = |x, y| x + y;
        let mul: fn(i128, i128) -> i128 = |x, y| x * y;
        match pick(rng, 4) {
            0 => (a + b, apply(add, av, bv)),
            1 => (a * b, apply(mul, av, bv)),
            2 => (IntExpr::sum(abc), apply(add, apply(add, av, bv), cv)),
            _ => (IntExpr::product(abc), apply(mul, apply(mul, av, bv), cv)),
        }
    }

    #[test]
    fn eval_is_the_saturating_point_semantics() {
        let names = ["u", "v", "w"];
        let var = |i: usize| IntExpr::var(VarId(i as u32), names[i].into());
        for case in 0..4000 {
            let rng = &mut TestRng::for_case("model_eval", case);
            let values = [(); 3].map(|()| VALUES[pick(rng, VALUES.len())]);
            let vars: Vec<_> = (0..3).map(|i| (var(i), values[i])).collect();
            let model = Model::new(values.to_vec());
            let (expr, v) = any_expr(rng, &vars, 3);
            assert_eq!(model.eval(&expr), Ok(v), "{expr} under {values:?}");
        }
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
    fn values_follow_registration_order() {
        let mut s = Solver::new();
        let x = s.int_var("x", 7, 7);
        let y = s.int_var("y", 3, 3);
        let m = s.maximize(&x).unwrap().model.unwrap();
        let pairs: Vec<_> = s.var_names().zip(m.values().iter().copied()).collect();
        assert_eq!(pairs, vec![("x", 7), ("y", 3)]);
        assert_eq!(m.value_of(y.as_var().unwrap()), Some(3));
    }
}
