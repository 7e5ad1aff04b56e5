//! Satisfying assignments returned by the solver.

use crate::expr::{BoolExpr, IntExpr, VarId};
use crate::interval::Interval;
use crate::search::{tri_bool, value_at, Tri};
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
    /// One singleton hull per variable, in registration order: the
    /// assignment as the search's evaluator reads it.
    point: Vec<Interval>,
    names: Vec<String>,
}

impl Model {
    pub(crate) fn new(values: Vec<i64>, names: Vec<String>) -> Self {
        debug_assert_eq!(values.len(), names.len());
        let point = values.into_iter().map(Interval::singleton).collect();
        Model { point, names }
    }

    /// Value assigned to `var`.
    ///
    /// Returns [`None`] if the variable does not belong to this model's
    /// solver.
    pub fn value_of(&self, var: VarId) -> Option<i64> {
        self.point.get(var.index()).map(|v| v.lo())
    }

    /// Value assigned to the variable registered under `name`.
    pub fn value_of_name(&self, name: &str) -> Option<i64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.point[i].lo())
    }

    /// Pairs of `(name, value)` in registration order.
    pub fn bindings(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.point.iter().map(|v| v.lo()))
    }

    /// Evaluates an integer expression under this assignment with the
    /// search's own evaluator, on singleton hulls: every operation
    /// saturates to the `i64` range, and none panics.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::UnknownVariable`] if the expression mentions a
    /// variable not registered with the solver that produced this model.
    pub fn eval(&self, expr: &IntExpr) -> Result<i64, SolveError> {
        known_vars(|f| expr.each_var(f), self.point.len())?;
        Ok(value_at(expr, &self.point))
    }

    /// Evaluates a boolean constraint under this assignment, as the search
    /// checks a leaf.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::eval`].
    pub fn eval_bool(&self, expr: &BoolExpr) -> Result<bool, SolveError> {
        known_vars(|f| expr.each_var(f), self.point.len())?;
        Ok(tri_bool(expr, &self.point) == Tri::True)
    }
}

/// `Ok` when every variable `each_var` visits is one of the first `count`
/// registered; otherwise the first foreign one, by name.
pub(crate) fn known_vars(
    each_var: impl FnOnce(&mut dyn FnMut(VarId, &str)),
    count: usize,
) -> Result<(), SolveError> {
    let mut foreign = None;
    each_var(&mut |id, name| {
        if id.index() >= count {
            foreign.get_or_insert_with(|| name.to_owned());
        }
    });
    foreign.map_or(Ok(()), |n| Err(SolveError::UnknownVariable(n)))
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
    use proptest::prelude::TestRng;

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
        let minus_one = IntExpr::constant(-1);
        assert_eq!(m.eval(&(x.clone() + y.clone())).unwrap(), 10);
        let difference = x.clone() + minus_one.clone() * y.clone();
        assert_eq!(m.eval(&difference).unwrap(), 4);
        assert_eq!(m.eval(&(x.clone() * y.clone())).unwrap(), 21);
        assert_eq!(m.eval(&(minus_one.clone() * x)).unwrap(), -7);
        let min = IntExpr::constant(i64::MIN);
        assert_eq!(m.eval(&(minus_one * min)).unwrap(), i64::MAX);
    }

    #[test]
    fn eval_bool_connectives() {
        let (m, x, y) = fixed_model();
        let one = IntExpr::constant(1);
        assert!(m.eval_bool(&(y.clone() + one).le(&x)).unwrap());
        assert!(m.eval_bool(&x.le(y.clone()).or(y.eq_expr(3))).unwrap());
        assert!(m.eval_bool(&x.ne_expr(y.clone())).unwrap());
        assert!(!m.eval_bool(&x.le(y.clone()).or(x.eq_expr(0))).unwrap());
        assert!(!m.eval_bool(&BoolExpr::any([])).unwrap());
    }

    const MIN: i64 = i64::MIN;
    const MAX: i64 = i64::MAX;
    /// Constants and variable values: small ones and every `i64` extreme.
    #[rustfmt::skip]
    const VALUES: [i64; 16] = [
        MIN, MIN + 1, -(1 << 31), -7, -2, -1, 0, 1, 2, 3, 16, 1 << 31, 1 << 50, 1 << 62, MAX - 1, MAX,
    ];

    /// Variables, each with its value.
    type Vars = [(IntExpr, i64)];

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// The reference semantics: `op` exact in `i128`, saturated to `i64`.
    fn apply(op: fn(i128, i128) -> i128, x: i64, y: i64) -> i64 {
        op(x.into(), y.into()).clamp(MIN.into(), MAX.into()) as i64
    }

    /// A random tree over `vars` — the shapes of `search.rs`'s `any_expr`,
    /// plus a three-term sum and product — and its reference value.
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

    /// A random constraint and its reference verdict.
    fn any_bool(rng: &mut TestRng, vars: &Vars, depth: u32) -> (BoolExpr, bool) {
        if depth == 0 || pick(rng, 3) == 0 {
            let ((a, av), (b, bv)) = (any_expr(rng, vars, 3), any_expr(rng, vars, 2));
            return match pick(rng, 3) {
                0 => (a.le(b), av <= bv),
                1 => (a.eq_expr(b), av == bv),
                _ => (a.ne_expr(b), av != bv),
            };
        }
        let (p, pv) = any_bool(rng, vars, depth - 1);
        let (q, qv) = any_bool(rng, vars, depth - 1);
        (p.or(q), pv || qv)
    }

    #[test]
    fn eval_is_the_saturating_point_semantics() {
        let names = vec!["u".to_owned(), "v".to_owned(), "w".to_owned()];
        let var = |i: usize| IntExpr::var(VarId(i as u32), &names[i]);
        for case in 0..4000 {
            let rng = &mut TestRng::for_case("model_eval", case);
            let values = [(); 3].map(|()| VALUES[pick(rng, VALUES.len())]);
            let vars: Vec<_> = (0..3).map(|i| (var(i), values[i])).collect();
            let model = Model::new(values.to_vec(), names.clone());
            let (expr, v) = any_expr(rng, &vars, 4);
            let (constraint, b) = any_bool(rng, &vars, 2);
            assert_eq!(model.eval(&expr), Ok(v), "{expr} under {model}");
            assert_eq!(model.eval_bool(&constraint), Ok(b), "{constraint}, {model}");
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
    fn bindings_and_display() {
        let (m, _, _) = fixed_model();
        let pairs: Vec<_> = m.bindings().collect();
        assert_eq!(pairs, vec![("x", 7), ("y", 3)]);
        assert_eq!(m.to_string(), "{x = 7, y = 3}");
        assert_eq!(m.value_of_name("y"), Some(3));
        assert_eq!(m.value_of_name("zz"), None);
    }
}
