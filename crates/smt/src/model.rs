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
    /// variable not registered with the solver that produced this model,
    /// and [`SolveError::DivisionByZero`] if its value is not one number —
    /// which only a `div`/`mod` by zero makes it.
    pub fn eval(&self, expr: &IntExpr) -> Result<i64, SolveError> {
        value_at(expr, self.point(|f| expr.each_var(f))?).ok_or(SolveError::DivisionByZero)
    }

    /// Evaluates a boolean constraint under this assignment, as the search
    /// checks a leaf.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::eval`].
    pub fn eval_bool(&self, expr: &BoolExpr) -> Result<bool, SolveError> {
        match tri_bool(expr, self.point(|f| expr.each_var(f))?) {
            Tri::True => Ok(true),
            Tri::False => Ok(false),
            Tri::Unknown => Err(SolveError::DivisionByZero),
        }
    }

    /// The assignment's singleton hulls, once every variable `each_var`
    /// visits is known to be one of this model's.
    fn point(
        &self,
        each_var: impl FnOnce(&mut dyn FnMut(VarId, &str)),
    ) -> Result<&[Interval], SolveError> {
        let mut foreign = None;
        each_var(&mut |id, name| {
            if id.index() >= self.point.len() {
                foreign.get_or_insert_with(|| name.to_owned());
            }
        });
        foreign.map_or(Ok(&self.point), |n| Err(SolveError::UnknownVariable(n)))
    }
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
        assert_eq!(m.eval(&(x.clone() + y.clone())).unwrap(), 10);
        assert_eq!(m.eval(&(x.clone() - y.clone())).unwrap(), 4);
        assert_eq!(m.eval(&(x.clone() * y.clone())).unwrap(), 21);
        assert_eq!(m.eval(&x.div(y.clone())).unwrap(), 2);
        assert_eq!(m.eval(&x.modulo(y.clone())).unwrap(), 1);
        assert_eq!(m.eval(&x.min(y.clone())).unwrap(), 3);
        assert_eq!(m.eval(&x.max(y.clone())).unwrap(), 7);
        assert_eq!(m.eval(&(-x)).unwrap(), -7);
        assert_eq!(m.eval(&-IntExpr::constant(i64::MIN)).unwrap(), i64::MAX);
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
        use SolveError::DivisionByZero;
        let (m, x, _) = fixed_model();
        for dividend in [x, IntExpr::constant(i64::MIN), IntExpr::constant(i64::MAX)] {
            for e in [dividend.div(0), dividend.modulo(0)] {
                assert_eq!(m.eval(&e), Err(DivisionByZero), "{e}");
                assert_eq!(m.eval_bool(&e.eq_expr(1)), Err(DivisionByZero), "{e}");
            }
        }
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
    /// A reference operation: exact in `i128`, `None` for a zero divisor.
    type Op = fn(i128, i128) -> Option<i128>;

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// The reference semantics: `op`, saturated to `i64`; `None` once an
    /// operand is, or a divisor is zero.
    fn apply(op: Op, x: Option<i64>, y: Option<i64>) -> Option<i64> {
        let exact = op(x?.into(), y?.into())?;
        Some(exact.clamp(MIN.into(), MAX.into()) as i64)
    }

    /// A random tree over `vars` — the shapes of `search.rs`'s `any_expr`,
    /// plus a three-term sum and product — and its reference value.
    fn any_expr(rng: &mut TestRng, vars: &Vars, depth: u32) -> (IntExpr, Option<i64>) {
        if depth == 0 || pick(rng, 4) == 0 {
            let (var, value) = vars[pick(rng, vars.len())].clone();
            let constant = VALUES[pick(rng, VALUES.len())];
            return match pick(rng, 2) {
                0 => (var, Some(value)),
                _ => (IntExpr::constant(constant), Some(constant)),
            };
        }
        let (a, av) = any_expr(rng, vars, depth - 1);
        let (b, bv) = any_expr(rng, vars, depth - 1);
        let (c, cv) = any_expr(rng, vars, depth - 1);
        let abc = [a.clone(), b.clone(), c];
        let (add, mul): (Op, Op) = (i128::checked_add, i128::checked_mul);
        match pick(rng, 10) {
            0 => (a + b, apply(add, av, bv)),
            1 => (a * b, apply(mul, av, bv)),
            2 => (a - b, apply(i128::checked_sub, av, bv)),
            3 => (-a, apply(i128::checked_sub, Some(0), av)),
            4 => (a.min(b), apply(|x, y| Some(x.min(y)), av, bv)),
            5 => (a.max(b), apply(|x, y| Some(x.max(y)), av, bv)),
            6 => (a.div(b), apply(i128::checked_div_euclid, av, bv)),
            7 => (a.modulo(b), apply(i128::checked_rem_euclid, av, bv)),
            8 => (IntExpr::sum(abc), apply(add, apply(add, av, bv), cv)),
            _ => (IntExpr::product(abc), apply(mul, apply(mul, av, bv), cv)),
        }
    }

    /// A random constraint and its reference verdict.
    fn any_bool(rng: &mut TestRng, vars: &Vars, depth: u32) -> (BoolExpr, Option<bool>) {
        if depth == 0 || pick(rng, 3) == 0 {
            let ((a, av), (b, bv)) = (any_expr(rng, vars, 3), any_expr(rng, vars, 2));
            let cmp = |op: fn(&i64, &i64) -> bool| Some(op(&av?, &bv?));
            return match pick(rng, 6) {
                0 => (a.le(b), cmp(i64::le)),
                1 => (a.lt(b), cmp(i64::lt)),
                2 => (a.ge(b), cmp(i64::ge)),
                3 => (a.gt(b), cmp(i64::gt)),
                4 => (a.eq_expr(b), cmp(i64::eq)),
                _ => (a.eq_expr(b).not(), cmp(i64::ne)),
            };
        }
        let (p, pv) = any_bool(rng, vars, depth - 1);
        let (q, qv) = any_bool(rng, vars, depth - 1);
        let pq = |op: fn(bool, bool) -> bool| Some(op(pv?, qv?));
        match pick(rng, 4) {
            0 => (p.and(q), pq(|x, y| x && y)),
            1 => (p.or(q), pq(|x, y| x || y)),
            2 => (p.implies(q), pq(|x, y| !x || y)),
            _ => (p.not(), pv.map(|x| !x)),
        }
    }

    #[test]
    fn eval_is_the_saturating_point_semantics() {
        let names = vec!["u".to_owned(), "v".to_owned(), "w".to_owned()];
        let var = |i: usize| IntExpr::var(VarId(i as u32), &names[i]);
        let mut compared = 0;
        for case in 0..4000 {
            let rng = &mut TestRng::for_case("model_eval", case);
            let values = [(); 3].map(|()| VALUES[pick(rng, VALUES.len())]);
            let vars: Vec<_> = (0..3).map(|i| (var(i), values[i])).collect();
            let model = Model::new(values.to_vec(), names.clone());
            let (expr, v) = any_expr(rng, &vars, 4);
            let (constraint, b) = any_bool(rng, &vars, 2);
            // Where the reference meets a zero divisor, only no panic.
            let got_v = model.eval(&expr).ok();
            let got_b = model.eval_bool(&constraint).ok();
            assert!(v.is_none() || got_v == v, "{expr} under {model}");
            assert!(b.is_none() || got_b == b, "{constraint} under {model}");
            compared += usize::from(v.is_some()) + usize::from(b.is_some());
        }
        assert!(compared > 4000, "only {compared} cases compared");
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
