//! Integer expressions written as rows, and the capacity constraints over
//! them.
//!
//! An expression is a *row*: a constant plus terms `coef · Π vars`, the one
//! shape the EATSS formulation uses. It is built flat with ordinary Rust
//! operators — `+` concatenates terms, `*` multiplies out — plus
//! [`IntExpr::le`], mirroring the way the paper's model generator emits Z3
//! terms. Terms and their factors keep the order they were built in.

use crate::smtlib::const_sexp;
use std::fmt;
use std::rc::Rc;

/// Identifier of an integer variable registered with a
/// [`Solver`](crate::Solver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Index of the variable in the solver's registration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A variable occurrence: its id and the name it was registered under
/// (shared with the solver, so a copy costs no allocation). The first
/// variable of a term also carries the term's coefficient and its number
/// of variables; the others carry 0 there.
#[derive(Debug, Clone)]
pub(crate) struct Var {
    pub(crate) id: VarId,
    pub(crate) name: Rc<str>,
    coef: i64,
    len: u32,
}

impl Var {
    /// This occurrence, heading a term of `len` variables and coefficient
    /// `coef` — or not heading one, with `(0, 0)`.
    fn head(&self, coef: i64, len: usize) -> Var {
        Var {
            coef,
            len: u32::try_from(len).unwrap_or(u32::MAX),
            ..self.clone()
        }
    }
}

/// One term `coef · Π vars`, with at least one variable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Term<'a> {
    pub(crate) coef: i64,
    pub(crate) vars: &'a [Var],
}

/// The row behind an [`IntExpr`]: a constant plus its terms, stored as
/// one run of variables per term, one term after another — so a sum
/// concatenates two runs and a product appends to one.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sum {
    pub(crate) constant: i64,
    vars: Vec<Var>,
    /// Whether a negative constant went into it. Constants fold as they
    /// are multiplied, so `(−1)·(−1)` leaves no negative coefficient
    /// behind; this keeps such a sum from passing for a row.
    pub(crate) negative: bool,
}

impl Sum {
    /// The terms, in construction order.
    pub(crate) fn terms(&self) -> impl Iterator<Item = Term<'_>> + Clone {
        let mut rest = &self.vars[..];
        std::iter::from_fn(move || {
            let head = rest.first()?;
            let (vars, tail) = rest.split_at_checked(head.len as usize)?;
            rest = tail;
            Some(Term {
                coef: head.coef,
                vars,
            })
        })
    }

    /// The products `*` multiplies out: the terms, then the constant
    /// (when it is not 0, or there are no terms) as a product of no
    /// variables.
    fn products(&self) -> impl Iterator<Item = (i64, &[Var])> {
        let constant = (self.constant != 0 || self.vars.is_empty()).then_some(self.constant);
        (self.terms().map(|t| (t.coef, t.vars))).chain(constant.map(|c| (c, &[][..])))
    }

    /// Appends the term `coef · Π vars` (`vars` not empty).
    fn push_term<'a>(&mut self, coef: i64, mut vars: impl Iterator<Item = &'a Var>, len: usize) {
        if let Some(first) = vars.next() {
            self.vars.push(first.head(coef, len));
            self.vars.extend(vars.map(|v| v.head(0, 0)));
        }
    }

    /// Whether this is exactly one term and no constant.
    fn is_one_term(&self) -> bool {
        self.constant == 0
            && self
                .vars
                .first()
                .is_some_and(|h| h.len as usize == self.vars.len())
    }
}

/// An integer-valued expression over solver variables: a constant plus
/// terms `coef · Π vars`.
///
/// `IntExpr` is a cheaply clonable handle (internally `Rc`). Build leaves
/// via [`Solver::int_var`](crate::Solver::int_var) and
/// [`IntExpr::constant`], then combine with `+` and `*`, and bound with
/// [`IntExpr::le`]. Constants fold (saturating at the ends of `i64`);
/// terms are never merged. It prints as SMT-LIB.
///
/// # Examples
///
/// ```
/// use eatss_smt::{IntExpr, Solver};
///
/// let mut s = Solver::new();
/// let x = s.int_var("x", 0, 10);
/// let y = s.int_var("y", 0, 10);
/// let expr = (x.clone() + y) * IntExpr::constant(3) + x;
/// assert_eq!(expr.to_string(), "(+ (* 3 x) (* 3 y) x)");
/// ```
#[derive(Debug, Clone)]
pub struct IntExpr(pub(crate) Rc<Sum>);

impl IntExpr {
    /// A constant expression.
    pub fn constant(v: i64) -> Self {
        IntExpr(Rc::new(Sum {
            constant: v,
            vars: Vec::new(),
            negative: v < 0,
        }))
    }

    pub(crate) fn var(id: VarId, name: Rc<str>) -> Self {
        IntExpr(Rc::new(Sum {
            vars: vec![Var {
                id,
                name,
                coef: 1,
                len: 1,
            }],
            ..Sum::default()
        }))
    }

    /// Sum of an iterator of expressions (0 if empty).
    pub fn sum<I: IntoIterator<Item = IntExpr>>(terms: I) -> Self {
        let mut terms = terms.into_iter();
        let first = terms.next().unwrap_or_else(|| IntExpr::constant(0));
        terms.fold(first, |sum, t| sum + t)
    }

    /// Product of an iterator of expressions (1 if empty).
    pub fn product<I: IntoIterator<Item = IntExpr>>(factors: I) -> Self {
        let mut factors = factors.into_iter();
        let first = factors.next().unwrap_or_else(|| IntExpr::constant(1));
        factors.fold(first, |product, f| product * f)
    }

    /// Constraint `self <= cap`.
    pub fn le(&self, cap: i64) -> BoolExpr {
        BoolExpr {
            lhs: self.clone(),
            cap,
        }
    }

    /// Collects the variables mentioned by this expression into `out`
    /// (deduplicated, in first-occurrence order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        for var in self.vars() {
            if !out.contains(&var.id) {
                out.push(var.id);
            }
        }
    }

    /// The variable this expression is, when it is a bare variable.
    pub fn as_var(&self) -> Option<VarId> {
        let [var @ Var { coef: 1, .. }] = &self.0.vars[..] else {
            return None;
        };
        (self.0.constant == 0 && !self.0.negative).then_some(var.id)
    }

    /// Every variable occurrence, term by term.
    pub(crate) fn vars(&self) -> impl Iterator<Item = &Var> {
        self.0.vars.iter()
    }

    /// This expression times `c`: every coefficient and the constant
    /// scaled, in place unless the expression is shared.
    fn scaled(mut self, c: i64, negative: bool) -> IntExpr {
        let sum = Rc::make_mut(&mut self.0);
        sum.constant = sum.constant.saturating_mul(c);
        sum.negative = negative;
        let mut at = 0;
        while let Some(head) = sum.vars.get_mut(at) {
            head.coef = head.coef.saturating_mul(c);
            at += (head.len as usize).max(1);
        }
        self
    }
}

impl std::ops::Add for IntExpr {
    type Output = IntExpr;
    fn add(mut self, rhs: IntExpr) -> IntExpr {
        let sum = Rc::make_mut(&mut self.0);
        sum.constant = sum.constant.saturating_add(rhs.0.constant);
        sum.negative = sum.negative || rhs.0.negative;
        // An unshared right side gives up its terms (all of its buffer when
        // the left has none); a shared one is copied, its names shared.
        match Rc::try_unwrap(rhs.0) {
            Ok(rhs) if sum.vars.is_empty() => sum.vars = rhs.vars,
            Ok(rhs) => sum.vars.extend(rhs.vars),
            Err(rhs) => sum.vars.extend_from_slice(&rhs.vars),
        }
        self
    }
}

impl std::ops::Mul for IntExpr {
    type Output = IntExpr;
    /// Multiplies out: every product of the left times every product of
    /// the right, left-major, each its coefficients' product over its
    /// factors in order.
    ///
    /// A constant side scales the other, and one term times one term
    /// appends the right's variables to the left's; either happens in
    /// place when the side it changes is not shared.
    fn mul(mut self, rhs: IntExpr) -> IntExpr {
        let negative = self.0.negative || rhs.0.negative;
        if rhs.0.vars.is_empty() {
            return self.scaled(rhs.0.constant, negative);
        }
        if self.0.vars.is_empty() {
            return rhs.scaled(self.0.constant, negative);
        }
        if let (Some(sum), true) = (Rc::get_mut(&mut self.0), rhs.0.is_one_term()) {
            if sum.is_one_term() {
                let (coef, len) = (sum.vars[0].coef, sum.vars.len());
                let (b, b_vars) = (rhs.0.vars[0].coef, &rhs.0.vars);
                sum.vars[0] = sum.vars[0].head(coef.saturating_mul(b), len + b_vars.len());
                sum.vars.extend(b_vars.iter().map(|v| v.head(0, 0)));
                sum.negative = negative;
                return self;
            }
        }
        let mut product = Sum {
            negative,
            ..Sum::default()
        };
        for (a, a_vars) in self.0.products() {
            for (b, b_vars) in rhs.0.products() {
                let coef = a.saturating_mul(b);
                let len = a_vars.len() + b_vars.len();
                if len == 0 {
                    // The two constants: met once.
                    product.constant = coef;
                } else {
                    product.push_term(coef, a_vars.iter().chain(b_vars), len);
                }
            }
        }
        IntExpr(Rc::new(product))
    }
}

/// Prints `coef · Π vars` as SMT-LIB: a bare constant or variable when it
/// is one, the coefficient left out when it is 1.
fn write_product(f: &mut fmt::Formatter<'_>, coef: i64, vars: &[Var]) -> fmt::Result {
    match (coef, vars) {
        (_, []) => write!(f, "{}", const_sexp(coef)),
        (1, [var]) => write!(f, "{}", var.name),
        _ => {
            write!(f, "(*")?;
            if coef != 1 {
                write!(f, " {}", const_sexp(coef))?;
            }
            for var in vars {
                write!(f, " {}", var.name)?;
            }
            write!(f, ")")
        }
    }
}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut products = self.0.products();
        if let (Some((coef, vars)), None) = (products.next(), products.next()) {
            return write_product(f, coef, vars);
        }
        write!(f, "(+")?;
        for (coef, vars) in self.0.products() {
            write!(f, " ")?;
            write_product(f, coef, vars)?;
        }
        write!(f, ")")
    }
}

/// A capacity constraint `lhs <= cap` — the one kind of assertion the
/// solver takes. [`Solver::maximize`](crate::Solver::maximize) accepts it
/// when `lhs` is a *row*: its constants `>= 0` (every constant it was
/// built from, even one whose sign a later factor cancels), its variables
/// ranging over non-negative domains, and none of them twice in one term;
/// it refuses anything else with
/// [`SolveError::NotARow`](crate::SolveError::NotARow).
///
/// # Examples
///
/// ```
/// use eatss_smt::{IntExpr, Solver};
///
/// let mut s = Solver::new();
/// let x = s.int_var("x", 0, 100);
/// let y = s.int_var("y", 0, 100);
/// // 3·x·y + x <= 120: a row.
/// let capacity = (IntExpr::constant(3) * x.clone() * y.clone() + x.clone()).le(120);
/// assert_eq!(capacity.to_string(), "(<= (+ (* 3 x y) x) 120)");
/// s.assert(capacity);
/// assert_eq!(s.maximize(&(x * y))?.best(), Some(39));
/// # Ok::<(), eatss_smt::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BoolExpr {
    pub(crate) lhs: IntExpr,
    pub(crate) cap: i64,
}

impl BoolExpr {
    /// Collects the variables mentioned by this constraint into `out`
    /// (deduplicated, in first-occurrence order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.lhs.collect_vars(out);
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(<= {} {})", self.lhs, const_sexp(self.cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;

    #[test]
    fn display_is_fully_parenthesized() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        let e = (x.clone() + y.clone()) * IntExpr::constant(2) + x.clone() * IntExpr::constant(3);
        assert_eq!(e.to_string(), "(+ (* 2 x) (* 2 y) (* 3 x))");
        assert_eq!(e.le(12).to_string(), "(<= (+ (* 2 x) (* 2 y) (* 3 x)) 12)");
        let shifted = x.clone() * y.clone() + IntExpr::constant(-4);
        assert_eq!(shifted.le(-1).to_string(), "(<= (+ (* x y) (- 4)) (- 1))");
    }

    #[test]
    fn sum_and_product_handle_edge_arities() {
        assert_eq!(IntExpr::sum([]).to_string(), "0");
        assert_eq!(IntExpr::product([]).to_string(), "1");
        let one = IntExpr::constant(7);
        assert_eq!(IntExpr::sum([one.clone()]).to_string(), "7");
        assert_eq!(IntExpr::product([one]).to_string(), "7");
    }

    #[test]
    fn products_multiply_out_in_construction_order() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        let z = s.int_var("z", 0, 10);
        let c = IntExpr::constant;
        // `(x + 2)·(y + z + 3)`: left-major, each side's constant last.
        let e = (x.clone() + c(2)) * (y.clone() + z.clone() + c(3));
        let expanded = "(+ (* x y) (* x z) (* 3 x) (* 2 y) (* 2 z) 6)";
        assert_eq!(e.to_string(), expanded);
        // A zero factor keeps its terms, coefficient 0; a zero constant
        // beside terms multiplies out to nothing.
        assert_eq!((x.clone() * c(0)).to_string(), "(* 0 x)");
        assert_eq!(((c(0) + x.clone()) * y.clone()).to_string(), "(* x y)");
        // Constants saturate as they fold; a cancelled sign is still
        // remembered.
        let saturated = c(i64::MAX) * c(2) * x.clone();
        assert_eq!(saturated.to_string(), format!("(* {} x)", i64::MAX));
        let cancelled = c(-1) * c(-1) * x.clone();
        assert_eq!(cancelled.to_string(), "x");
        assert!(cancelled.0.negative && cancelled.as_var().is_none());
        assert_eq!(x.as_var(), Some(VarId(0)));
        assert_eq!((x + c(0)).as_var(), Some(VarId(0)));
        assert_eq!((c(2) * y).as_var(), None);
    }

    #[test]
    fn collect_vars_deduplicates_in_order() {
        let mut s = Solver::new();
        let x = s.int_var("x", 0, 10);
        let y = s.int_var("y", 0, 10);
        let e = x.clone() * y.clone() + x.clone() + y.clone();
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].index(), 0);
        assert_eq!(vars[1].index(), 1);
        let b = (y + x).le(10);
        let mut bv = Vec::new();
        b.collect_vars(&mut bv);
        assert_eq!(bv, vars.into_iter().rev().collect::<Vec<_>>());
    }
}
