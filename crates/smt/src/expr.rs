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

/// A variable occurrence: its id and the name it was registered under.
#[derive(Debug, Clone)]
pub(crate) struct Var {
    pub(crate) id: VarId,
    pub(crate) name: Rc<str>,
}

/// One term `coef · Π vars`, with at least one variable. Its variables
/// are shared: a sum copies a term without copying them.
#[derive(Debug, Clone)]
pub(crate) struct Term {
    pub(crate) coef: i64,
    pub(crate) vars: Rc<[Var]>,
}

/// The row behind an [`IntExpr`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Sum {
    pub(crate) constant: i64,
    pub(crate) terms: Vec<Term>,
    /// Whether a negative constant went into it. Constants fold as they
    /// are multiplied, so `(−1)·(−1)` leaves no negative coefficient
    /// behind; this keeps such a sum from passing for a row.
    pub(crate) negative: bool,
}

impl Sum {
    /// The products `*` multiplies out: the terms, then the constant
    /// (when it is not 0, or there are no terms) as a product of no
    /// variables.
    fn products(&self) -> impl Iterator<Item = (i64, &[Var])> {
        let constant = (self.constant != 0 || self.terms.is_empty()).then_some(self.constant);
        (self.terms.iter().map(|t| (t.coef, &t.vars[..]))).chain(constant.map(|c| (c, &[][..])))
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
            terms: Vec::new(),
            negative: v < 0,
        }))
    }

    pub(crate) fn var(id: VarId, name: &str) -> Self {
        let vars = Rc::new([Var {
            id,
            name: name.into(),
        }]);
        IntExpr(Rc::new(Sum {
            terms: vec![Term { coef: 1, vars }],
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
        let [Term { coef: 1, vars }] = &self.0.terms[..] else {
            return None;
        };
        let [var] = &vars[..] else { return None };
        (self.0.constant == 0 && !self.0.negative).then_some(var.id)
    }

    /// Every variable occurrence, term by term.
    pub(crate) fn vars(&self) -> impl Iterator<Item = &Var> {
        self.0.terms.iter().flat_map(|t| t.vars.iter())
    }
}

impl std::ops::Add for IntExpr {
    type Output = IntExpr;
    fn add(mut self, rhs: IntExpr) -> IntExpr {
        let sum = Rc::make_mut(&mut self.0);
        sum.constant = sum.constant.saturating_add(rhs.0.constant);
        sum.negative = sum.negative || rhs.0.negative;
        // An unshared right side gives up its terms; a shared one is copied
        // term by term (the variables of a term are shared either way).
        match Rc::try_unwrap(rhs.0) {
            Ok(rhs) => sum.terms.extend(rhs.terms),
            Err(rhs) => sum.terms.extend(rhs.terms.iter().cloned()),
        }
        self
    }
}

impl std::ops::Mul for IntExpr {
    type Output = IntExpr;
    /// Multiplies out: every product of the left times every product of
    /// the right, left-major, each its coefficients' product over its
    /// factors in order.
    fn mul(self, rhs: IntExpr) -> IntExpr {
        let mut product = Sum {
            negative: self.0.negative || rhs.0.negative,
            ..Sum::default()
        };
        for (a, a_vars) in self.0.products() {
            for (b, b_vars) in rhs.0.products() {
                let coef = a.saturating_mul(b);
                if a_vars.is_empty() && b_vars.is_empty() {
                    // The two constants: met once.
                    product.constant = coef;
                } else {
                    let vars = a_vars.iter().chain(b_vars).cloned().collect();
                    product.terms.push(Term { coef, vars });
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
