//! Integer and boolean expression trees.
//!
//! Expressions are cheap, reference-counted trees over the one fragment the
//! EATSS formulation uses: sums and products, compared with `<=`, `==` or
//! `!=`, and disjunctions of such atoms. They are built
//! with ordinary Rust operators (`+`, `*`) plus comparison combinators,
//! mirroring the way the paper's model generator emits Z3 terms.

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

#[derive(Debug)]
pub(crate) enum IntNode {
    Const(i64),
    Var(VarId, String),
    Add(Vec<IntExpr>),
    Mul(Vec<IntExpr>),
}

/// An integer-valued expression over solver variables.
///
/// `IntExpr` is a cheaply clonable handle (internally `Rc`). Build leaves
/// via [`Solver::int_var`](crate::Solver::int_var) and
/// [`IntExpr::constant`], then combine with `+` and `*`, and compare with
/// [`IntExpr::le`], [`IntExpr::eq_expr`] and [`IntExpr::ne_expr`]. A difference `a − b` is
/// written `a + (−1)·b`, and `a < b` is `a + 1 <= b`.
///
/// # Examples
///
/// ```
/// use eatss_smt::{IntExpr, Solver};
///
/// let mut s = Solver::new();
/// let x = s.int_var("x", 0, 10);
/// let expr = x.clone() * IntExpr::constant(3) + x;
/// assert_eq!(expr.to_string(), "((x * 3) + x)");
/// ```
#[derive(Debug, Clone)]
pub struct IntExpr(pub(crate) Rc<IntNode>);

impl IntExpr {
    /// A constant expression.
    pub fn constant(v: i64) -> Self {
        IntExpr(Rc::new(IntNode::Const(v)))
    }

    pub(crate) fn var(id: VarId, name: &str) -> Self {
        IntExpr(Rc::new(IntNode::Var(id, name.to_owned())))
    }

    /// Sum of an iterator of expressions (0 if empty).
    pub fn sum<I: IntoIterator<Item = IntExpr>>(terms: I) -> Self {
        let v: Vec<IntExpr> = terms.into_iter().collect();
        match v.as_slice() {
            [] => IntExpr::constant(0),
            [one] => one.clone(),
            _ => IntExpr(Rc::new(IntNode::Add(v))),
        }
    }

    /// Product of an iterator of expressions (1 if empty).
    pub fn product<I: IntoIterator<Item = IntExpr>>(factors: I) -> Self {
        let v: Vec<IntExpr> = factors.into_iter().collect();
        match v.as_slice() {
            [] => IntExpr::constant(1),
            [one] => one.clone(),
            _ => IntExpr(Rc::new(IntNode::Mul(v))),
        }
    }

    /// Constraint `self <= rhs`.
    pub fn le(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Le, self.clone(), rhs.into())
    }

    /// Constraint `self == rhs`.
    ///
    /// Named `eq_expr` to avoid shadowing `PartialEq::eq` in method
    /// resolution.
    pub fn eq_expr(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Eq, self.clone(), rhs.into())
    }

    /// Constraint `self != rhs`.
    pub fn ne_expr(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Ne, self.clone(), rhs.into())
    }

    /// Collects the variables mentioned by this expression into `out`
    /// (deduplicated, in first-occurrence order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.each_var(&mut |id, _| push_new(out, id));
    }

    /// Calls `f` on every variable occurrence, left to right.
    pub(crate) fn each_var(&self, f: &mut dyn FnMut(VarId, &str)) {
        match &*self.0 {
            IntNode::Const(_) => {}
            IntNode::Var(id, name) => f(*id, name),
            IntNode::Add(xs) | IntNode::Mul(xs) => {
                for x in xs {
                    x.each_var(f);
                }
            }
        }
    }
}

impl From<i64> for IntExpr {
    fn from(v: i64) -> Self {
        IntExpr::constant(v)
    }
}

impl From<&IntExpr> for IntExpr {
    fn from(e: &IntExpr) -> Self {
        e.clone()
    }
}

impl std::ops::Add for IntExpr {
    type Output = IntExpr;
    fn add(self, rhs: IntExpr) -> IntExpr {
        IntExpr(Rc::new(IntNode::Add(vec![self, rhs])))
    }
}

impl std::ops::Mul for IntExpr {
    type Output = IntExpr;
    fn mul(self, rhs: IntExpr) -> IntExpr {
        IntExpr(Rc::new(IntNode::Mul(vec![self, rhs])))
    }
}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.0 {
            IntNode::Const(v) => write!(f, "{v}"),
            IntNode::Var(_, name) => write!(f, "{name}"),
            IntNode::Add(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            IntNode::Mul(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Comparison operator of a [`BoolExpr`] atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

#[derive(Debug)]
pub(crate) enum BoolNode {
    Cmp(CmpOp, IntExpr, IntExpr),
    /// A disjunction; with no disjuncts it is `false`.
    Or(Vec<BoolExpr>),
}

/// A boolean constraint over integer expressions: a comparison atom or a
/// disjunction of constraints.
///
/// # Examples
///
/// ```
/// use eatss_smt::{IntExpr, Solver};
///
/// let mut s = Solver::new();
/// let x = s.int_var("x", 0, 100);
/// // x <= 20 and (x == 0 or 10 <= x): one assertion per conjunct.
/// s.assert(x.le(20));
/// s.assert(x.eq_expr(0).or(IntExpr::constant(10).le(&x)));
/// let model = s.check()?.model.expect("satisfiable");
/// let v = model.value_of_name("x").expect("x is bound");
/// assert!(v == 0 || (10..=20).contains(&v));
/// # Ok::<(), eatss_smt::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BoolExpr(pub(crate) Rc<BoolNode>);

impl BoolExpr {
    pub(crate) fn cmp(op: CmpOp, a: IntExpr, b: IntExpr) -> Self {
        BoolExpr(Rc::new(BoolNode::Cmp(op, a, b)))
    }

    /// Disjunction.
    pub fn or(&self, rhs: BoolExpr) -> BoolExpr {
        BoolExpr(Rc::new(BoolNode::Or(vec![self.clone(), rhs])))
    }

    /// Disjunction of an iterator of constraints (`false` if empty).
    pub fn any<I: IntoIterator<Item = BoolExpr>>(items: I) -> BoolExpr {
        let v: Vec<BoolExpr> = items.into_iter().collect();
        match v.as_slice() {
            [one] => one.clone(),
            _ => BoolExpr(Rc::new(BoolNode::Or(v))),
        }
    }

    /// Collects the variables mentioned by this constraint into `out`
    /// (deduplicated, in first-occurrence order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.each_var(&mut |id, _| push_new(out, id));
    }

    /// Calls `f` on every variable occurrence, left to right.
    pub(crate) fn each_var(&self, f: &mut dyn FnMut(VarId, &str)) {
        match &*self.0 {
            BoolNode::Cmp(_, a, b) => {
                a.each_var(f);
                b.each_var(f);
            }
            BoolNode::Or(xs) => {
                for x in xs {
                    x.each_var(f);
                }
            }
        }
    }
}

fn push_new(out: &mut Vec<VarId>, id: VarId) {
    if !out.contains(&id) {
        out.push(id);
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.0 {
            BoolNode::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            BoolNode::Or(xs) if xs.is_empty() => write!(f, "false"),
            BoolNode::Or(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
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
        assert_eq!(e.to_string(), "(((x + y) * 2) + (x * 3))");
        let b = x.le(y.clone()).or(y.ne_expr(0));
        assert_eq!(b.to_string(), "((x <= y) or (y != 0))");
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
        let b = y.eq_expr(0).or(x.le(y.clone() + x.clone()));
        let mut bv = Vec::new();
        b.collect_vars(&mut bv);
        assert_eq!(bv, vars.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn any_edge_cases() {
        assert_eq!(BoolExpr::any([]).to_string(), "false");
        let atom = IntExpr::constant(1).le(2);
        assert_eq!(BoolExpr::any([atom.clone()]).to_string(), "(1 <= 2)");
    }
}
