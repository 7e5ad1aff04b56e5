//! Integer expression trees and the capacity constraints over them.
//!
//! Expressions are cheap, reference-counted trees over the one fragment the
//! EATSS formulation uses: sums and products, and a sum of products
//! compared `<=` a capacity. They are built with ordinary Rust operators
//! (`+`, `*`) plus [`IntExpr::le`], mirroring the way the paper's model
//! generator emits Z3 terms.

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
/// [`IntExpr::constant`], then combine with `+` and `*`, and bound with
/// [`IntExpr::le`].
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
        BoolExpr {
            lhs: self.clone(),
            rhs: rhs.into(),
        }
    }

    /// Collects the variables mentioned by this expression into `out`
    /// (deduplicated, in first-occurrence order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.each_var(&mut |id, _| push_new(out, id));
    }

    /// The variable this expression is, when it is a bare variable.
    pub fn as_var(&self) -> Option<VarId> {
        match &*self.0 {
            IntNode::Var(id, _) => Some(*id),
            _ => None,
        }
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

/// A capacity constraint `lhs <= rhs` over integer expressions — the one
/// kind of assertion the solver takes.
/// [`Solver::maximize`](crate::Solver::maximize) accepts it when it is a
/// *row*: `rhs` a constant, `lhs` a sum of products whose constants are
/// `>= 0`, whose variables range over non-negative domains, and in none
/// of which a variable repeats; it refuses anything else with
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
/// assert_eq!(capacity.to_string(), "((((3 * x) * y) + x) <= 120)");
/// s.assert(capacity);
/// assert_eq!(s.maximize(&(x * y))?.best, Some(39));
/// # Ok::<(), eatss_smt::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BoolExpr {
    pub(crate) lhs: IntExpr,
    pub(crate) rhs: IntExpr,
}

impl BoolExpr {
    /// Collects the variables mentioned by this constraint into `out`
    /// (deduplicated, in first-occurrence order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.each_var(&mut |id, _| push_new(out, id));
    }

    /// Calls `f` on every variable occurrence, left to right.
    pub(crate) fn each_var(&self, f: &mut dyn FnMut(VarId, &str)) {
        self.lhs.each_var(f);
        self.rhs.each_var(f);
    }
}

fn push_new(out: &mut Vec<VarId>, id: VarId) {
    if !out.contains(&id) {
        out.push(id);
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} <= {})", self.lhs, self.rhs)
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
        assert_eq!(e.le(12).to_string(), "((((x + y) * 2) + (x * 3)) <= 12)");
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
        let b = y.le(y.clone() + x.clone());
        let mut bv = Vec::new();
        b.collect_vars(&mut bv);
        assert_eq!(bv, vars.into_iter().rev().collect::<Vec<_>>());
    }
}
