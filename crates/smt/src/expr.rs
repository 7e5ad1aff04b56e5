//! Integer and boolean expression trees.
//!
//! Expressions are cheap, reference-counted trees built with ordinary Rust
//! operators (`+`, `-`, `*`) plus comparison combinators, mirroring the way
//! the paper's model generator emits Z3 terms.

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
    Sub(IntExpr, IntExpr),
    Neg(IntExpr),
    Div(IntExpr, IntExpr),
    Mod(IntExpr, IntExpr),
    Min(IntExpr, IntExpr),
    Max(IntExpr, IntExpr),
}

/// An integer-valued expression over solver variables.
///
/// `IntExpr` is a cheaply clonable handle (internally `Rc`). Build leaves
/// via [`Solver::int_var`](crate::Solver::int_var) and
/// [`IntExpr::constant`], then combine with `+`, `-`, `*`,
/// [`IntExpr::div`], [`IntExpr::modulo`], [`IntExpr::min`],
/// [`IntExpr::max`], and compare with [`IntExpr::le`] and friends.
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
        match v.len() {
            0 => IntExpr::constant(0),
            1 => v.into_iter().next().expect("len checked"),
            _ => IntExpr(Rc::new(IntNode::Add(v))),
        }
    }

    /// Product of an iterator of expressions (1 if empty).
    pub fn product<I: IntoIterator<Item = IntExpr>>(factors: I) -> Self {
        let v: Vec<IntExpr> = factors.into_iter().collect();
        match v.len() {
            0 => IntExpr::constant(1),
            1 => v.into_iter().next().expect("len checked"),
            _ => IntExpr(Rc::new(IntNode::Mul(v))),
        }
    }

    /// Euclidean division `self div rhs`.
    pub fn div(&self, rhs: impl Into<IntExpr>) -> IntExpr {
        IntExpr(Rc::new(IntNode::Div(self.clone(), rhs.into())))
    }

    /// Euclidean remainder `self mod rhs` (always non-negative for a
    /// positive modulus).
    pub fn modulo(&self, rhs: impl Into<IntExpr>) -> IntExpr {
        IntExpr(Rc::new(IntNode::Mod(self.clone(), rhs.into())))
    }

    /// Pointwise minimum.
    pub fn min(&self, rhs: impl Into<IntExpr>) -> IntExpr {
        IntExpr(Rc::new(IntNode::Min(self.clone(), rhs.into())))
    }

    /// Pointwise maximum.
    pub fn max(&self, rhs: impl Into<IntExpr>) -> IntExpr {
        IntExpr(Rc::new(IntNode::Max(self.clone(), rhs.into())))
    }

    /// Constraint `self <= rhs`.
    pub fn le(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Le, self.clone(), rhs.into())
    }

    /// Constraint `self < rhs`.
    pub fn lt(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Lt, self.clone(), rhs.into())
    }

    /// Constraint `self >= rhs`.
    pub fn ge(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Ge, self.clone(), rhs.into())
    }

    /// Constraint `self > rhs`.
    pub fn gt(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Gt, self.clone(), rhs.into())
    }

    /// Constraint `self == rhs`.
    ///
    /// Named `eq_expr` to avoid shadowing `PartialEq::eq` in method
    /// resolution.
    pub fn eq_expr(&self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::cmp(CmpOp::Eq, self.clone(), rhs.into())
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
            IntNode::Sub(a, b)
            | IntNode::Div(a, b)
            | IntNode::Mod(a, b)
            | IntNode::Min(a, b)
            | IntNode::Max(a, b) => {
                a.each_var(f);
                b.each_var(f);
            }
            IntNode::Neg(a) => a.each_var(f),
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

impl std::ops::Sub for IntExpr {
    type Output = IntExpr;
    fn sub(self, rhs: IntExpr) -> IntExpr {
        IntExpr(Rc::new(IntNode::Sub(self, rhs)))
    }
}

impl std::ops::Mul for IntExpr {
    type Output = IntExpr;
    fn mul(self, rhs: IntExpr) -> IntExpr {
        IntExpr(Rc::new(IntNode::Mul(vec![self, rhs])))
    }
}

impl std::ops::Neg for IntExpr {
    type Output = IntExpr;
    fn neg(self) -> IntExpr {
        IntExpr(Rc::new(IntNode::Neg(self)))
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
            IntNode::Sub(a, b) => write!(f, "({a} - {b})"),
            IntNode::Neg(a) => write!(f, "(-{a})"),
            IntNode::Div(a, b) => write!(f, "({a} div {b})"),
            IntNode::Mod(a, b) => write!(f, "({a} mod {b})"),
            IntNode::Min(a, b) => write!(f, "min({a}, {b})"),
            IntNode::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

/// Comparison operator of a [`BoolExpr`] atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

#[derive(Debug)]
pub(crate) enum BoolNode {
    True,
    False,
    Cmp(CmpOp, IntExpr, IntExpr),
    And(Vec<BoolExpr>),
    Or(Vec<BoolExpr>),
    Not(BoolExpr),
    Implies(BoolExpr, BoolExpr),
}

/// A boolean constraint over integer expressions.
///
/// # Examples
///
/// ```
/// use eatss_smt::{BoolExpr, Solver};
///
/// let mut s = Solver::new();
/// let x = s.int_var("x", 0, 100);
/// let c = x.ge(10).and(x.le(20)).or(x.eq_expr(0));
/// s.assert(c);
/// let model = s.check()?.model.expect("satisfiable");
/// let v = model.value_of_name("x").expect("x is bound");
/// assert!(v == 0 || (10..=20).contains(&v));
/// # Ok::<(), eatss_smt::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BoolExpr(pub(crate) Rc<BoolNode>);

impl BoolExpr {
    /// The constant `true`.
    pub fn tru() -> Self {
        BoolExpr(Rc::new(BoolNode::True))
    }

    /// The constant `false`.
    pub fn fals() -> Self {
        BoolExpr(Rc::new(BoolNode::False))
    }

    pub(crate) fn cmp(op: CmpOp, a: IntExpr, b: IntExpr) -> Self {
        BoolExpr(Rc::new(BoolNode::Cmp(op, a, b)))
    }

    /// Conjunction.
    pub fn and(&self, rhs: BoolExpr) -> BoolExpr {
        BoolExpr(Rc::new(BoolNode::And(vec![self.clone(), rhs])))
    }

    /// Disjunction.
    pub fn or(&self, rhs: BoolExpr) -> BoolExpr {
        BoolExpr(Rc::new(BoolNode::Or(vec![self.clone(), rhs])))
    }

    /// Negation.
    pub fn not(&self) -> BoolExpr {
        BoolExpr(Rc::new(BoolNode::Not(self.clone())))
    }

    /// Implication `self -> rhs`.
    pub fn implies(&self, rhs: BoolExpr) -> BoolExpr {
        BoolExpr(Rc::new(BoolNode::Implies(self.clone(), rhs)))
    }

    /// Conjunction of an iterator of constraints (`true` if empty).
    pub fn all<I: IntoIterator<Item = BoolExpr>>(items: I) -> BoolExpr {
        let v: Vec<BoolExpr> = items.into_iter().collect();
        match v.len() {
            0 => BoolExpr::tru(),
            1 => v.into_iter().next().expect("len checked"),
            _ => BoolExpr(Rc::new(BoolNode::And(v))),
        }
    }

    /// Disjunction of an iterator of constraints (`false` if empty).
    pub fn any<I: IntoIterator<Item = BoolExpr>>(items: I) -> BoolExpr {
        let v: Vec<BoolExpr> = items.into_iter().collect();
        match v.len() {
            0 => BoolExpr::fals(),
            1 => v.into_iter().next().expect("len checked"),
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
            BoolNode::True | BoolNode::False => {}
            BoolNode::Cmp(_, a, b) => {
                a.each_var(f);
                b.each_var(f);
            }
            BoolNode::And(xs) | BoolNode::Or(xs) => {
                for x in xs {
                    x.each_var(f);
                }
            }
            BoolNode::Not(a) => a.each_var(f),
            BoolNode::Implies(a, b) => {
                a.each_var(f);
                b.each_var(f);
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
            BoolNode::True => write!(f, "true"),
            BoolNode::False => write!(f, "false"),
            BoolNode::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            BoolNode::And(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
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
            BoolNode::Not(a) => write!(f, "(not {a})"),
            BoolNode::Implies(a, b) => write!(f, "({a} => {b})"),
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
        let e = (x.clone() + y.clone()) * IntExpr::constant(2) - x.modulo(3);
        assert_eq!(e.to_string(), "(((x + y) * 2) - (x mod 3))");
        let b = x.le(y.clone()).and(y.gt(0));
        assert_eq!(b.to_string(), "((x <= y) and (y > 0))");
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
        let e = x.clone() * y.clone() + x.clone() + y;
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].index(), 0);
        assert_eq!(vars[1].index(), 1);
        let b = x.gt(0).not();
        let mut bv = Vec::new();
        b.collect_vars(&mut bv);
        assert_eq!(bv.len(), 1);
    }

    #[test]
    fn all_and_any_edge_cases() {
        assert_eq!(BoolExpr::all([]).to_string(), "true");
        assert_eq!(BoolExpr::any([]).to_string(), "false");
    }
}
