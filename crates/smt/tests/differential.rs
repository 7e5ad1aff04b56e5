//! Differential tests: the trail/worklist/branch-and-bound engine must
//! agree with the retained naive reference engine
//! ([`eatss_smt::reference`]) on every random small formulation — same
//! sat/unsat verdicts from `check`, same optimal objective values from
//! `maximize`.
//!
//! Formulations mirror the shapes the EATSS model generator emits:
//! bounded integer variables, divisibility constraints (warp alignment),
//! product capacity constraints (shared-memory and register budgets), and
//! linear/bilinear comparisons. Objectives stay `div`/`mod`-free like the
//! paper's `COMP + GM ... + SM ...` objective. Domains are kept small so
//! the exhaustive reference finishes in microseconds per case.

use eatss_smt::{reference, IntExpr, Solver};
use proptest::prelude::*;

/// Builds a solver holding a randomized three-variable formulation and a
/// bilinear objective. `sel` bits toggle optional constraints so the mix
/// of tight/loose/unsat cases varies per case.
fn build(
    hi: [i64; 3],
    cap: i64,
    sum_cap: i64,
    modulus: i64,
    sel: u8,
) -> (Solver, IntExpr) {
    let mut s = Solver::new();
    let x = s.int_var("x", 1, hi[0]);
    let y = s.int_var("y", 1, hi[1]);
    let z = s.int_var("z", 1, hi[2]);
    // Capacity: the product of two tiles fits a budget (always on — the
    // backbone of every EATSS formulation).
    s.assert((x.clone() * y.clone()).le(cap));
    if sel & 1 != 0 {
        s.assert((x.clone() * y.clone() + y.clone() * z.clone()).le(sum_cap));
    }
    if sel & 2 != 0 {
        s.assert(x.modulo(modulus).eq_expr(0));
    }
    if sel & 4 != 0 {
        s.assert((x.clone() + y.clone()).gt(z.clone()));
    }
    if sel & 8 != 0 {
        s.assert(x.le(y.clone()));
    }
    if sel & 16 != 0 {
        // Occasionally unsatisfiable: demand more than the capacity allows.
        s.assert((x.clone() * y.clone()).gt(cap - 1));
        s.assert(x.gt(1));
        s.assert(y.gt(1));
    }
    let obj = x.clone() * y.clone() + z.clone() * IntExpr::constant(2) + y;
    (s, obj)
}

proptest! {
    /// `check` verdicts agree, and both engines' models (when sat) satisfy
    /// every asserted constraint.
    #[test]
    fn check_verdicts_match_reference(
        hx in 1i64..12, hy in 1i64..12, hz in 1i64..12,
        cap in 1i64..80, sum_cap in 1i64..120, modulus in 2i64..5,
        sel in 0u8..32,
    ) {
        let (mut s, _obj) = build([hx, hy, hz], cap, sum_cap, modulus, sel);
        let naive = reference::check(&s).expect("reference check");
        let fast = s.check().expect("fast check");
        prop_assert!(fast.complete, "no budgets configured");
        prop_assert_eq!(naive.model.is_some(), fast.model.is_some());
        for model in [&naive.model, &fast.model].into_iter().flatten() {
            for c in s.assertions() {
                prop_assert_eq!(model.eval_bool(c), Ok(true));
            }
        }
    }

    /// `maximize` reaches the same optimum as the reference's exhaustive
    /// `OBJ > best` loop, and proves it.
    #[test]
    fn maximize_optima_match_reference(
        hx in 1i64..10, hy in 1i64..10, hz in 1i64..10,
        cap in 1i64..60, sum_cap in 1i64..100, modulus in 2i64..5,
        sel in 0u8..32,
    ) {
        let (mut s, obj) = build([hx, hy, hz], cap, sum_cap, modulus, sel);
        let naive = reference::maximize(&s, &obj).expect("reference maximize");
        let fast = s.maximize(&obj).expect("fast maximize");
        prop_assert!(fast.complete, "no budgets configured");
        prop_assert_eq!(naive.best, fast.best);
        if let (Some(best), Some(model)) = (fast.best, &fast.model) {
            prop_assert_eq!(model.eval(&obj), Ok(best));
            for c in s.assertions() {
                prop_assert_eq!(model.eval_bool(c), Ok(true));
            }
        }
    }
}
