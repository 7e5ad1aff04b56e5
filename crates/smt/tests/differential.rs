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
//!
//! The fast engine filters monotone constraints by bisection and
//! everything else by per-value probing, deciding which from the
//! constraint's syntax; the reference probes every value of everything. So
//! a second family of formulations is built from exactly the shapes the
//! syntactic analysis must *not* take for monotone — `mod`, differences
//! and products over domains that straddle zero, disjunctions — next to
//! the capacity constraints it should. (The filtered domains themselves
//! are compared value for value by the unit properties in
//! `src/search.rs`, which can see them; here the two engines meet at the
//! public API.)

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

/// A three-variable formulation over domains that may straddle zero,
/// mixing one EATSS capacity constraint (over the positive variable) with
/// non-monotone ones selected by `sel`, under an objective with a
/// difference and a signed product in it.
fn build_non_monotone(lo: [i64; 2], span: [i64; 3], cap: i64, k: i64, sel: u8) -> (Solver, IntExpr) {
    let mut s = Solver::new();
    let x = s.int_var("x", lo[0], lo[0] + span[0]);
    let y = s.int_var("y", lo[1], lo[1] + span[1]);
    let z = s.int_var("z", 1, 1 + span[2]);
    // Monotone in `z`, of unknown direction in `x` and `y` (their hulls
    // may be negative).
    s.assert((x.clone() * y.clone() + z.clone() * z.clone()).le(cap));
    if sel & 1 != 0 {
        s.assert((x.clone() + y.clone()).modulo(k).eq_expr(1));
    }
    if sel & 2 != 0 {
        // `z` on both sides of a difference: `3k·z − z²` rises, peaks inside
        // the domain and falls again.
        let hump = IntExpr::constant(3 * k) * z.clone() - z.clone() * z.clone();
        s.assert((hump - x.clone()).ge(cap / 8));
    }
    if sel & 4 != 0 {
        s.assert((x.clone() * y.clone()).gt(-k));
    }
    if sel & 8 != 0 {
        s.assert(x.le(-1).or(y.ge(z.clone())));
    }
    if sel & 16 != 0 {
        s.assert((y.clone() - IntExpr::constant(k)).max(x.clone()).le(z.clone() + IntExpr::constant(2)));
    }
    let obj = z.clone() * y.clone() - x.clone() * x + z;
    (s, obj)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both engines agree — verdicts from `check`, optima from `maximize`
    /// — where the polarity analysis has to decline.
    #[test]
    fn non_monotone_formulations_match_reference(
        lx in -6i64..3, ly in -6i64..3,
        sx in 0i64..9, sy in 0i64..9, sz in 0i64..7,
        cap in 1i64..60, k in 2i64..5, sel in 0u8..32,
    ) {
        let (mut s, obj) = build_non_monotone([lx, ly], [sx, sy, sz], cap, k, sel);
        let naive = reference::check(&s).expect("reference check");
        let fast = s.check().expect("fast check");
        prop_assert!(fast.complete, "no budgets configured");
        prop_assert_eq!(naive.model.is_some(), fast.model.is_some());
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
