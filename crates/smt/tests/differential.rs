//! Differential tests: the trail/worklist/branch-and-bound engine must
//! agree with the exhaustive reference engine ([`eatss_smt::reference`])
//! on every random small formulation — the same optimal objective value
//! from `maximize`, and a model that attains it and satisfies every
//! assertion.
//!
//! Formulations mirror the shapes the EATSS model generator emits, in the
//! solver's one language — capacity rows `Σ c·Π T ≤ cap` under an
//! objective row: bounded integer variables, aligned domains (warp
//! alignment is the domain of multiples, as `ModelGenerator::build`
//! declares it), product capacities (shared-memory and register budgets),
//! sums of volumes and linear budgets. Domains are kept small so the
//! exhaustive reference finishes in microseconds per case.
//!
//! The fast engine cuts each row in closed form and probes it value by
//! value only where a pass saturated; the reference probes every value of
//! every row with an evaluator of its own. (The filtered domains
//! themselves are compared value for value by the unit properties in
//! `src/search.rs`, which can see them; here the two engines meet at the
//! public API.)

use eatss_smt::{reference, Domain, IntExpr, Solver};
use proptest::prelude::*;

fn constant(v: i64) -> IntExpr {
    IntExpr::constant(v)
}

/// A formulation: its solver, its objective, and each asserted row as
/// its left side and capacity.
type Formulation = (Solver, IntExpr, Vec<(IntExpr, i64)>);

/// Builds a solver holding a randomized three-variable formulation and a
/// bilinear objective. `sel` bits toggle optional rows so the mix of
/// tight/loose/unsat cases varies per case.
fn build(hi: [i64; 3], cap: i64, sum_cap: i64, m: i64, sel: u8) -> Formulation {
    let mut s = Solver::new();
    let mut rows = Vec::new();
    let mut assert = |s: &mut Solver, lhs: IntExpr, cap: i64| {
        s.assert(lhs.le(cap));
        rows.push((lhs, cap));
    };
    let x = if sel & 2 != 0 {
        // Aligned to `m`: the multiples of `m` up to `hi[0]` (none at all
        // when `m > hi[0]`, an unsatisfiable formulation).
        let multiples = (1..=hi[0] / m).map(|k| k * m).collect();
        s.int_var_in("x", Domain::from_values(multiples))
    } else {
        s.int_var("x", 1, hi[0])
    };
    let y = s.int_var("y", 1, hi[1]);
    let z = s.int_var("z", 1, hi[2]);
    // Capacity: the product of two tiles fits a budget (always on — the
    // backbone of every EATSS formulation).
    assert(&mut s, x.clone() * y.clone(), cap);
    if sel & 1 != 0 {
        assert(
            &mut s,
            x.clone() * y.clone() + y.clone() * z.clone(),
            sum_cap,
        );
    }
    if sel & 4 != 0 {
        // A register-like budget: a product nested in a product.
        assert(
            &mut s,
            (x.clone() * y.clone()) * constant(3) * z.clone(),
            sum_cap,
        );
    }
    if sel & 8 != 0 {
        assert(
            &mut s,
            constant(2) * z.clone() + x.clone() + constant(1),
            cap,
        );
    }
    if sel & 16 != 0 {
        // Occasionally unsatisfiable: every variable is at least 1.
        assert(&mut s, x.clone() + y.clone() + z.clone(), m);
    }
    let obj = x.clone() * y.clone() + z.clone() * IntExpr::constant(2) + y;
    (s, obj, rows)
}

proptest! {
    /// `maximize` reaches the same optimum as the reference's exhaustive
    /// `OBJ > best` loop, and proves it.
    #[test]
    fn maximize_optima_match_reference(
        hx in 1i64..10, hy in 1i64..10, hz in 1i64..10,
        cap in 1i64..60, sum_cap in 1i64..100, modulus in 2i64..5,
        sel in 0u8..32,
    ) {
        let (mut s, obj, rows) = build([hx, hy, hz], cap, sum_cap, modulus, sel);
        let naive = reference::maximize(&s, &obj).expect("reference maximize");
        let fast = s.maximize(&obj).expect("fast maximize");
        prop_assert!(fast.complete(), "no budgets configured");
        prop_assert_eq!(naive.best, fast.best());
        // Both branch in registration order, largest value first: the
        // same (lexicographically greatest) optimum.
        prop_assert_eq!(&naive.model, &fast.model);
        for (model, best) in [(&fast.model, fast.best()), (&naive.model, naive.best)] {
            let (Some(model), Some(best)) = (model, best) else { continue };
            prop_assert_eq!(model.eval(&obj), Ok(best));
            for (lhs, cap) in &rows {
                prop_assert!(model.eval(lhs).expect("own variables") <= *cap, "{lhs} <= {cap}");
            }
        }
    }
}
