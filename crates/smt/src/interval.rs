#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
//! Closed integer intervals with saturating non-linear arithmetic.
//!
//! Intervals are the solver's one evaluator: every integer expression is
//! evaluated to an [`Interval`] that is guaranteed to contain the
//! expression's value under every assignment drawn from the current
//! variable domains. Over singleton hulls that is point evaluation — the
//! search's leaf check and [`Model::eval`](crate::Model::eval) alike.
//!
//! Every endpoint is the exact value saturated to the `i64` range,
//! computed in machine words: `i64` saturating `+` and `*` (clamping is
//! monotone, so the span of clamped corners is the clamped span of the
//! exact corners). No raw `+ - *` may
//! appear outside the tests (`clippy::arithmetic_side_effects` is denied
//! here); the tests hold the exact rules, in 128-bit integers, and check
//! every operator against them bit for bit.

use std::fmt;

/// A closed integer interval `[lo, hi]`.
///
/// The empty interval is represented by `lo > hi` and can be obtained from
/// [`Interval::empty`]. Every operation yields the exact endpoints
/// saturated to the `i64` range, computed with saturating `i64` operations
/// (a product of two non-negative intervals takes two of them, `lo·lo` and
/// `hi·hi`); on singletons each operator is exactly saturating `i64`
/// arithmetic and none panics. EATSS formulations stay far below the
/// clamp (tile products are at most `1024^5 ≈ 2^50`).
///
/// # Examples
///
/// ```
/// use eatss_smt::Interval;
///
/// let a = Interval::new(2, 5);
/// let b = Interval::new(-1, 3);
/// assert_eq!(a * b, Interval::new(-5, 15));
/// assert!((a * b).contains(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// An inverted pair (`lo > hi`) is allowed and denotes the empty
    /// interval.
    pub fn new(lo: i64, hi: i64) -> Self {
        Interval { lo, hi }
    }

    /// The interval containing exactly `v`.
    pub fn singleton(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The canonical empty interval.
    pub fn empty() -> Self {
        Interval { lo: 1, hi: 0 }
    }

    /// The whole `i64` range: any value at all.
    pub fn top() -> Self {
        Interval::new(i64::MIN, i64::MAX)
    }

    /// Lower bound (meaningless if [`Interval::is_empty`]).
    pub fn lo(self) -> i64 {
        self.lo
    }

    /// Upper bound (meaningless if [`Interval::is_empty`]).
    pub fn hi(self) -> i64 {
        self.hi
    }

    /// Whether the interval contains no integers.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Whether the interval is a single value.
    pub fn is_singleton(self) -> bool {
        self.lo == self.hi
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Intersection of two intervals.
    pub fn intersect(self, rhs: Interval) -> Interval {
        Interval::new(self.lo.max(rhs.lo), self.hi.min(rhs.hi))
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Interval sum.
    fn add(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        Interval::new(
            self.lo.saturating_add(rhs.lo),
            self.hi.saturating_add(rhs.hi),
        )
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;

    /// Interval product: the span of the saturated corner products (mixed
    /// signs included), or just `[lo·lo, hi·hi]` when neither factor can
    /// be negative — every tile, capacity and coefficient.
    fn mul(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        if self.lo >= 0 && rhs.lo >= 0 {
            return Interval::new(
                self.lo.saturating_mul(rhs.lo),
                self.hi.saturating_mul(rhs.hi),
            );
        }
        let corners = [
            self.lo.saturating_mul(rhs.lo),
            self.lo.saturating_mul(rhs.hi),
            self.hi.saturating_mul(rhs.lo),
            self.hi.saturating_mul(rhs.hi),
        ];
        let (lo, hi) = corners
            .into_iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        Interval::new(lo, hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::TestRng;

    /// Endpoints at and beside the `i64` extremes.
    const ENDS: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

    /// Saturates an exact `i128` endpoint to the `i64` range.
    fn clamp(v: i128) -> i64 {
        v.clamp(i64::MIN.into(), i64::MAX.into()) as i64
    }

    // The spec: every endpoint exact in `i128`, then saturated to `i64`.
    // The operators compute in `i64` and must equal these bit for bit.

    fn spec_add(a: Interval, b: Interval) -> Interval {
        if a.is_empty() || b.is_empty() {
            return Interval::empty();
        }
        Interval::new(
            clamp(i128::from(a.lo) + i128::from(b.lo)),
            clamp(i128::from(a.hi) + i128::from(b.hi)),
        )
    }

    fn spec_mul(a: Interval, b: Interval) -> Interval {
        if a.is_empty() || b.is_empty() {
            return Interval::empty();
        }
        let (mut lo, mut hi) = (i128::MAX, i128::MIN);
        for x in [a.lo, a.hi] {
            for y in [b.lo, b.hi] {
                let v = i128::from(x) * i128::from(y);
                (lo, hi) = (lo.min(v), hi.max(v));
            }
        }
        Interval::new(clamp(lo), clamp(hi))
    }

    /// A random endpoint: small, at an extreme, beside one, near the
    /// `2^31`/`2^32` products cross `i64` at, or anywhere.
    fn endpoint(rng: &mut TestRng) -> i64 {
        let r = rng.next_u64();
        let small = (r >> 8) as i64 % 41;
        match r % 6 {
            0 => small,
            1 => -small,
            2 => ENDS[(r >> 8) as usize % ENDS.len()],
            3 => i64::MAX - small,
            4 => (1 << (31 + (r >> 16) % 2)) - small,
            _ => rng.next_u64() as i64,
        }
    }

    /// A random interval — mixed-sign, one-signed or singleton; one in
    /// eight is empty, inverted endpoints and all.
    fn interval(rng: &mut TestRng) -> Interval {
        let sign = |v: i64, negative: bool| if negative { v.saturating_neg() } else { v };
        let (x, y) = (endpoint(rng), endpoint(rng));
        let r = rng.next_u64();
        let (x, y) = (sign(x, r.is_multiple_of(3)), sign(y, r.is_multiple_of(5)));
        if r.is_multiple_of(8) {
            Interval::new(x.max(y), x.min(y).saturating_sub(1))
        } else if r.is_multiple_of(7) {
            Interval::singleton(x)
        } else {
            Interval::new(x.min(y), x.max(y))
        }
    }

    #[test]
    fn every_operator_is_the_exact_rule_saturated_bit_for_bit() {
        let mut intervals = vec![Interval::empty(), Interval::new(i64::MAX, i64::MIN)];
        for lo in ENDS {
            let above = ENDS.into_iter().filter(|&hi| lo <= hi);
            intervals.extend(above.map(|hi| Interval::new(lo, hi)));
        }
        let check = |a: Interval, b: Interval| {
            assert_eq!(a + b, spec_add(a, b), "{a} + {b}");
            assert_eq!(a * b, spec_mul(a, b), "{a} * {b}");
        };
        for &a in &intervals {
            for &b in &intervals {
                check(a, b);
            }
        }
        for case in 0..20_000 {
            let rng = &mut TestRng::for_case("interval_spec", case);
            let (a, b) = (interval(rng), interval(rng));
            check(a, b);
        }
    }

    #[test]
    fn add_and_sub_are_exact_on_small_intervals() {
        let a = Interval::new(1, 3);
        let b = Interval::new(-2, 4);
        assert_eq!(a + b, Interval::new(-1, 7));
        // A difference is `a + (−1)·b`.
        assert_eq!(a + Interval::singleton(-1) * b, Interval::new(-3, 5));
    }

    #[test]
    fn mul_handles_mixed_signs() {
        let a = Interval::new(-2, 3);
        let b = Interval::new(-5, 1);
        // corners: 10, -2, -15, 3
        assert_eq!(a * b, Interval::new(-15, 10));
    }

    #[test]
    fn mul_of_positives_is_monotone() {
        let a = Interval::new(2, 8);
        let b = Interval::new(3, 4);
        assert_eq!(a * b, Interval::new(6, 32));
    }

    #[test]
    fn empty_propagates_through_arithmetic() {
        let e = Interval::empty();
        let a = Interval::new(0, 10);
        assert!((e + a).is_empty());
        assert!((a * e).is_empty());
    }

    #[test]
    fn saturation_does_not_panic() {
        let (min, max) = (Interval::singleton(i64::MIN), Interval::singleton(i64::MAX));
        let a = Interval::singleton(i64::MAX / 8);
        assert_eq!(a * a, max);
        assert_eq!(max + max, max);
        assert_eq!(min + min, min);
        assert_eq!(min * Interval::singleton(-1), max);
    }

    /// Every operator over every interval with endpoints drawn from the
    /// `i64` extremes: nothing panics, and
    /// the result holds the exact (`i128`) value, saturated to `i64`, at
    /// every sampled point.
    #[test]
    fn no_operator_panics_on_any_endpoint() {
        let mut intervals = vec![Interval::empty()];
        for lo in ENDS {
            let above = ENDS.into_iter().filter(|&hi| lo <= hi);
            intervals.extend(above.map(|hi| Interval::new(lo, hi)));
        }
        let points = |i: Interval| ENDS.into_iter().filter(move |&v| i.contains(v));
        type Op = fn(Interval, Interval) -> Interval;
        type Exact = fn(i128, i128) -> i128;
        let ops: [(&str, Op, Exact); 2] = [
            ("+", |a, b| a + b, |x, y| x + y),
            ("*", |a, b| a * b, |x, y| x * y),
        ];
        for &a in &intervals {
            for &b in &intervals {
                for (name, op, exact) in ops {
                    let result = op(a, b);
                    for (x, y) in points(a).flat_map(|x| points(b).map(move |y| (x, y))) {
                        let hit = result.contains(clamp(exact(x.into(), y.into())));
                        assert!(hit, "{a} {name} {b} = {result} misses {x} {name} {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn intersect_and_contains_agree() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        let c = a.intersect(b);
        assert_eq!(c, Interval::new(5, 10));
        for v in 0..=20 {
            assert_eq!(c.contains(v), a.contains(v) && b.contains(v));
        }
    }
}
