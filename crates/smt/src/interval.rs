//! Closed integer intervals with saturating non-linear arithmetic.
//!
//! Intervals are the solver's one evaluator: every integer expression is
//! evaluated to an [`Interval`] that is guaranteed to contain the
//! expression's value under every assignment drawn from the current
//! variable domains. Over singleton hulls that is point evaluation — the
//! search's leaf check and [`Model::eval`](crate::Model::eval) alike.

use std::fmt;
use std::num::NonZeroI64;

/// A closed integer interval `[lo, hi]`.
///
/// The empty interval is represented by `lo > hi` and can be obtained from
/// [`Interval::empty`]. Every operation computes its endpoints in `i128`
/// and saturates them to the `i64` range, so on singletons each operator
/// is exactly saturating `i64` arithmetic and none panics; EATSS
/// formulations stay far below the clamp (tile products are at most
/// `1024^5 ≈ 2^50`).
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

/// Saturates an exact `i128` endpoint to the `i64` range.
fn clamp(v: i128) -> i64 {
    v.clamp(i64::MIN.into(), i64::MAX.into()) as i64
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

    /// Interval of Euclidean remainder `self mod modulus`.
    ///
    /// Within `[0, |modulus| - 1]`; exact on a singleton, and the tight
    /// sub-range when the dividend spans fewer values than the modulus and
    /// does not wrap.
    pub fn rem_euclid(self, modulus: NonZeroI64) -> Interval {
        if self.is_empty() {
            return Interval::empty();
        }
        // `|MIN|` is `2^63`: the modulus is taken in `i128`, and every
        // remainder below it fits an `i64`.
        let (lo, hi) = (i128::from(self.lo), i128::from(self.hi));
        let m = i128::from(modulus.get()).abs();
        let (r_lo, r_hi) = (lo.rem_euclid(m), hi.rem_euclid(m));
        if hi - lo < m && r_lo <= r_hi {
            return Interval::new(r_lo as i64, r_hi as i64);
        }
        Interval::new(0, clamp(m - 1))
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
            clamp(self.lo as i128 + rhs.lo as i128),
            clamp(self.hi as i128 + rhs.hi as i128),
        )
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;

    /// Interval product: the saturated span of the four corner products,
    /// each exact in `i128` (mixed signs included).
    fn mul(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        let (mut lo, mut hi) = (i128::MAX, i128::MIN);
        for a in [self.lo, self.hi] {
            for b in [rhs.lo, rhs.hi] {
                let v = i128::from(a) * i128::from(b);
                (lo, hi) = (lo.min(v), hi.max(v));
            }
        }
        Interval::new(clamp(lo), clamp(hi))
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

    fn modulus(m: i64) -> NonZeroI64 {
        NonZeroI64::new(m).unwrap()
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
        assert!(e.rem_euclid(modulus(16)).is_empty());
    }

    #[test]
    fn rem_singleton_is_exact() {
        let point = Interval::singleton;
        assert_eq!(point(37).rem_euclid(modulus(16)), point(5));
        assert_eq!(point(-3).rem_euclid(modulus(16)), point(13));
        assert_eq!(point(-3).rem_euclid(modulus(-16)), point(13));
    }

    #[test]
    fn rem_narrow_dividend_is_tight() {
        // [33, 35] mod 16 = [1, 3]
        let narrow = Interval::new(33, 35);
        assert_eq!(narrow.rem_euclid(modulus(16)), Interval::new(1, 3));
        // Wrapping case falls back to [0, 15].
        let wide = Interval::new(30, 35);
        assert_eq!(wide.rem_euclid(modulus(16)), Interval::new(0, 15));
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
    /// `i64` extremes, `mod` by every non-zero extreme: nothing panics, and
    /// the result holds the exact (`i128`) value, saturated to `i64`, at
    /// every sampled point.
    #[test]
    fn no_operator_panics_on_any_endpoint() {
        const ENDS: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
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
            for m in ENDS.into_iter().filter_map(NonZeroI64::new) {
                let result = a.rem_euclid(m);
                for x in points(a) {
                    let exact = i128::from(x).rem_euclid(i128::from(m.get()));
                    let hit = result.contains(clamp(exact));
                    assert!(hit, "{a} mod {m} = {result} misses {x} mod {m}");
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
