//! Closed integer intervals with saturating non-linear arithmetic.
//!
//! Intervals are the solver's one evaluator: every integer expression is
//! evaluated to an [`Interval`] that is guaranteed to contain the
//! expression's value under every assignment drawn from the current
//! variable domains. Over singleton hulls that is point evaluation — the
//! search's leaf check and [`Model::eval`](crate::Model::eval) alike.

use std::fmt;

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

    /// The whole `i64` range: any value at all. It is also what a `div` or
    /// `mod` by a divisor that may be zero yields — an undefined value is
    /// any value.
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

    /// Interval of Euclidean division `self div rhs`.
    ///
    /// If `rhs` may be zero the result is [`Interval::top`]: the quotient
    /// is undefined there, and an undefined value is any value. (A
    /// [`Model`](crate::Model) reads a result that is not a single value as
    /// [`SolveError::DivisionByZero`](crate::SolveError::DivisionByZero).)
    pub fn div_euclid(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        if rhs.contains(0) {
            return Interval::top();
        }
        // rhs is entirely positive or entirely negative; the extrema of a
        // monotone-by-parts function lie on corner combinations. Euclidean
        // division is monotone in the dividend for fixed divisor, and the
        // divisor extremes bound the quotient magnitude.
        self.corners(rhs, i128::div_euclid)
    }

    /// The saturated span of `op` over the four corner pairs, each computed
    /// exactly in `i128` (`MIN div -1` is `2^63`) — the whole image when
    /// `op`'s extrema over the box lie on its corners.
    fn corners(self, rhs: Interval, op: impl Fn(i128, i128) -> i128) -> Interval {
        let (mut lo, mut hi) = (i128::MAX, i128::MIN);
        for a in [self.lo, self.hi] {
            for b in [rhs.lo, rhs.hi] {
                let v = op(a.into(), b.into());
                (lo, hi) = (lo.min(v), hi.max(v));
            }
        }
        Interval::new(clamp(lo), clamp(hi))
    }

    /// Interval of Euclidean remainder `self mod rhs`.
    ///
    /// [`Interval::top`] if `rhs` may be zero, as for
    /// [`Interval::div_euclid`]. Otherwise the result is within
    /// `[0, max|rhs| - 1]`; when both operands are singletons the remainder
    /// is exact, and when the dividend interval spans fewer values than the
    /// (singleton) modulus and does not wrap, the tight sub-range is
    /// returned.
    pub fn rem_euclid(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        if rhs.contains(0) {
            return Interval::top();
        }
        // `|MIN|` is `2^63`: moduli are taken in `i128`, and every
        // remainder below one fits an `i64`.
        let (lo, hi) = (i128::from(self.lo), i128::from(self.hi));
        let m_max = i128::from(rhs.lo).abs().max(i128::from(rhs.hi).abs());
        if rhs.is_singleton() {
            let r_lo = lo.rem_euclid(m_max);
            let r_hi = hi.rem_euclid(m_max);
            if hi - lo < m_max && r_lo <= r_hi {
                return Interval::new(r_lo as i64, r_hi as i64);
            }
        }
        Interval::new(0, clamp(m_max - 1))
    }

    /// Pointwise minimum.
    pub fn min(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        Interval::new(self.lo.min(rhs.lo), self.hi.min(rhs.hi))
    }

    /// Pointwise maximum.
    pub fn max(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        Interval::new(self.lo.max(rhs.lo), self.hi.max(rhs.hi))
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

impl std::ops::Sub for Interval {
    type Output = Interval;

    /// Interval difference.
    fn sub(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        Interval::new(
            clamp(self.lo as i128 - rhs.hi as i128),
            clamp(self.hi as i128 - rhs.lo as i128),
        )
    }
}

impl std::ops::Neg for Interval {
    type Output = Interval;

    /// Interval negation.
    fn neg(self) -> Interval {
        if self.is_empty() {
            return Interval::empty();
        }
        Interval::new(clamp(-i128::from(self.hi)), clamp(-i128::from(self.lo)))
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;

    /// Interval product (handles mixed signs via the four corner
    /// products).
    fn mul(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::empty();
        }
        self.corners(rhs, |a, b| a * b)
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

    #[test]
    fn add_and_sub_are_exact_on_small_intervals() {
        let a = Interval::new(1, 3);
        let b = Interval::new(-2, 4);
        assert_eq!(a + b, Interval::new(-1, 7));
        assert_eq!(a - b, Interval::new(-3, 5));
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
        assert!((-e).is_empty());
    }

    #[test]
    fn div_by_interval_containing_zero_is_top() {
        let a = Interval::new(10, 20);
        assert_eq!(Interval::top(), Interval::new(i64::MIN, i64::MAX));
        for b in [Interval::new(-1, 1), Interval::singleton(0)] {
            assert_eq!(a.div_euclid(b), Interval::top());
            assert_eq!(a.rem_euclid(b), Interval::top());
        }
    }

    #[test]
    fn div_positive_is_tight_on_corners() {
        let a = Interval::new(10, 21);
        let b = Interval::new(2, 5);
        assert_eq!(a.div_euclid(b), Interval::new(2, 10));
    }

    #[test]
    fn rem_singleton_is_exact() {
        assert_eq!(
            Interval::singleton(37).rem_euclid(Interval::singleton(16)),
            Interval::singleton(5)
        );
        assert_eq!(
            Interval::singleton(-3).rem_euclid(Interval::singleton(16)),
            Interval::singleton(13)
        );
    }

    #[test]
    fn rem_narrow_dividend_is_tight() {
        // [33, 35] mod 16 = [1, 3]
        assert_eq!(
            Interval::new(33, 35).rem_euclid(Interval::singleton(16)),
            Interval::new(1, 3)
        );
        // Wrapping case falls back to [0, 15].
        assert_eq!(
            Interval::new(30, 35).rem_euclid(Interval::singleton(16)),
            Interval::new(0, 15)
        );
    }

    #[test]
    fn saturation_does_not_panic() {
        let max = Interval::singleton(i64::MAX);
        let a = Interval::singleton(i64::MAX / 8);
        assert_eq!(a * a, max);
        assert_eq!(max + max, max);
        assert_eq!(-max - max, Interval::singleton(i64::MIN));
        assert_eq!(-Interval::singleton(i64::MIN), max);
    }

    /// Every operator over every interval with endpoints drawn from the
    /// `i64` extremes: nothing panics, and the result holds the exact
    /// (`i128`) value, saturated to `i64`, at every sampled point.
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
        type Exact = fn(i128, i128) -> Option<i128>;
        let ops: [(&str, Op, Exact); 8] = [
            ("+", |a, b| a + b, i128::checked_add),
            ("-", |a, b| a - b, i128::checked_sub),
            ("*", |a, b| a * b, i128::checked_mul),
            ("div", Interval::div_euclid, i128::checked_div_euclid),
            ("mod", Interval::rem_euclid, i128::checked_rem_euclid),
            ("min", Interval::min, |x, y| Some(x.min(y))),
            ("max", Interval::max, |x, y| Some(x.max(y))),
            ("neg-of-left", |a, _| -a, |x, _| Some(-x)),
        ];
        for &a in &intervals {
            for &b in &intervals {
                for (name, op, exact) in ops {
                    let result = op(a, b);
                    for (x, y) in points(a).flat_map(|x| points(b).map(move |y| (x, y))) {
                        if let Some(v) = exact(x.into(), y.into()) {
                            let hit = result.contains(clamp(v));
                            assert!(hit, "{a} {name} {b} = {result} misses {x} {name} {y}");
                        }
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

    #[test]
    fn min_max_are_pointwise() {
        let a = Interval::new(1, 10);
        let b = Interval::new(4, 6);
        assert_eq!(a.min(b), Interval::new(1, 6));
        assert_eq!(a.max(b), Interval::new(4, 10));
    }
}
