//! Closed integer intervals: the hull of a domain, and the range of a
//! row over such hulls.
//!
//! A row pass ([`crate::row`]) reads each variable's hull and returns the
//! row's interval, saturated to the `i64` range; over singleton hulls that
//! is the row's value at a point — the search's leaf check and the warm
//! start's hint check alike.

use std::fmt;

/// A closed integer interval `[lo, hi]`.
///
/// The empty interval is represented by `lo > hi` and can be obtained from
/// [`Interval::empty`].
///
/// # Examples
///
/// ```
/// use eatss_smt::{Domain, Interval};
///
/// let hull = Domain::from_values(vec![16, 48, 32]).hull();
/// assert_eq!(hull, Interval::new(16, 48));
/// assert_eq!((hull.lo(), hull.hi()), (16, 48));
/// assert!(Domain::from_values(vec![]).hull().is_empty());
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
