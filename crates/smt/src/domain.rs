//! Finite variable domains.
//!
//! Every solver variable owns a [`Domain`]: an explicit, sorted set of the
//! integer values it may still take. EATSS variables are tile sizes with at
//! most a few thousand candidate values, so explicit sets are both simple
//! and fast, and make divisibility filtering exact.

use crate::Interval;
use std::fmt;

/// A finite, sorted set of candidate values for one variable.
///
/// # Examples
///
/// ```
/// use eatss_smt::Domain;
///
/// let mut d = Domain::range(1, 64);
/// d.retain(|v| v % 16 == 0);
/// assert_eq!(d.iter().collect::<Vec<_>>(), vec![16, 32, 48, 64]);
/// assert_eq!(d.hull().lo(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    values: Vec<i64>,
}

impl Domain {
    /// Domain containing every integer in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if the range holds more than 4,194,304 values; EATSS domains
    /// are always orders of magnitude smaller, so a larger request indicates
    /// a formulation bug.
    pub fn range(lo: i64, hi: i64) -> Self {
        if lo > hi {
            return Domain { values: Vec::new() };
        }
        // Counted in i128: `hi - lo` overflows i64 on a wide range.
        let count = i128::from(hi) - i128::from(lo) + 1;
        assert!(
            count <= 1 << 22,
            "domain [{lo}, {hi}] too large to materialize ({count} values)"
        );
        Domain {
            values: (lo..=hi).collect(),
        }
    }

    /// Domain from an explicit list of values (sorted and deduplicated).
    pub fn from_values(mut values: Vec<i64>) -> Self {
        values.sort_unstable();
        values.dedup();
        Domain { values }
    }

    /// Domain holding exactly one value.
    pub fn singleton(v: i64) -> Self {
        Domain { values: vec![v] }
    }

    /// Number of remaining candidate values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no values remain (the subproblem is unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether exactly one value remains.
    pub fn is_singleton(&self) -> bool {
        self.values.len() == 1
    }

    /// The single remaining value, if [`Domain::is_singleton`].
    pub fn as_singleton(&self) -> Option<i64> {
        if self.values.len() == 1 {
            Some(self.values[0])
        } else {
            None
        }
    }

    /// The tightest interval containing all remaining values
    /// ([`Interval::empty`] if the domain is empty).
    pub fn hull(&self) -> Interval {
        match (self.values.first(), self.values.last()) {
            (Some(&lo), Some(&hi)) => Interval::new(lo, hi),
            _ => Interval::empty(),
        }
    }

    /// Whether `v` is still a candidate.
    pub fn contains(&self, v: i64) -> bool {
        self.values.binary_search(&v).is_ok()
    }

    /// Keeps only values satisfying `pred`; returns `true` if anything was
    /// removed.
    pub fn retain(&mut self, pred: impl FnMut(&i64) -> bool) -> bool {
        let before = self.values.len();
        let mut pred = pred;
        self.values.retain(|v| pred(v));
        self.values.len() != before
    }

    /// Iterates over remaining values in ascending order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = i64> + '_ {
        self.values.iter().copied()
    }

    /// All remaining values as a slice.
    pub fn values(&self) -> &[i64] {
        &self.values
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.values.len() > 8 {
            write!(
                f,
                "{{{}, {}, .. {} values .. , {}}}",
                self.values[0],
                self.values[1],
                self.values.len(),
                self.values[self.values.len() - 1]
            )
        } else {
            write!(f, "{:?}", self.values)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_materializes_inclusive_bounds() {
        let d = Domain::range(3, 5);
        assert_eq!(d.values(), &[3, 4, 5]);
        assert!(Domain::range(5, 3).is_empty());
        assert_eq!(Domain::range(i64::MAX, i64::MAX).values(), &[i64::MAX]);
    }

    #[test]
    #[should_panic(expected = "too large to materialize")]
    fn a_range_wider_than_i64_hits_the_size_assertion() {
        // `0 - i64::MIN` overflows i64; the size assertion is the only panic.
        Domain::range(i64::MIN, 0);
    }

    #[test]
    fn from_values_sorts_and_dedups() {
        let d = Domain::from_values(vec![5, 1, 3, 3, 1]);
        assert_eq!(d.values(), &[1, 3, 5]);
    }

    #[test]
    fn hull_is_tight() {
        let d = Domain::from_values(vec![4, 9, 16]);
        assert_eq!(d.hull(), Interval::new(4, 16));
        assert!(Domain::from_values(vec![]).hull().is_empty());
    }

    #[test]
    fn singleton_accessors() {
        let d = Domain::singleton(42);
        assert!(d.is_singleton());
        assert_eq!(d.as_singleton(), Some(42));
        assert!(d.contains(42));
        assert!(!d.contains(41));
    }

    #[test]
    fn display_elides_large_domains() {
        let d = Domain::range(0, 100);
        let shown = d.to_string();
        assert!(shown.contains("101 values"));
        let small = Domain::range(0, 3);
        assert_eq!(small.to_string(), "[0, 1, 2, 3]");
    }
}
