//! Finite variable domains.
//!
//! Every solver variable owns a [`Domain`]: an explicit, sorted set of the
//! integer values it may still take. EATSS variables are tile sizes with at
//! most a few thousand candidate values, so explicit sets are both simple
//! and fast, and make divisibility filtering exact.
//!
//! A domain is a *window* `lo..hi` into a shared, sorted slice of values.
//! Every narrowing the search makes most — a branch to one value, a
//! capacity's cut to a prefix, the incumbent bound's cut to a suffix — is
//! a sub-window of the domain it narrows, so it copies no value; cloning a
//! domain bumps a reference count. Only a narrowing to an arbitrary
//! subsequence ([`Domain::retain`], the search's per-value probe) builds
//! new values.

use crate::Interval;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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
/// assert_eq!(d, Domain::multiples(16, 64));
/// ```
#[derive(Clone)]
pub struct Domain {
    /// Strictly ascending; the domain is `values[window]`.
    values: Arc<[i64]>,
    window: Range<usize>,
}

impl Domain {
    /// The domain of all of `values`, already strictly ascending.
    fn whole(values: Arc<[i64]>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "unsorted domain");
        let window = 0..values.len();
        Domain { values, window }
    }

    /// Domain containing every integer in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if the range holds more than 4,194,304 values; EATSS domains
    /// are always orders of magnitude smaller, so a larger request indicates
    /// a formulation bug.
    pub fn range(lo: i64, hi: i64) -> Self {
        if lo > hi {
            return Domain::whole(Arc::new([]));
        }
        // Counted in i128: `hi - lo` overflows i64 on a wide range.
        let count = i128::from(hi) - i128::from(lo) + 1;
        assert!(
            count <= 1 << 22,
            "domain [{lo}, {hi}] too large to materialize ({count} values)"
        );
        Domain::whole((lo..=hi).collect())
    }

    /// The positive multiples of `step` up to `hi`: `step, 2·step, … ≤ hi`
    /// (empty when `step > hi`). A warp-aligned tile's domain.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive, or on more values than
    /// [`Domain::range`] takes.
    pub fn multiples(step: i64, hi: i64) -> Self {
        assert!(step > 0, "multiples of a non-positive step {step}");
        let count = hi.max(0) / step;
        assert!(
            count <= 1 << 22,
            "domain of {count} multiples of {step} too large to materialize"
        );
        Domain::whole((1..=count).map(|k| k * step).collect())
    }

    /// Domain from an explicit list of values (sorted and deduplicated).
    pub fn from_values(mut values: Vec<i64>) -> Self {
        values.sort_unstable();
        values.dedup();
        Domain::whole(values.into())
    }

    /// Domain from values already strictly ascending — a filter of another
    /// domain keeps its order, so no sort or dedup is needed.
    pub(crate) fn from_sorted(values: &[i64]) -> Self {
        Domain::whole(values.into())
    }

    /// The sub-domain at `positions` of [`Domain::values`]: a narrower
    /// window into the same values, copying none.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is not within `0..self.len()`.
    pub(crate) fn window(&self, positions: Range<usize>) -> Self {
        assert!(
            positions.start <= positions.end && positions.end <= self.len(),
            "window {positions:?} of a domain of {} values",
            self.len()
        );
        let start = self.window.start + positions.start;
        Domain {
            values: Arc::clone(&self.values),
            window: start..start + positions.len(),
        }
    }

    /// Domain holding exactly one value.
    pub fn singleton(v: i64) -> Self {
        Domain::whole(Arc::new([v]))
    }

    /// Number of remaining candidate values.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no values remain (the subproblem is unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Whether exactly one value remains.
    pub fn is_singleton(&self) -> bool {
        self.len() == 1
    }

    /// The single remaining value, if [`Domain::is_singleton`].
    pub fn as_singleton(&self) -> Option<i64> {
        match self.values() {
            &[v] => Some(v),
            _ => None,
        }
    }

    /// The tightest interval containing all remaining values
    /// ([`Interval::empty`] if the domain is empty).
    pub fn hull(&self) -> Interval {
        match (self.values().first(), self.values().last()) {
            (Some(&lo), Some(&hi)) => Interval::new(lo, hi),
            _ => Interval::empty(),
        }
    }

    /// Whether `v` is still a candidate.
    pub fn contains(&self, v: i64) -> bool {
        self.values().binary_search(&v).is_ok()
    }

    /// Keeps only values satisfying `pred`; returns `true` if anything was
    /// removed. A domain that loses nothing keeps its values; one that
    /// does gets new ones.
    pub fn retain(&mut self, mut pred: impl FnMut(&i64) -> bool) -> bool {
        let values = self.values();
        let Some(first_out) = values.iter().position(|v| !pred(v)) else {
            return false;
        };
        let mut kept = values[..first_out].to_vec();
        kept.extend(values[first_out + 1..].iter().filter(|v| pred(v)));
        *self = Domain::from_sorted(&kept);
        true
    }

    /// Iterates over remaining values in ascending order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = i64> + '_ {
        self.values().iter().copied()
    }

    /// All remaining values as a slice.
    pub fn values(&self) -> &[i64] {
        &self.values[self.window.clone()]
    }
}

/// Two domains are equal when they hold the same values, whatever they
/// are windows into.
impl PartialEq for Domain {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Domain {}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Domain")
            .field("values", &self.values())
            .finish()
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values = self.values();
        if values.len() > 8 {
            write!(
                f,
                "{{{}, {}, .. {} values .. , {}}}",
                values[0],
                values[1],
                values.len(),
                values[values.len() - 1]
            )
        } else {
            write!(f, "{values:?}")
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
