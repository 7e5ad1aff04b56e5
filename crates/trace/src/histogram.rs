//! Lock-free fixed-bucket log-2 latency histograms.
//!
//! A [`Histogram`] is 65 `AtomicU64` buckets: bucket 0 counts the value
//! 0, bucket `b` (1..=64) counts values whose bit length is `b`, i.e.
//! `2^(b-1) ..= 2^b - 1`. Recording is **one relaxed atomic add** — no
//! locks, no allocation, no clock reads — so call sites on the request
//! hot path pay the same budget as a disabled span: one relaxed load
//! (the [`crate::collecting`] gate) plus one `fetch_add`.
//!
//! # Error bounds
//!
//! Quantile estimates are the **upper bound of the bucket containing the
//! true rank**: for a true quantile value `v ≥ 1` the estimate `e`
//! satisfies `v ≤ e < 2·v` (one log-2 bucket), and `e = 0` exactly when
//! `v = 0`. Estimates are therefore monotone by construction
//! (p50 ≤ p90 ≤ p99 ≤ max). There is deliberately no `sum` field — it
//! would cost a second atomic on the hot path.
//!
//! Named histograms live in a process-global registry next to the
//! counter/gauge registry: [`histogram`] interns a name once (one lock)
//! and hands back a `&'static Histogram` that call sites cache, so the
//! registry lock is never on the hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bucket count: one for zero plus one per possible `u64` bit length.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free log-2 histogram. See the module docs for the bucket
/// scheme and error bounds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket a value lands in: its bit length (0 for the value 0).
#[inline]
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive `(lo, hi)` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        (0, 0)
    } else if index >= 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (index - 1), (1 << index) - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation. **One relaxed atomic add**; a no-op
    /// while collection is disabled (same contract as counters).
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::collecting() {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets (relaxed loads: exact once
    /// concurrent recorders have quiesced, never torn per-bucket).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// An immutable copy of a [`Histogram`]'s buckets with quantile
/// estimation. The error bounds are documented on the module.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket counts, index = bit length of the value (see
    /// [`bucket_bounds`]). Always [`HISTOGRAM_BUCKETS`] long when taken
    /// from a live histogram; `Default` is empty.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated value at quantile `q` (clamped to `[0, 1]`): the upper
    /// bound of the bucket holding rank `ceil(q · count)`. 0 when empty.
    /// For a true quantile `v ≥ 1` the estimate `e` satisfies
    /// `v ≤ e < 2·v`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bucket_bounds(index).1;
            }
        }
        bucket_bounds(self.buckets.len().saturating_sub(1)).1
    }

    /// Upper bound of the highest occupied bucket (0 when empty).
    /// Equals `quantile(1.0)`.
    pub fn max(&self) -> u64 {
        match self.buckets.iter().rposition(|&n| n > 0) {
            Some(index) => bucket_bounds(index).1,
            None => 0,
        }
    }

    /// The occupied buckets as `(lo, hi, count)` triples, in value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, n)
            })
    }
}

static HISTOGRAMS: Mutex<BTreeMap<String, &'static Histogram>> = Mutex::new(BTreeMap::new());

/// Interns `name` in the global registry (allocating its histogram on
/// first use) and returns a `'static` handle. Cache the handle at hot
/// call sites — the lookup takes the registry lock, `record` never does.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut registry = crate::lock(&HISTOGRAMS);
    if let Some(h) = registry.get(name).copied() {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    registry.insert(name.to_string(), h);
    h
}

/// Snapshots every registered histogram with at least one observation,
/// in canonical name order.
pub(crate) fn snapshot_all() -> BTreeMap<String, HistogramSnapshot> {
    crate::lock(&HISTOGRAMS)
        .iter()
        .filter_map(|(name, h)| {
            let snap = h.snapshot();
            (snap.count() > 0).then(|| (name.clone(), snap))
        })
        .collect()
}

/// Zeroes every registered histogram's buckets. Registrations (the
/// leaked allocations and cached handles) stay valid across sessions.
pub(crate) fn reset_all() {
    for h in crate::lock(&HISTOGRAMS).values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.nonzero_buckets().count(), 0);
    }
}
