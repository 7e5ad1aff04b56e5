//! Global metrics registry: named monotonic counters, last-write
//! gauges and log-2 latency histograms. `BTreeMap` keys give every
//! snapshot a canonical order, so registry contents are deterministic
//! even under parallel sweeps (counter addition commutes; gauges are
//! only written from deterministic single-writer sites; histogram
//! buckets commute like counters).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::histogram::{self, HistogramSnapshot};
use crate::json::{escape, number};

static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());

/// Adds `delta` to the named counter. No-op while collection is disabled
/// (the registry belongs to the active trace session).
pub fn counter_add(name: &str, delta: u64) {
    if delta == 0 || !crate::collecting() {
        return;
    }
    *COUNTERS.lock().unwrap().entry(name.to_string()).or_insert(0) += delta;
}

/// Sets the named gauge to `value`. No-op while collection is disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::collecting() {
        return;
    }
    GAUGES.lock().unwrap().insert(name.to_string(), value);
}

/// A point-in-time copy of the registry, in canonical (sorted) key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters (`smt.nodes`, `sweep.fallbacks`, …).
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Log-2 latency histograms with at least one observation
    /// (`serve.solve_us`, `smt.maximize_us`, …).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, treating "never incremented" as 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name, when it recorded anything.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Serializes the whole registry as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`. Each
    /// histogram carries its count, p50/p90/p99/max estimates (bucket
    /// upper bounds — see [`mod@crate::histogram`]) and its occupied
    /// `[lo, hi, count]` buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), value);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), number(*value));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, snap)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"buckets\":[",
                escape(name),
                snap.count(),
                snap.quantile(0.5),
                snap.quantile(0.9),
                snap.quantile(0.99),
                snap.max()
            );
            for (j, (lo, hi, n)) in snap.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{hi},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Prometheus-style text exposition. Counters and gauges become
    /// typed samples; histograms become cumulative `_bucket{le="…"}`
    /// samples plus `_count` and summary-style `{quantile="…"}` lines.
    /// There is no `_sum` series — the recorder keeps to one atomic add
    /// per observation, so sums are not tracked.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", number(*value));
        }
        for (name, snap) in &self.histograms {
            let name = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (_, hi, n) in snap.nonzero_buckets() {
                cumulative += n;
                let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_count {cumulative}");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", snap.quantile(q));
            }
        }
        out
    }
}

/// Maps a registry name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Copies the current registry contents without resetting them.
pub fn metrics_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: COUNTERS.lock().unwrap().clone(),
        gauges: GAUGES.lock().unwrap().clone(),
        histograms: histogram::snapshot_all(),
    }
}

pub(crate) fn snapshot_and_reset() -> MetricsSnapshot {
    let snapshot = MetricsSnapshot {
        counters: std::mem::take(&mut *COUNTERS.lock().unwrap()),
        gauges: std::mem::take(&mut *GAUGES.lock().unwrap()),
        histograms: histogram::snapshot_all(),
    };
    histogram::reset_all();
    snapshot
}

pub(crate) fn reset() {
    COUNTERS.lock().unwrap().clear();
    GAUGES.lock().unwrap().clear();
    histogram::reset_all();
}
