//! `--compare A B`: two result sets (files of `--record` lines), one row
//! per (workload, end-to-end metric), judged by the metric's own bound
//! and direction.
//!
//! A row whose run-to-run spread is wider than its bound cannot carry an
//! "unchanged" verdict and is reported `unresolved` — unless every run of
//! B reads better than every run of A. The command fails on any
//! regression and on a higher share of failed ops.

use crate::metrics::{median_f64, MetricDef, ParsedRecord, END_TO_END, PER_LAYER};
use crate::WORKLOADS;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Unresolved,
    Regressed,
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's spread rule). `None` below two values.
fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let at = |i: i64| {
        let (len, steps) = (len as i64, 4);
        let j = (i * (len + 1) / steps).clamp(1, len - 1);
        // Past the clamp `delta` leaves 0..4 and the formula extrapolates,
        // as Python's does.
        let delta = i * (len + 1) - j * steps;
        (sorted[j as usize - 1] * (steps - delta) as f64 + sorted[j as usize] * delta as f64)
            / steps as f64
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    let median = median_f64(&mut sorted);
    match quartiles(&sorted) {
        Some((q1, q3)) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative when better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let median_a = median_f64(&mut a.to_vec());
    let median_b = median_f64(&mut b.to_vec());
    let change = if median_a == 0.0 {
        0.0
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let worse_by = if def.higher_is_better {
        -change
    } else {
        change
    };
    let spread = spread(a).max(spread(b));
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let better = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if b_always_better {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Row {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

fn load(path: &str) -> Result<Vec<ParsedRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| ParsedRecord::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(records)
}

fn values_of(records: &[ParsedRecord], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

fn failed_share(records: &[ParsedRecord], workload: &str) -> f64 {
    let of = |f: fn(&ParsedRecord) -> f64| {
        records
            .iter()
            .filter(|r| r.workload == workload)
            .map(f)
            .sum::<f64>()
    };
    let attempted = of(|r| r.attempted);
    if attempted == 0.0 {
        0.0
    } else {
        of(|r| r.failed) / attempted
    }
}

/// Prints the comparison; `Ok(true)` when B is no worse than A.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = String::new();
    let mut ok = true;
    let reference = |records: &[ParsedRecord]| {
        median_f64(&mut records.iter().map(|r| r.reference_ms).collect::<Vec<_>>())
    };
    let _ = writeln!(
        out,
        "machine.reference_ms  A {:.2}  B {:.2}  (the host's speed during each set; the timings below are already stated against it)",
        reference(&a),
        reference(&b)
    );

    for w in WORKLOADS {
        let (fail_a, fail_b) = (failed_share(&a, w.name), failed_share(&b, w.name));
        let _ = writeln!(
            out,
            "\n== {} ==  failed share A {fail_a:.6}  B {fail_b:.6}",
            w.name
        );
        if fail_b > fail_a {
            ok = false;
            let _ = writeln!(out, "  FAILED-SHARE HIGHER in B");
        }
        for def in &END_TO_END {
            let (va, vb) = (
                values_of(&a, w.name, false, def.name),
                values_of(&b, w.name, false, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row = judge(def, &va, &vb);
            ok &= row.verdict != Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {:<18} A {:>14.6}  B {:>14.6} {:<5} worse by {:>+8.4}  spread {:>7.4}  bound {:>6.3}  n={}/{}  {:?}",
                def.name,
                row.median_a,
                row.median_b,
                def.unit,
                row.worse_by,
                row.spread,
                def.bound.unwrap_or(0.0),
                va.len(),
                vb.len(),
                row.verdict
            );
        }
        // Layer metrics carry no bound: listed for the reader, not judged.
        for def in &PER_LAYER {
            let (mut va, mut vb) = (
                values_of(&a, w.name, true, def.name),
                values_of(&b, w.name, true, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median_f64(&mut va), median_f64(&mut vb));
            let note = if ma == mb { "identical" } else { "" };
            let _ = writeln!(
                out,
                "    {:<32} A {ma:>16.4}  B {mb:>16.4} {:<6} {note}",
                def.name, def.unit
            );
        }
    }
    print!("{out}");
    println!(
        "\n{}",
        if ok {
            "OK: B is no worse than A"
        } else {
            "NOT OK: B regressed against A"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let a = [100.0, 101.0, 99.0, 100.5];
        // Lower is better: +20% is a regression, -20% an improvement.
        assert_eq!(
            judge(&def(false, 0.10), &a, &[120.0, 121.0, 119.0, 120.0]).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&def(false, 0.10), &a, &[80.0, 81.0, 79.0, 80.0]).verdict,
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&def(true, 0.10), &a, &[80.0, 81.0, 79.0, 80.0]).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&def(true, 0.10), &a, &[120.0, 121.0, 119.0, 120.0]).verdict,
            Verdict::Improved
        );
        // Within the bound and steady.
        assert_eq!(
            judge(&def(false, 0.10), &a, &[100.2, 100.9, 99.4, 100.1]).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = [100.0, 140.0, 70.0, 120.0, 90.0];
        let b = [101.0, 135.0, 75.0, 118.0, 88.0];
        let row = judge(&def(false, 0.10), &a, &b);
        assert!(row.spread > 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved);
    }
}
