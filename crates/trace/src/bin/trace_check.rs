//! `trace_check` — validates an emitted trace file. Used by the CI trace
//! smoke job and handy when hacking on the sink.
//!
//! ```text
//! trace_check <file> [--expect CAT:NAME]... \
//!             [--expect-counter NAME]... [--expect-histogram NAME]...
//! ```
//!
//! The file must parse as JSON, contain a non-empty `traceEvents` array
//! of well-formed Chrome `trace_events` entries, and — for each `--expect
//! CAT:NAME` — contain at least one complete (`"X"`) span with that
//! category and name. Each `--expect-counter NAME` must name a registry
//! counter present in the trace as a trailing `"C"` sample. Each
//! `--expect-histogram NAME` must name a histogram (a `"C"` sample
//! carrying `count`/`p50`/`p99`/`max` args) whose quantile estimates are
//! sane: `p50 <= p99 <= max` and a nonzero count.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use eatss_trace::json::Json;

const USAGE: &str = "usage: trace_check <file> [--expect CAT:NAME]... \
                     [--expect-counter NAME]... [--expect-histogram NAME]...";

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("trace_check: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let mut file = None;
    let mut expects: Vec<String> = Vec::new();
    let mut expect_counters: Vec<String> = Vec::new();
    let mut expect_histograms: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--expect" => expects.push(argv.next().ok_or("--expect needs CAT:NAME")?),
            "--expect-counter" => {
                expect_counters.push(argv.next().ok_or("--expect-counter needs NAME")?)
            }
            "--expect-histogram" => {
                expect_histograms.push(argv.next().ok_or("--expect-histogram needs NAME")?)
            }
            "--help" | "-h" => return Ok(USAGE.to_string()),
            _ if file.is_none() => file = Some(arg),
            _ => return Err(format!("unexpected argument '{arg}'")),
        }
    }
    let file = file.ok_or(USAGE)?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("read {file}: {e}"))?;
    check_chrome(&text, &expects, &expect_counters, &expect_histograms)
}

/// `(count, p50, p99, max)` of a histogram found in the trace.
type HistogramSummary = (f64, f64, f64, f64);

fn check_chrome(
    text: &str,
    expects: &[String],
    expect_counters: &[String],
    expect_histograms: &[String],
) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    doc.get("otherData")
        .and_then(|d| d.get("provenance"))
        .and_then(|p| p.get("git_sha"))
        .and_then(Json::as_str)
        .ok_or("missing otherData.provenance.git_sha")?;
    let mut spans: BTreeSet<String> = BTreeSet::new();
    let mut counters: BTreeSet<String> = BTreeSet::new();
    let mut histograms: BTreeMap<String, HistogramSummary> = BTreeMap::new();
    let mut span_count = 0usize;
    for (i, event) in events.iter().enumerate() {
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing ph"))?;
        match ph {
            "X" => {
                let cat = event
                    .get("cat")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i} ({name}): X without cat"))?;
                event
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): X without ts"))?;
                event
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): X without dur"))?;
                spans.insert(format!("{cat}:{name}"));
                span_count += 1;
            }
            "C" => {
                counters.insert(name.to_string());
                let args = event.get("args");
                let field = |key| {
                    args.and_then(|a| a.get(key)).and_then(Json::as_f64)
                };
                if let (Some(count), Some(p50), Some(p99), Some(max)) =
                    (field("count"), field("p50"), field("p99"), field("max"))
                {
                    histograms.insert(name.to_string(), (count, p50, p99, max));
                }
            }
            "i" | "M" => {}
            other => return Err(format!("event {i} ({name}): unexpected ph '{other}'")),
        }
    }
    check_expects(expects, &spans)?;
    check_expected_counters(expect_counters, &counters)?;
    check_expected_histograms(expect_histograms, &histograms)?;
    Ok(format!(
        "ok: {} trace events, {span_count} spans ({} distinct), {} counter(s), {} histogram(s)",
        events.len(),
        spans.len(),
        counters.len(),
        histograms.len()
    ))
}

fn check_expects(expects: &[String], spans: &BTreeSet<String>) -> Result<(), String> {
    for expect in expects {
        if !spans.contains(expect) {
            return Err(format!(
                "expected span '{expect}' not found; present: {}",
                spans.iter().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
    }
    Ok(())
}

fn check_expected_histograms(
    expects: &[String],
    histograms: &BTreeMap<String, HistogramSummary>,
) -> Result<(), String> {
    for expect in expects {
        let Some((count, p50, p99, max)) = histograms.get(expect) else {
            return Err(format!(
                "expected histogram '{expect}' not found; present: {}",
                histograms.keys().cloned().collect::<Vec<_>>().join(", ")
            ));
        };
        if *count < 1.0 {
            return Err(format!("histogram '{expect}': zero observations"));
        }
        if !(p50 <= p99 && p99 <= max) {
            return Err(format!(
                "histogram '{expect}': quantiles not monotone (p50={p50}, p99={p99}, max={max})"
            ));
        }
    }
    Ok(())
}

fn check_expected_counters(expects: &[String], counters: &BTreeSet<String>) -> Result<(), String> {
    for expect in expects {
        if !counters.contains(expect) {
            return Err(format!(
                "expected counter '{expect}' not found; present: {}",
                counters.iter().cloned().collect::<Vec<_>>().join(", ")
            ));
        }
    }
    Ok(())
}
