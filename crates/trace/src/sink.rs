//! Trace output: run provenance, the drained [`Trace`] container, and its
//! serializer (Chrome `trace_events`/Perfetto).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::event::{ArgValue, Event, EventKind};
use crate::json::{escape, number};
use crate::metrics::MetricsSnapshot;

/// Run provenance stamped into trace headers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working tree, or `"unknown"`.
    pub git_sha: String,
    /// `rustc --version` of the compiler that built the binary.
    pub rustc_version: String,
    /// `std::thread::available_parallelism()` at run time.
    pub threads: usize,
    /// The `--jobs` setting, when the producing tool has one.
    pub jobs: Option<usize>,
}

impl Provenance {
    /// Captures provenance for the current process. `jobs` is the
    /// producing tool's `--jobs` setting (`None` when it has no such
    /// knob). The git SHA can be pinned via `EATSS_GIT_SHA` (useful in
    /// CI or outside a checkout); otherwise `git rev-parse HEAD` is
    /// consulted, falling back to `"unknown"`.
    pub fn collect(jobs: Option<usize>) -> Provenance {
        let git_sha = std::env::var("EATSS_GIT_SHA")
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| {
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .output()
                    .ok()
                    .filter(|out| out.status.success())
                    .and_then(|out| String::from_utf8(out.stdout).ok())
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            git_sha,
            rustc_version: env!("EATSS_RUSTC_VERSION").to_string(),
            threads: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            jobs,
        }
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> String {
        let jobs = match self.jobs {
            Some(j) => j.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"git_sha\":\"{}\",\"rustc_version\":\"{}\",\"threads\":{},\"jobs\":{}}}",
            escape(&self.git_sha),
            escape(&self.rustc_version),
            self.threads,
            jobs
        )
    }
}

/// A drained collection session: canonically ordered events, the metrics
/// snapshot, and run provenance. Produced by [`crate::drain`].
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Who/what produced this trace.
    pub provenance: Provenance,
    /// Events sorted by `(lane, seq)`.
    pub events: Vec<Event>,
    /// Final registry contents.
    pub metrics: MetricsSnapshot,
}

impl Trace {
    /// Writes the [Chrome document](Trace::to_chrome_json) to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Chrome `trace_events` serialization. Spans become complete (`"X"`)
    /// events, instants become `"i"` events, lanes become named threads
    /// of a single `eatss` process, and registry counters/gauges/
    /// histograms become trailing counter (`"C"`) samples (histograms
    /// carry `count`/`p50`/`p90`/`p99`/`max` args). The result opens
    /// directly in `ui.perfetto.dev` or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        self.chrome_json(",\n", "[\n", "\n]", "\n")
    }

    /// [`Trace::to_chrome_json`] without any newlines — a single line
    /// embeddable as a raw value in JSON-lines protocols (the daemon's
    /// `trace` op). Same document, byte-for-byte, modulo whitespace.
    pub fn to_chrome_json_compact(&self) -> String {
        self.chrome_json(",", "[", "]", "")
    }

    fn chrome_json(&self, sep: &str, open: &str, close: &str, tail: &str) -> String {
        let mut entries: Vec<String> = Vec::new();
        entries.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"eatss\"}}"
                .to_string(),
        );
        let lanes: BTreeSet<u64> = self.events.iter().map(|e| e.lane).collect();
        for lane in &lanes {
            let label = if *lane == 0 {
                "main".to_string()
            } else {
                format!("lane-{lane}")
            };
            entries.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"{label}\"}}}}"
            ));
        }
        let mut last_ts = 0u64;
        for event in &self.events {
            last_ts = last_ts.max(event.ts_us);
            match &event.kind {
                // "X" complete events are self-contained (ts + dur), so
                // Begin events carry no extra information for this sink.
                EventKind::Begin { .. } => {}
                EventKind::End { dur_us, .. } => {
                    let start = event.ts_us.saturating_sub(*dur_us);
                    entries.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                        escape(&event.name),
                        escape(event.cat),
                        start,
                        dur_us,
                        event.lane,
                        args_json(&event.args)
                    ));
                }
                EventKind::Instant { .. } => {
                    entries.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{}}}",
                        escape(&event.name),
                        escape(event.cat),
                        event.ts_us,
                        event.lane,
                        args_json(&event.args)
                    ));
                }
            }
        }
        for (name, value) in &self.metrics.counters {
            entries.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{}}}}}",
                escape(name),
                last_ts,
                value
            ));
        }
        for (name, value) in &self.metrics.gauges {
            entries.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{}}}}}",
                escape(name),
                last_ts,
                number(*value)
            ));
        }
        for (name, snap) in &self.metrics.histograms {
            entries.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":0,\"args\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}}}",
                escape(name),
                last_ts,
                snap.count(),
                snap.quantile(0.5),
                snap.quantile(0.9),
                snap.quantile(0.99),
                snap.max()
            ));
        }
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"provenance\":");
        out.push_str(&self.provenance.to_json());
        out.push_str("},\"traceEvents\":");
        out.push_str(open);
        out.push_str(&entries.join(sep));
        out.push_str(close);
        out.push('}');
        out.push_str(tail);
        out
    }

    /// The structural signature of the trace: one `lane|cat|name|phase`
    /// entry per event, in canonical order. Timestamps, durations and ids
    /// are excluded — this is exactly what the determinism guarantee
    /// covers (parallel sweeps must produce the same signature as
    /// sequential ones).
    pub fn signature(&self) -> Vec<String> {
        self.events
            .iter()
            .map(|e| format!("{}|{}|{}|{}", e.lane, e.cat, e.name, e.kind.code()))
            .collect()
    }

    /// Distinct `(cat, name)` pairs of all spans in the trace.
    pub fn span_names(&self) -> BTreeSet<(String, String)> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::End { .. }))
            .map(|e| (e.cat.to_string(), e.name.clone()))
            .collect()
    }

    /// Checks span begin/end balance: within each lane (in canonical
    /// order) every `End` must close the innermost open `Begin`, and no
    /// span may be left open. Returns a description of the first
    /// violation.
    pub fn check_balance(&self) -> Result<(), String> {
        let mut events: Vec<&Event> = self.events.iter().collect();
        events.sort_by_key(|e| (e.lane, e.seq));
        let mut open: Vec<(u64, Vec<u64>)> = Vec::new(); // (lane, stack)
        for event in events {
            let at = match open.iter().position(|(lane, _)| *lane == event.lane) {
                Some(at) => at,
                None => {
                    open.push((event.lane, Vec::new()));
                    open.len() - 1
                }
            };
            let stack = &mut open[at].1;
            match &event.kind {
                EventKind::Begin { id, .. } => stack.push(*id),
                EventKind::End { id, .. } => match stack.pop() {
                    Some(top) if top == *id => {}
                    Some(top) => {
                        return Err(format!(
                            "lane {}: end of span {id} ({}) but innermost open span is {top}",
                            event.lane, event.name
                        ));
                    }
                    None => {
                        return Err(format!(
                            "lane {}: end of span {id} ({}) with no open span",
                            event.lane, event.name
                        ));
                    }
                },
                EventKind::Instant { .. } => {}
            }
        }
        for (lane, stack) in &open {
            if !stack.is_empty() {
                return Err(format!("lane {lane}: {} span(s) left open", stack.len()));
            }
        }
        Ok(())
    }
}

fn args_json(args: &[(&'static str, ArgValue)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape(key));
        match value {
            ArgValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Float(v) => out.push_str(&number(*v)),
            ArgValue::Str(v) => {
                let _ = write!(out, "\"{}\"", escape(v));
            }
            ArgValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
    out.push('}');
    out
}
