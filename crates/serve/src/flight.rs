//! Per-request flight recorder: bounded rings of span trees.
//!
//! Every completed `select` request harvests its trace lane into a
//! [`RequestRecord`] and pushes it here. Three rings, each bounded by
//! the same capacity, answer the three questions an operator asks of a
//! live daemon:
//!
//! * **recent** — the last N requests, in completion order;
//! * **slowest** — the N slowest requests seen so far (an insertion-
//!   sorted top-N, so "why was request X slow" survives long after X
//!   scrolled out of `recent`);
//! * **errors** — the last N requests that did not answer `ok` or
//!   `infeasible`.
//!
//! Records are cloned into every ring they qualify for; capacity bounds
//! memory regardless of daemon uptime. The `trace` op renders selected
//! records back into Chrome `trace_events` via the shared sink.

use eatss_trace::Event;
use std::collections::VecDeque;

/// One completed request, with the events harvested from its lane.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Client correlation id, when the request carried one.
    pub id: Option<String>,
    /// Kernel name (or `"<source>"` for inline programs).
    pub kernel: String,
    /// Trace lane the request's spans were recorded under.
    pub lane: u64,
    /// Wire outcome: `ok`, `infeasible`, `error`, `overloaded`,
    /// `shutting_down`.
    pub outcome: String,
    /// Cache disposition: `hit`, `miss`, `coalesced`, or `none`.
    pub cache: String,
    /// End-to-end request latency in microseconds.
    pub dur_us: u64,
    /// The request's span tree (Begin/End/Instant events, seq-sorted).
    pub events: Vec<Event>,
}

impl RequestRecord {
    /// Whether the request belongs in the error ring.
    fn is_error(&self) -> bool {
        self.outcome != "ok" && self.outcome != "infeasible"
    }
}

/// Which ring a `trace` op reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceWhich {
    /// Last N completed requests.
    Recent,
    /// Top-N slowest requests.
    Slowest,
    /// Last N non-`ok`/`infeasible` requests.
    Errors,
}

impl TraceWhich {
    /// Parses the wire name (`recent`/`slowest`/`errors`).
    pub fn parse(s: &str) -> Option<TraceWhich> {
        match s {
            "recent" => Some(TraceWhich::Recent),
            "slowest" => Some(TraceWhich::Slowest),
            "errors" => Some(TraceWhich::Errors),
            _ => None,
        }
    }
}

/// The bounded rings. One per server, behind a mutex — pushes happen
/// once per request *after* the response is written, off the latency
/// path.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    recent: VecDeque<RequestRecord>,
    /// Sorted by `dur_us` descending; truncated at `cap`.
    slowest: Vec<RequestRecord>,
    errors: VecDeque<RequestRecord>,
}

impl FlightRecorder {
    /// Rings retaining up to `cap` records each (min 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            recent: VecDeque::with_capacity(cap),
            slowest: Vec::with_capacity(cap),
            errors: VecDeque::new(),
        }
    }

    /// Records a completed request in every ring it qualifies for.
    pub fn push(&mut self, record: RequestRecord) {
        if record.is_error() {
            if self.errors.len() == self.cap {
                self.errors.pop_front();
            }
            self.errors.push_back(record.clone());
        }
        if self.slowest.len() < self.cap
            || record.dur_us > self.slowest.last().map_or(0, |r| r.dur_us)
        {
            let at = self.slowest.partition_point(|r| r.dur_us >= record.dur_us);
            self.slowest.insert(at, record.clone());
            self.slowest.truncate(self.cap);
        }
        if self.recent.len() == self.cap {
            self.recent.pop_front();
        }
        self.recent.push_back(record);
    }

    /// Total requests currently in the `recent` ring.
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// Whether no request has completed yet.
    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }

    /// Copies up to `limit` records from the requested ring: `recent`
    /// and `errors` newest-first, `slowest` slowest-first.
    pub fn select(&self, which: TraceWhich, limit: usize) -> Vec<RequestRecord> {
        match which {
            TraceWhich::Recent => self.recent.iter().rev().take(limit).cloned().collect(),
            TraceWhich::Slowest => self.slowest.iter().take(limit).cloned().collect(),
            TraceWhich::Errors => self.errors.iter().rev().take(limit).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, dur_us: u64, outcome: &str) -> RequestRecord {
        RequestRecord {
            id: Some(id.to_string()),
            kernel: "gemm".to_string(),
            lane: id,
            outcome: outcome.to_string(),
            cache: "miss".to_string(),
            dur_us,
            events: Vec::new(),
        }
    }

    #[test]
    fn rings_stay_bounded_and_ordered() {
        let mut flight = FlightRecorder::new(3);
        for i in 0..10u64 {
            flight.push(record(i, i * 100, "ok"));
        }
        // Recent: last 3, newest first on select.
        let recent = flight.select(TraceWhich::Recent, 10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].id.as_deref(), Some("9"));
        assert_eq!(recent[2].id.as_deref(), Some("7"));
        // Slowest: top 3 by duration, slowest first.
        let slowest = flight.select(TraceWhich::Slowest, 10);
        assert_eq!(
            slowest.iter().map(|r| r.dur_us).collect::<Vec<_>>(),
            vec![900, 800, 700]
        );
        // No errors pushed.
        assert!(flight.select(TraceWhich::Errors, 10).is_empty());
    }

    #[test]
    fn slow_request_survives_recent_eviction() {
        let mut flight = FlightRecorder::new(2);
        flight.push(record(0, 9999, "ok"));
        for i in 1..5u64 {
            flight.push(record(i, 10, "ok"));
        }
        assert!(flight
            .select(TraceWhich::Recent, 10)
            .iter()
            .all(|r| r.dur_us == 10));
        assert_eq!(flight.select(TraceWhich::Slowest, 1)[0].dur_us, 9999);
    }

    #[test]
    fn errors_ring_only_holds_failures() {
        let mut flight = FlightRecorder::new(2);
        flight.push(record(0, 5, "ok"));
        flight.push(record(1, 5, "error"));
        flight.push(record(2, 5, "infeasible"));
        flight.push(record(3, 5, "overloaded"));
        flight.push(record(4, 5, "error"));
        let errors = flight.select(TraceWhich::Errors, 10);
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].id.as_deref(), Some("4"));
        assert_eq!(errors[1].id.as_deref(), Some("3"));
    }

    #[test]
    fn limit_and_which_parse() {
        let mut flight = FlightRecorder::new(8);
        for i in 0..5u64 {
            flight.push(record(i, i, "ok"));
        }
        assert_eq!(flight.select(TraceWhich::Slowest, 2).len(), 2);
        assert_eq!(flight.len(), 5);
        assert!(!flight.is_empty());
        assert_eq!(TraceWhich::parse("recent"), Some(TraceWhich::Recent));
        assert_eq!(TraceWhich::parse("slowest"), Some(TraceWhich::Slowest));
        assert_eq!(TraceWhich::parse("errors"), Some(TraceWhich::Errors));
        assert_eq!(TraceWhich::parse("fastest"), None);
    }
}
