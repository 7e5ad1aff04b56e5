//! Trace-layer invariants: span balance/nesting, lane-canonical merging,
//! metrics registry semantics, and the golden-file check for the sink.
//!
//! The collector is process-global, so every test that records events
//! takes `SESSION` first.

use std::sync::Mutex;

use eatss_trace::json::Json;
use eatss_trace::{
    ArgValue, Event, EventKind, HistogramSnapshot, Level, MetricsSnapshot, Provenance, Trace,
};

static SESSION: Mutex<()> = Mutex::new(());

fn test_provenance() -> Provenance {
    Provenance {
        git_sha: "deadbeef".to_string(),
        rustc_version: "rustc 1.0.0-test".to_string(),
        threads: 4,
        jobs: Some(2),
    }
}

#[test]
fn spans_balance_and_nest() {
    let _session = SESSION.lock().unwrap();
    eatss_trace::start_collecting();
    {
        let mut outer = eatss_trace::span("t", "outer");
        outer.arg("k", 1i64);
        {
            let _inner = eatss_trace::span("t", "inner");
        }
        {
            let _inner2 = eatss_trace::span("t", "inner2");
        }
    }
    let trace = eatss_trace::drain(test_provenance());
    trace.check_balance().expect("balanced");
    // Begin events record the enclosing span as parent.
    let mut begins = trace.events.iter().filter_map(|e| match &e.kind {
        EventKind::Begin { id, parent } => Some((e.name.clone(), *id, *parent)),
        _ => None,
    });
    let (outer_name, outer_id, outer_parent) = begins.next().unwrap();
    assert_eq!(outer_name, "outer");
    assert_eq!(outer_parent, 0);
    let (inner_name, _, inner_parent) = begins.next().unwrap();
    assert_eq!(inner_name, "inner");
    assert_eq!(inner_parent, outer_id);
    let (inner2_name, _, inner2_parent) = begins.next().unwrap();
    assert_eq!(inner2_name, "inner2");
    assert_eq!(inner2_parent, outer_id);
    // Ends close innermost-first: inner, inner2, outer.
    let ends: Vec<&str> = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::End { .. }))
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(ends, ["inner", "inner2", "outer"]);
    // The outer End carries its args.
    let outer_end = trace
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::End { .. }) && e.name == "outer")
        .unwrap();
    assert_eq!(outer_end.args, vec![("k", ArgValue::Int(1))]);
}

#[test]
fn unbalanced_traces_are_detected() {
    let begin = Event {
        seq: 0,
        lane: 0,
        ts_us: 0,
        cat: "t",
        name: "open".to_string(),
        args: Vec::new(),
        kind: EventKind::Begin { id: 7, parent: 0 },
    };
    let dangling = Trace {
        provenance: test_provenance(),
        events: vec![begin.clone()],
        metrics: MetricsSnapshot::default(),
    };
    assert!(dangling.check_balance().is_err());

    let wrong_end = Event {
        seq: 1,
        lane: 0,
        ts_us: 5,
        cat: "t",
        name: "other".to_string(),
        args: Vec::new(),
        kind: EventKind::End { id: 9, dur_us: 5 },
    };
    let mismatched = Trace {
        provenance: test_provenance(),
        events: vec![begin, wrong_end],
        metrics: MetricsSnapshot::default(),
    };
    assert!(mismatched.check_balance().is_err());
}

#[test]
fn disabled_collection_records_nothing() {
    let _session = SESSION.lock().unwrap();
    assert!(!eatss_trace::collecting());
    {
        let mut span = eatss_trace::span("t", "ghost");
        assert!(!span.is_active());
        span.arg("k", 1i64);
    }
    eatss_trace::instant("t", "ghost", Vec::new());
    eatss_trace::counter_add("t.ghost", 3);
    eatss_trace::start_collecting();
    let trace = eatss_trace::drain(test_provenance());
    assert!(trace.events.is_empty());
    assert!(trace.metrics.counters.is_empty());
}

#[test]
fn lanes_merge_in_canonical_order_regardless_of_thread_timing() {
    let _session = SESSION.lock().unwrap();
    eatss_trace::start_collecting();
    // Lane 2 records first in wall-clock order; lane 1 must still sort first.
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let _lane = eatss_trace::lane_scope(2);
                let _span = eatss_trace::span("t", "late-lane");
            })
            .join()
            .unwrap();
        scope
            .spawn(|| {
                let _lane = eatss_trace::lane_scope(1);
                let _span = eatss_trace::span("t", "early-lane");
            })
            .join()
            .unwrap();
    });
    let trace = eatss_trace::drain(test_provenance());
    trace.check_balance().expect("balanced");
    assert_eq!(
        trace.signature(),
        [
            "1|t|early-lane|B",
            "1|t|early-lane|E",
            "2|t|late-lane|B",
            "2|t|late-lane|E"
        ]
    );
}

#[test]
fn lane_scope_restores_previous_lane() {
    assert_eq!(eatss_trace::current_lane(), 0);
    {
        let _outer = eatss_trace::lane_scope(3);
        assert_eq!(eatss_trace::current_lane(), 3);
        {
            let _inner = eatss_trace::lane_scope(5);
            assert_eq!(eatss_trace::current_lane(), 5);
        }
        assert_eq!(eatss_trace::current_lane(), 3);
    }
    assert_eq!(eatss_trace::current_lane(), 0);
}

#[test]
fn metrics_registry_accumulates_and_snapshots_canonically() {
    let _session = SESSION.lock().unwrap();
    eatss_trace::start_collecting();
    eatss_trace::counter_add("b.second", 2);
    eatss_trace::counter_add("a.first", 1);
    eatss_trace::counter_add("a.first", 4);
    eatss_trace::gauge_set("g.ratio", 0.5);
    eatss_trace::gauge_set("g.ratio", 0.75);
    let live = eatss_trace::metrics_snapshot();
    assert_eq!(live.counter("a.first"), 5);
    let trace = eatss_trace::drain(test_provenance());
    assert_eq!(
        trace.metrics.counters.keys().collect::<Vec<_>>(),
        ["a.first", "b.second"]
    );
    assert_eq!(trace.metrics.counter("b.second"), 2);
    assert_eq!(trace.metrics.counter("absent"), 0);
    assert_eq!(trace.metrics.gauges["g.ratio"], 0.75);
    // drain resets the registry for the next session.
    eatss_trace::start_collecting();
    let empty = eatss_trace::drain(test_provenance());
    assert!(empty.metrics.counters.is_empty());
}

#[test]
fn log_levels_parse_and_order() {
    assert_eq!(Level::parse("off"), Some(Level::Off));
    assert_eq!(Level::parse("debug"), Some(Level::Debug));
    assert_eq!(Level::parse("verbose"), None);
    assert!(Level::Error < Level::Info);
    assert!(Level::Info < Level::Debug);
}

#[test]
fn log_events_are_recorded_while_collecting() {
    let _session = SESSION.lock().unwrap();
    let previous = eatss_trace::log_level();
    eatss_trace::set_log_level(Level::Off); // no stderr noise from the test
    eatss_trace::start_collecting();
    eatss_trace::info!("solved {} in {}ms", "gemm", 12);
    let trace = eatss_trace::drain(test_provenance());
    eatss_trace::set_log_level(previous);
    let log = &trace.events[0];
    assert_eq!(log.cat, "log");
    assert_eq!(log.kind, EventKind::Instant { level: Level::Info });
    assert_eq!(
        log.args,
        vec![("message", ArgValue::Str("solved gemm in 12ms".to_string()))]
    );
}

/// A fixed trace used by both golden-file tests.
fn fixed_trace() -> Trace {
    let mut metrics = MetricsSnapshot::default();
    metrics.counters.insert("smt.nodes".to_string(), 42);
    metrics.gauges.insert("sweep.best_ppw".to_string(), 1.25);
    // Two observations in 4..=7, one in 1024..=2047: p50 = 7, p90 = 2047.
    let mut buckets = vec![0u64; eatss_trace::histogram::HISTOGRAM_BUCKETS];
    buckets[3] = 2;
    buckets[11] = 1;
    metrics
        .histograms
        .insert("serve.solve_us".to_string(), HistogramSnapshot { buckets });
    Trace {
        provenance: test_provenance(),
        events: vec![
            Event {
                seq: 0,
                lane: 0,
                ts_us: 10,
                cat: "sweep",
                name: "run".to_string(),
                args: Vec::new(),
                kind: EventKind::Begin { id: 1, parent: 0 },
            },
            Event {
                seq: 3,
                lane: 0,
                ts_us: 90,
                cat: "sweep",
                name: "run".to_string(),
                args: vec![("points", ArgValue::Int(1))],
                kind: EventKind::End { id: 1, dur_us: 80 },
            },
            Event {
                seq: 1,
                lane: 1,
                ts_us: 20,
                cat: "smt",
                name: "check".to_string(),
                args: Vec::new(),
                kind: EventKind::Begin { id: 2, parent: 0 },
            },
            Event {
                seq: 2,
                lane: 1,
                ts_us: 60,
                cat: "smt",
                name: "check".to_string(),
                args: vec![
                    ("nodes", ArgValue::Int(17)),
                    ("sat", ArgValue::Bool(true)),
                    ("label", ArgValue::Str("a \"quoted\" name".to_string())),
                    ("ratio", ArgValue::Float(0.5)),
                ],
                kind: EventKind::End { id: 2, dur_us: 40 },
            },
            Event {
                seq: 4,
                lane: 1,
                ts_us: 61,
                cat: "sim",
                name: "fault".to_string(),
                args: vec![("kind", ArgValue::Str("launch_failure".to_string()))],
                kind: EventKind::Instant { level: Level::Info },
            },
        ],
        metrics,
    }
}

#[test]
fn chrome_output_matches_golden_file_and_is_valid_trace_events_json() {
    let rendered = fixed_trace().to_chrome_json();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chrome_trace.json");
    if std::env::var_os("EATSS_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("update golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file");
    assert_eq!(rendered, golden, "chrome sink output drifted from golden file");

    // Independently validate the structure with the JSON parser.
    let doc = Json::parse(&rendered).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
    // 1 process_name + 2 thread_name + 2 X + 1 i + 2 gauge/counter C + 1 histogram C.
    assert_eq!(events.len(), 9);
    let hist = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("serve.solve_us"))
        .expect("histogram sample present");
    assert_eq!(hist.get("ph").and_then(Json::as_str), Some("C"));
    let args = hist.get("args").expect("histogram args");
    assert_eq!(args.get("count").and_then(Json::as_f64), Some(3.0));
    assert_eq!(args.get("p50").and_then(Json::as_f64), Some(7.0));
    assert_eq!(args.get("max").and_then(Json::as_f64), Some(2047.0));
    let check = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("check"))
        .expect("check span present");
    assert_eq!(check.get("ph").and_then(Json::as_str), Some("X"));
    assert_eq!(check.get("ts").and_then(Json::as_f64), Some(20.0));
    assert_eq!(check.get("dur").and_then(Json::as_f64), Some(40.0));
    assert_eq!(check.get("tid").and_then(Json::as_f64), Some(1.0));
    let args = check.get("args").expect("args");
    assert_eq!(args.get("label").and_then(Json::as_str), Some("a \"quoted\" name"));
    assert_eq!(
        doc.get("otherData")
            .and_then(|d| d.get("provenance"))
            .and_then(|p| p.get("git_sha"))
            .and_then(Json::as_str),
        Some("deadbeef")
    );
}

#[test]
fn compact_chrome_output_is_single_line_and_equivalent() {
    let pretty = fixed_trace().to_chrome_json();
    let compact = fixed_trace().to_chrome_json_compact();
    assert!(!compact.contains('\n'));
    let a = Json::parse(&pretty).expect("pretty parses");
    let b = Json::parse(&compact).expect("compact parses");
    assert_eq!(
        a.get("traceEvents").and_then(Json::as_array).map(|events| events.len()),
        b.get("traceEvents").and_then(Json::as_array).map(|events| events.len())
    );
}
