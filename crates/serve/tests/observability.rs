//! Observability integration tests: the `metrics` op (JSON registry +
//! Prometheus exposition), the `trace` op (flight-recorder export as a
//! Chrome trace), the structured access log, and garbage-ratio driven
//! auto-compaction.

mod common;

use common::{at, connect, error_kind, number, status, temp_dir, test_server};
use eatss::cache::encode_key;
use eatss::{EatssConfig, JournalConfig, TileCache};
use eatss_affine::parser::parse_program;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_serve::client::SelectArgs;
use eatss_trace::json::Json;

/// A histogram an operator can read: at least one sample, and quantile
/// estimates in order.
fn assert_sane_histogram(hist: &Json) {
    let [count, p50, p99, max] =
        ["count", "p50", "p99", "max"].map(|field| number(hist, &[field]).expect(field));
    assert!(count >= 1.0, "count = {count}");
    assert!(p50 <= p99 && p99 <= max, "p50={p50} p99={p99} max={max}");
}

fn mm() -> Program {
    parse_program(
        "kernel mm(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             C[i][j] += A[i][k] * B[k][j];
         }",
    )
    .unwrap()
}

#[test]
fn metrics_op_reports_histograms_and_gauges() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(512);
    assert_eq!(status(&client.select(&args).unwrap()), "ok");

    let reply = client.metrics().unwrap();
    assert_eq!(status(&reply), "ok");
    let metrics = reply.get("metrics").expect("metrics object");

    // Lifetime request counters are mirrored into the registry.
    assert!(number(metrics, &["gauges", "serve.requests"]) >= Some(1.0));

    // The request latency histogram saw the select, and its quantiles
    // come back monotone.
    let hist = at(metrics, &["histograms", "serve.request_us"]).expect("serve.request_us");
    assert_sane_histogram(hist);
    // The solve stage landed in its own histogram (the request missed).
    assert!(number(metrics, &["histograms", "serve.solve_us", "count"]) >= Some(1.0));

    // Self-monitoring gauges refreshed by the op.
    let gauges = metrics.get("gauges").expect("gauges object");
    for name in [
        "serve.queue_depth",
        "serve.in_flight",
        "serve.shed_rate",
        "journal.garbage_ratio",
    ] {
        assert!(gauges.get(name).is_some(), "missing gauge {name}");
    }

    // Prometheus text carries the same histogram as cumulative buckets.
    let prom = reply.get("prometheus").and_then(Json::as_str).unwrap();
    assert!(prom.contains("# TYPE serve_request_us histogram"), "{prom}");
    assert!(
        prom.contains("serve_request_us_bucket{le=\"+Inf\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("serve_request_us{quantile=\"0.99\"}"),
        "{prom}"
    );
    assert!(prom.contains("journal_garbage_ratio"), "{prom}");
    handle.shutdown();
}

#[test]
fn trace_op_exports_chrome_trace_of_recorded_requests() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);

    // Before any select, the flight recorder is empty.
    let empty = client.trace_export("slowest", 1).unwrap();
    assert_eq!(status(&empty), "error");
    assert_eq!(error_kind(&empty), Some("empty_flight"));

    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(512);
    args.id = Some("req-1".to_string());
    assert_eq!(status(&client.select(&args).unwrap()), "ok");
    args.id = Some("req-2".to_string());
    assert_eq!(status(&client.select(&args).unwrap()), "ok");

    let reply = client.trace_export("slowest", 1).unwrap();
    assert_eq!(status(&reply), "ok");
    let requests = reply.get("requests").and_then(Json::as_array).unwrap();
    assert_eq!(requests.len(), 1);
    let top = &requests[0];
    assert_eq!(top.get("kernel").and_then(Json::as_str), Some("gemm"));
    assert_eq!(top.get("outcome").and_then(Json::as_str), Some("ok"));
    // The solved (miss) request is strictly slower than the cache hit.
    assert_eq!(top.get("cache").and_then(Json::as_str), Some("miss"));
    assert!(top.get("dur_us").and_then(Json::as_f64).unwrap() > 0.0);

    // The embedded trace is a Chrome trace document with the request's
    // span tree: serve:request wraps serve:solve wraps smt spans.
    let trace = reply.get("trace").expect("trace document");
    let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
    let spans: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|e| {
            let cat = e.get("cat").and_then(Json::as_str)?;
            let name = e.get("name").and_then(Json::as_str)?;
            Some((cat, name))
        })
        .collect();
    assert!(spans.contains(&("serve", "request")), "{spans:?}");
    assert!(spans.contains(&("serve", "solve")), "{spans:?}");
    assert!(spans.contains(&("smt", "maximize")), "{spans:?}");
    // Histograms ride along as counter samples (no cat on C events),
    // with a count and quantile estimates that are sane.
    let sample = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(Json::as_str) == Some("C")
                && e.get("name").and_then(Json::as_str) == Some("serve.request_us")
        })
        .and_then(|e| e.get("args"))
        .expect("serve.request_us sample");
    assert_sane_histogram(sample);

    // `recent` returns newest first; both requests are present.
    let recent = client.trace_export("recent", 8).unwrap();
    let recent_ids: Vec<&str> = recent
        .get("requests")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    assert_eq!(recent_ids, vec!["req-2", "req-1"]);

    // No failures yet, so the error ring is empty.
    let errors = client.trace_export("errors", 8).unwrap();
    assert_eq!(status(&errors), "error");
    handle.shutdown();
}

#[test]
fn access_log_records_one_parseable_line_per_request() {
    let dir = temp_dir("access-log");
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.jsonl");
    let handle = test_server(|c| c.access_log = Some(log_path.clone()));
    let mut client = connect(&handle);

    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(512);
    args.id = Some("first".to_string());
    assert_eq!(status(&client.select(&args).unwrap()), "ok");
    assert_eq!(status(&client.select(&args).unwrap()), "ok");
    assert_eq!(status(&client.metrics().unwrap()), "ok");
    handle.shutdown();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("access log line parses"))
        .collect();
    let selects: Vec<&Json> = lines
        .iter()
        .filter(|l| l.get("op").and_then(Json::as_str) == Some("select"))
        .collect();
    assert_eq!(selects.len(), 2, "{text}");
    let miss = selects[0];
    assert_eq!(miss.get("id").and_then(Json::as_str), Some("first"));
    assert_eq!(miss.get("kernel").and_then(Json::as_str), Some("gemm"));
    assert_eq!(miss.get("outcome").and_then(Json::as_str), Some("ok"));
    assert_eq!(miss.get("cache").and_then(Json::as_str), Some("miss"));
    assert!(miss.get("ts_ms").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(miss.get("latency_us").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(miss.get("solve_us").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(miss.get("deadline_ms").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(miss.get("git_sha").is_some());
    let hit = selects[1];
    assert_eq!(hit.get("cache").and_then(Json::as_str), Some("hit"));
    // The cache fast path never queues or solves.
    assert_eq!(hit.get("solve_us").and_then(Json::as_f64), Some(0.0));
    assert_eq!(hit.get("queue_us").and_then(Json::as_f64), Some(0.0));
    // Management ops are logged too.
    assert!(
        lines
            .iter()
            .any(|l| l.get("op").and_then(Json::as_str) == Some("metrics")),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_ratio_past_threshold_triggers_auto_compaction() {
    let dir = temp_dir("auto-compact");
    let cfg = EatssConfig::default();

    // Build a journal whose garbage ratio is exactly 0.5 by superseding
    // one record with an equal-size copy.
    {
        let mut cache = TileCache::open(&dir, GpuArch::ga100(), JournalConfig::default()).unwrap();
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        let solution = cache.select(&mm(), &sizes, &cfg).unwrap().clone();
        let key = encode_key(&GpuArch::ga100(), &mm(), &sizes, &cfg);
        cache.insert_key(key, Ok(solution)).unwrap();
        assert!((cache.garbage_ratio() - 0.5).abs() < 1e-9);
    }

    // A server opening that journal past its threshold compacts at
    // startup and counts it.
    let handle = test_server(|c| {
        c.cache_dir = Some(dir.clone());
        c.compact_garbage_ratio = Some(0.4);
    });
    let mut client = connect(&handle);
    let reply = client.metrics().unwrap();
    let compactions = number(&reply, &["metrics", "counters", "journal.auto_compactions"]);
    assert!(compactions >= Some(1.0), "startup compaction not counted");
    // The server's own ratio: the `journal.garbage_ratio` gauge is
    // process-global, so another server in this binary may set it.
    let stats = client.stats().unwrap();
    let ratio = number(&stats, &["cache", "garbage_ratio"]);
    assert_eq!(ratio, Some(0.0), "compaction reclaims all garbage");
    assert_eq!(number(&stats, &["cache", "entries"]), Some(1.0));
    assert_eq!(number(&stats, &["cache", "resident"]), Some(0.0));
    handle.shutdown();

    // With auto-compaction disabled the garbage survives startup.
    {
        let mut cache = TileCache::open(&dir, GpuArch::ga100(), JournalConfig::default()).unwrap();
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        let cached = cache.select(&mm(), &sizes, &cfg).unwrap().clone();
        let key = encode_key(&GpuArch::ga100(), &mm(), &sizes, &cfg);
        cache.insert_key(key, Ok(cached)).unwrap();
    }
    let handle = test_server(|c| {
        c.cache_dir = Some(dir.clone());
        c.compact_garbage_ratio = None;
    });
    let mut client = connect(&handle);
    let stats = client.stats().unwrap();
    let ratio = number(&stats, &["cache", "garbage_ratio"]).unwrap();
    assert!(
        ratio > 0.4,
        "garbage kept when auto-compaction is off: {ratio}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
