//! The daemon has one way to answer a `select`: whichever route a result
//! takes to the client (connection-thread hit, a worker that finds the
//! key already committed, a fresh solve), the answer is the same, and it
//! is the library's answer whatever the daemon served before; and a
//! journal append that fails is visible rather than dropped.

mod common;

use common::{array_identity_select, connect, number, temp_dir, tiles};
use eatss::{Eatss, EatssConfig, JournalConfig};
use eatss_gpusim::GpuArch;
use eatss_kernels::Dataset;
use eatss_serve::client::SelectArgs;
use eatss_serve::server::{start, ServerConfig};
use eatss_trace::json::Json;
use std::collections::BTreeMap;

fn text<'a>(reply: &'a Json, field: &str) -> &'a str {
    reply.get(field).and_then(Json::as_str).unwrap_or("")
}

#[test]
fn hit_raced_hit_and_fresh_solve_answer_alike() {
    let handle = start(ServerConfig {
        allow_chaos: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(512);
    args.evaluate = true;
    args.verify = true;

    let fresh = client.select(&args).unwrap();
    assert_eq!(handle.cache_stats().misses, 1);
    let hit = client.select(&args).unwrap();
    // A chaos directive skips the connection-thread lookup, so the job
    // reaches a worker, which finds the key already committed.
    args.chaos = Some("sleep:0".to_string());
    let raced = client.select(&args).unwrap();
    let stats = handle.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (2, 1),
        "only the first request solved"
    );
    assert_eq!(
        [
            text(&fresh, "cache"),
            text(&hit, "cache"),
            text(&raced, "cache")
        ],
        ["miss", "hit", "miss"]
    );

    let comparable = |reply: &Json| -> BTreeMap<String, Json> {
        let mut fields = reply.as_object().expect("object").clone();
        for varying in ["cache", "latency_ms", "solve_ms"] {
            assert!(fields.remove(varying).is_some(), "{varying} present");
        }
        fields
    };
    assert_eq!(text(&fresh, "status"), "ok");
    assert!(fresh.get("eval").is_some() && fresh.get("verify").is_some());
    assert_eq!(comparable(&fresh), comparable(&hit));
    assert_eq!(comparable(&fresh), comparable(&raced));
    handle.shutdown();
}

/// A select of `kernel` at uniform extent `size`, or at dataset `size`,
/// with its split factor and warp fraction, and the library's tiles for
/// it on the GA100 (the daemon's default device).
fn select_and_library(kernel: &str, size: &str, split: f64, warp: f64) -> (SelectArgs, Vec<i64>) {
    let bench = eatss_kernels::by_name(kernel).expect("registered");
    let (n, sizes) = match size.parse() {
        Ok(n) => (Some(n), bench.sizes_uniform(n)),
        Err(_) if size == "xl" => (None, bench.sizes(Dataset::ExtraLarge)),
        Err(_) => (None, bench.sizes(Dataset::Standard)),
    };
    let config = EatssConfig {
        split_factor: split,
        warp_fraction: warp,
        ..EatssConfig::default()
    };
    let library = Eatss::new(GpuArch::ga100())
        .select_tiles(&bench.program().expect("parses"), &sizes, &config)
        .expect("feasible");
    let args = SelectArgs {
        n,
        dataset: n.is_none().then(|| size.to_string()),
        split: Some(split),
        warp_frac: Some(warp),
        ..SelectArgs::kernel(kernel)
    };
    (args, library.tiles.sizes().to_vec())
}

#[test]
fn an_answer_does_not_depend_on_what_the_daemon_served_before() {
    // Each program at another size and configuration, served first, must
    // not steer a later request to another of its tied optima. The
    // dataset-sized selects are the three `eatss` CLI runs
    // `cli_verify.rs::cli_tiles_are_the_librarys` checks against the
    // library too: CLI, library and daemon give one answer.
    let dir = temp_dir("history");
    let config = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let before = ["gemm", "2mm", "mvt"].map(|k| select_and_library(k, "64", 0.0, 0.125).0);
    let asked = [
        select_and_library("gemm", "128", 1.0, 0.5),
        select_and_library("gemm", "standard", 1.0, 0.5),
        select_and_library("2mm", "xl", 0.0, 0.25),
        select_and_library("mvt", "standard", 0.5, 0.125),
    ];
    assert_eq!(asked[0].1, [96, 112, 64]);

    let handle = start(config()).unwrap();
    let mut client = connect(&handle);
    for args in &before {
        assert_eq!(text(&client.select(args).unwrap(), "status"), "ok");
    }
    for (args, library) in &asked {
        let live = client.select(args).unwrap();
        assert_eq!(
            (text(&live, "status"), text(&live, "cache")),
            ("ok", "miss")
        );
        assert_eq!(&tiles(&live), library, "live answer to {}", args.to_line());
    }
    handle.shutdown();

    // What was journaled is that same answer.
    let handle = start(config()).unwrap();
    let mut client = connect(&handle);
    for (args, library) in &asked {
        let replayed = client.select(args).unwrap();
        assert_eq!(text(&replayed, "cache"), "hit");
        assert_eq!(
            &tiles(&replayed),
            library,
            "journaled answer to {}",
            args.to_line()
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sources_that_differ_only_in_array_identity_get_their_own_answers() {
    // In the first every read shares one array, in the second none do —
    // a different optimum, and it must be a different cache entry.
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = connect(&handle);
    for (reads, optimum) in [
        (["A", "A", "A", "A"], [384, 16]),
        (["A", "C", "D", "E"], [144, 16]),
    ] {
        let reply = client.select(&array_identity_select(reads)).unwrap();
        assert_eq!(
            (text(&reply, "status"), text(&reply, "cache")),
            ("ok", "miss"),
            "{reads:?}"
        );
        assert_eq!(tiles(&reply), optimum, "{reads:?}");
    }
    handle.shutdown();
}

#[test]
fn failed_journal_append_still_answers_but_is_counted_and_logged() {
    let dir = temp_dir("append-error");
    let log_path = dir.join("access.jsonl");
    let config = |max_record_bytes| ServerConfig {
        cache_dir: Some(dir.join("journal")),
        journal: JournalConfig {
            max_record_bytes,
            ..JournalConfig::default()
        },
        access_log: Some(log_path.clone()),
        ..ServerConfig::default()
    };
    // No selection fits a 16-byte record: every append is refused.
    let handle = start(config(16)).unwrap();
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(512);
    let reply = client.select(&args).unwrap();
    assert_eq!(
        (text(&reply, "status"), text(&reply, "cache")),
        ("ok", "miss")
    );

    let metrics = client.metrics().unwrap();
    let append_errors = number(&metrics, &["metrics", "counters", "journal.append_errors"]);
    assert!(append_errors >= Some(1.0));
    handle.shutdown();

    let log = std::fs::read_to_string(&log_path).unwrap();
    let line = log
        .lines()
        .map(|l| Json::parse(l).expect("access log line parses"))
        .find(|l| text(l, "op") == "select")
        .expect("select line");
    assert_eq!(text(&line, "outcome"), "ok");
    assert!(text(&line, "journal_error").contains("exceeds the 16-byte cap"));

    // The answer was never durable: a restart knows nothing of the key.
    let handle = start(config(JournalConfig::default().max_record_bytes)).unwrap();
    assert_eq!(handle.replayed(), 0);
    let reply = connect(&handle).select(&args).unwrap();
    assert_eq!(text(&reply, "cache"), "miss");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
