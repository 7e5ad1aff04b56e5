//! The daemon has one way to answer a `select`: whichever route a result
//! takes to the client (connection-thread hit, a worker that finds the
//! key already committed, a fresh solve), the answer is the same, and it
//! is the library's answer whatever the daemon served before; and a
//! journal append that fails is visible rather than dropped.

use eatss::{Eatss, EatssConfig, JournalConfig};
use eatss_gpusim::GpuArch;
use eatss_serve::client::{Client, SelectArgs};
use eatss_serve::server::{start, ServerConfig, ServerHandle};
use eatss_trace::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn connect(handle: &ServerHandle) -> Client {
    Client::connect_tcp(&handle.tcp_addr().unwrap().to_string()).expect("connect")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eatss-one-path-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
    assert_eq!((stats.hits, stats.misses), (2, 1), "only the first request solved");
    assert_eq!(
        [text(&fresh, "cache"), text(&hit, "cache"), text(&raced, "cache")],
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

fn tiles(reply: &Json) -> Vec<i64> {
    let tiles = reply.get("tiles").and_then(Json::as_array).expect("tiles");
    tiles.iter().filter_map(Json::as_f64).map(|t| t as i64).collect()
}

#[test]
fn an_answer_does_not_depend_on_what_the_daemon_served_before() {
    // The same program at another size and configuration, served first,
    // must not steer the second request to another of its tied optima.
    let dir = temp_dir("history");
    let config = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let select = |n, split, warp_frac| SelectArgs {
        n: Some(n),
        split: Some(split),
        warp_frac: Some(warp_frac),
        ..SelectArgs::kernel("gemm")
    };
    let (before, asked) = (select(64, 0.0, 0.125), select(128, 1.0, 0.5));

    let gemm = eatss_kernels::by_name("gemm").expect("registered");
    let library = Eatss::new(GpuArch::ga100())
        .select_tiles(
            &gemm.program().expect("parses"),
            &gemm.sizes_uniform(128),
            &EatssConfig {
                split_factor: 1.0,
                warp_fraction: 0.5,
                ..EatssConfig::default()
            },
        )
        .expect("feasible");
    assert_eq!(library.tiles.sizes(), [96, 112, 64]);

    let handle = start(config()).unwrap();
    let mut client = connect(&handle);
    assert_eq!(text(&client.select(&before).unwrap(), "status"), "ok");
    let live = client.select(&asked).unwrap();
    assert_eq!((text(&live, "status"), text(&live, "cache")), ("ok", "miss"));
    assert_eq!(tiles(&live), library.tiles.sizes(), "live answer");
    handle.shutdown();

    // What was journaled is that same answer.
    let handle = start(config()).unwrap();
    let replayed = connect(&handle).select(&asked).unwrap();
    assert_eq!(text(&replayed, "cache"), "hit");
    assert_eq!(tiles(&replayed), library.tiles.sizes(), "journaled answer");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sources_that_differ_only_in_array_identity_get_their_own_answers() {
    // Same shape, same name lengths; in the first every read shares one
    // array (and so its cache lines), in the second none do — a different
    // register constraint, a different optimum, and it must be a
    // different cache entry.
    let source = |reads: [&str; 4]| SelectArgs {
        source: Some(format!(
            "kernel k(N) {{ for (i: N) for (j: N) \
             B[i][j] = {}[i][j] + {}[i][j+1] + {}[i][j+2] + {}[i][j+3]; }}",
            reads[0], reads[1], reads[2], reads[3]
        )),
        n: Some(4000),
        ..SelectArgs::default()
    };
    let handle = start(ServerConfig::default()).unwrap();
    let mut client = connect(&handle);
    for (reads, optimum) in [
        (["A", "A", "A", "A"], [384, 16]),
        (["A", "C", "D", "E"], [144, 16]),
    ] {
        let reply = client.select(&source(reads)).unwrap();
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
    assert_eq!((text(&reply, "status"), text(&reply, "cache")), ("ok", "miss"));

    let metrics = client.metrics().unwrap();
    let append_errors = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("journal.append_errors"))
        .and_then(Json::as_f64)
        .expect("journal.append_errors counter");
    assert!(append_errors >= 1.0);
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
