//! Load-test and chaos harness for the tuning daemon.
//!
//! Replays synthetic clients (PolyBench × tile-space mix) against an
//! in-process server under seeded chaos — malformed frames, oversized
//! frames, slow-loris stalls, dropped connections, panic requests, tiny
//! deadlines, gpusim measurement faults, queue-saturating bursts — then
//! restarts the server (cleanly, and again after deliberately corrupting
//! journal shards) and verifies:
//!
//! * **zero crash** — the daemon answers a ping after everything above;
//! * **zero lost entries** — every committed response (optimal solve or
//!   proved infeasibility) is a warm cache hit after restart, with
//!   bitwise-identical tiles;
//! * **well-formed shedding** — every `overloaded` response carries a
//!   retry-after hint;
//! * **coalescing observed** — a barrier-synchronised burst of identical
//!   requests joins one in-flight solve (`cache: "coalesced"`);
//! * **histogram agreement** — the server's own `serve.request_us`
//!   latency histogram (scraped via the `metrics` op) matches the
//!   client-sampled percentiles within one log-2 bucket width.
//!
//! Writes `BENCH_serve.json` through [`eatss_trace::Report`]; every failed
//! assertion is one of its `regressions`, and the exit code is non-zero
//! iff there is one.

use eatss::SyncPolicy;
use eatss_gpusim::FaultPlan;
use eatss_serve::client::{Client, SelectArgs};
use eatss_serve::server::{start, Endpoint, ServerConfig};
use eatss_trace::json::Json;
use eatss_trace::Report;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Deterministic xorshift64* — the chaos schedule must replay from the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// One request the load phase committed; replayed after restarts.
#[derive(Debug, Clone)]
struct Committed {
    args: SelectArgs,
    status: String,
    tiles: String,
}

#[derive(Default)]
struct ClientReport {
    latencies_ms: Vec<f64>,
    ok: u64,
    infeasible: u64,
    errors: u64,
    overloaded: u64,
    malformed_shed_ok: u64,
    malformed_sent: u64,
    slowloris: u64,
    dropped: u64,
    panics_requested: u64,
    fallbacks_seen: u64,
    committed: Vec<Committed>,
    bad_overloaded: u64,
}

struct Plan {
    mode: &'static str,
    clients: usize,
    requests_per_client: usize,
    burst: usize,
}

const KERNELS: &[&str] = &["gemm", "atax", "bicg", "mvt", "gesummv"];
const SPLITS: &[f64] = &[0.0, 0.5, 0.67];
const WARP_FRACS: &[f64] = &[0.125, 0.25, 0.5, 1.0];
const SIZES: &[i64] = &[512, 1024, 2000];

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next();
        let number = value.as_deref().and_then(|v| v.parse().ok());
        match (arg.as_str(), value.as_deref(), number) {
            ("--mode", Some("smoke"), _) => smoke = true,
            ("--mode", Some("full"), _) => smoke = false,
            ("--out", Some(path), _) => out = PathBuf::from(path),
            ("--seed", _, Some(n)) => seed = n,
            _ => {
                eprintln!("usage: bench_serve [--mode smoke|full] [--out PATH] [--seed N]");
                return ExitCode::from(2);
            }
        }
    }
    let plan = if smoke {
        Plan { mode: "smoke", clients: 4, requests_per_client: 30, burst: 40 }
    } else {
        Plan { mode: "full", clients: 12, requests_per_client: 100, burst: 64 }
    };
    // Worker panics are expected (chaos) and caught; one line each is
    // plenty.
    std::panic::set_hook(Box::new(|info| eprintln!("panic (caught): {info}")));

    let cache_dir = std::env::temp_dir().join(format!("eatss-bench-serve-{}", std::process::id()));
    let _ = fs::remove_dir_all(&cache_dir);

    let config = server_config(&cache_dir);
    let handle = match start(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.tcp_addr().expect("tcp endpoint").to_string();
    eprintln!("bench_serve[{}]: server on {addr}, cache at {}", plan.mode, cache_dir.display());

    // ── Phase 1: concurrent chaos load ─────────────────────────────────
    let load_started = Instant::now();
    let mut load = run_load(&addr, &plan, seed);
    load.overloaded += run_burst(&addr, &plan, seed ^ 0x9e37_79b9);
    let (coalesce_clients, coalesced_responses) = run_coalesce(&addr);
    let load_wall_s = load_started.elapsed().as_secs_f64();

    // The daemon must still be alive after everything phase 1 threw at
    // it.
    let zero_crash_after_load = ping_ok(&addr);
    let server_stats = handle.stats();
    let cache_stats = handle.cache_stats();

    // ── Phase 2a: clean restart → warm-start, zero lost entries ───────
    handle.shutdown();
    let handle = start(server_config(&cache_dir)).expect("clean restart");
    let addr2 = handle.tcp_addr().expect("tcp endpoint").to_string();
    let replayed = handle.replayed();
    let committed = dedupe(&load.committed);
    let mut warm_hits = 0u64;
    let mut lost: Vec<String> = Vec::new();
    {
        let mut client = Client::connect_tcp(&addr2).expect("connect after restart");
        for entry in &committed {
            match client.select(&entry.args) {
                Ok(reply) => {
                    let cache = reply.get("cache").and_then(Json::as_str).unwrap_or("");
                    let status = reply.get("status").and_then(Json::as_str).unwrap_or("");
                    let tiles = reply
                        .get("tiles")
                        .map(|t| format!("{t:?}"))
                        .unwrap_or_default();
                    if cache == "hit" && status == entry.status && tiles == entry.tiles {
                        warm_hits += 1;
                    } else {
                        lost.push(format!(
                            "{:?} -> cache={cache} status={status}",
                            entry.args.kernel
                        ));
                    }
                }
                Err(e) => lost.push(format!("{:?} -> {e}", entry.args.kernel)),
            }
        }
    }

    // ── Phase 2b: corrupt shards, restart, recovery must hold ─────────
    handle.shutdown();
    let (flipped, truncated) = corrupt_journal(&cache_dir, seed);
    let handle = start(server_config(&cache_dir)).expect("restart after corruption");
    let recovery = handle.recovery();
    let addr3 = handle.tcp_addr().expect("tcp endpoint").to_string();
    let alive_after_corruption = ping_ok(&addr3);
    let recovered_detected =
        recovery.corrupt_records_skipped > 0 || recovery.torn_tails_truncated > 0;
    handle.shutdown();

    // ── Phase 3: server-side histograms vs client-side samples ────────
    // Reset the metrics registry so the scraped histogram covers exactly
    // this phase's requests, then drive fresh solves and compare the
    // server's own `serve.request_us` quantiles against what the client
    // measured. The estimator returns bucket upper bounds, so the client
    // sample must land within one log-2 bucket width of the estimate.
    eatss_trace::start_collecting();
    let handle = start(server_config(&cache_dir)).expect("restart for histogram agreement");
    let addr4 = handle.tcp_addr().expect("tcp endpoint").to_string();
    let agreement = run_agreement(&addr4, &plan);
    handle.shutdown();

    let zero_crash = zero_crash_after_load && alive_after_corruption;

    // ── Report ─────────────────────────────────────────────────────────
    load.latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| -> f64 {
        if load.latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((load.latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        load.latencies_ms[idx]
    };
    let total_requests = load.ok + load.infeasible + load.errors + load.overloaded;
    let hit_rate = if cache_stats.hits + cache_stats.misses > 0 {
        cache_stats.hits as f64 / (cache_stats.hits + cache_stats.misses) as f64
    } else {
        0.0
    };

    let mut report = Report::new("serve", plan.mode);
    report.sections.extend([
        ("seed", seed.into()),
        ("load_wall_s", load_wall_s.into()),
        (
            "requests",
            Json::object([
                ("total", total_requests.into()),
                ("ok", load.ok.into()),
                ("infeasible", load.infeasible.into()),
                ("errors", load.errors.into()),
                ("overloaded", load.overloaded.into()),
                ("fallbacks_seen", load.fallbacks_seen.into()),
                ("malformed_sent", load.malformed_sent.into()),
                ("slowloris_connections", load.slowloris.into()),
                ("dropped_connections", load.dropped.into()),
                ("panic_requests", load.panics_requested.into()),
            ]),
        ),
        (
            "latency_ms",
            Json::object([
                ("p50", pct(0.50).into()),
                ("p99", pct(0.99).into()),
                ("max", pct(1.0).into()),
                ("count", load.latencies_ms.len().into()),
            ]),
        ),
        (
            "server",
            Json::object([
                ("requests", server_stats.requests.into()),
                ("shed", server_stats.shed.into()),
                ("coalesced", server_stats.coalesced.into()),
                ("protocol_errors", server_stats.protocol_errors.into()),
                ("panics_caught", server_stats.panics_caught.into()),
                ("fallbacks", server_stats.fallbacks.into()),
            ]),
        ),
        (
            "cache",
            Json::object([
                ("hits", cache_stats.hits.into()),
                ("misses", cache_stats.misses.into()),
                ("infeasible", cache_stats.infeasible.into()),
                ("hit_rate", hit_rate.into()),
            ]),
        ),
        (
            "coalesce",
            Json::object([
                ("burst_clients", coalesce_clients.into()),
                ("coalesced_responses", coalesced_responses.into()),
                ("server_coalesced", server_stats.coalesced.into()),
            ]),
        ),
        (
            "histogram_agreement",
            Json::object([
                ("samples", agreement.samples.into()),
                ("client_p50_us", agreement.client_p50_us.into()),
                ("server_p50_us", agreement.server_p50_us.into()),
                ("client_p99_us", agreement.client_p99_us.into()),
                ("server_p99_us", agreement.server_p99_us.into()),
            ]),
        ),
        (
            "restart",
            Json::object([
                ("replayed", replayed.into()),
                ("committed_unique", committed.len().into()),
                ("warm_hits", warm_hits.into()),
                (
                    "corruption",
                    Json::object([
                        ("bits_flipped", flipped.into()),
                        ("bytes_truncated", truncated.into()),
                        ("corrupt_records_skipped", recovery.corrupt_records_skipped.into()),
                        ("torn_tails_truncated", recovery.torn_tails_truncated.into()),
                        ("records_recovered", recovery.records_recovered.into()),
                    ]),
                ),
            ]),
        ),
    ].map(|(name, value): (&str, Json)| (name.to_owned(), value)));

    let assertions = [
        ("zero_crash", zero_crash, "the daemon stopped answering pings".to_owned()),
        (
            "zero_lost_entries",
            lost.is_empty(),
            format!(
                "{} committed entr(ies) not a warm hit after restart, first: {}",
                lost.len(),
                lost.first().map_or("", String::as_str)
            ),
        ),
        (
            "shed_well_formed",
            load.bad_overloaded == 0,
            format!("{} overloaded response(s) without retry_after_ms", load.bad_overloaded),
        ),
        (
            "corruption_detected",
            recovered_detected,
            "flipped bits and torn tails went unnoticed by journal recovery".to_owned(),
        ),
        (
            "coalescing_observed",
            coalesced_responses > 0 && server_stats.coalesced > 0,
            "no identical in-flight request joined a running solve".to_owned(),
        ),
        (
            "histograms_agree",
            agreement.within_one_bucket,
            "serve.request_us quantiles are more than one log-2 bucket from the client's samples".to_owned(),
        ),
    ];
    report.sections.insert(
        "assertions".to_owned(),
        Json::object(assertions.iter().map(|(name, held, _)| (*name, (*held).into()))),
    );
    for (name, held, why) in assertions {
        if !held {
            report.regressions.push(format!("{name}: {why}"));
        }
    }
    let _ = fs::remove_dir_all(&cache_dir);
    eprintln!(
        "bench_serve: {total_requests} requests, p50 {:.2} ms, p99 {:.2} ms, hit rate {:.1}%",
        pct(0.50),
        pct(0.99),
        hit_rate * 100.0
    );
    report.finish(&out)
}

fn server_config(cache_dir: &Path) -> ServerConfig {
    let mut config = ServerConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
        cache_dir: Some(cache_dir.to_path_buf()),
        workers: 4,
        queue_capacity: 16,
        max_frame_bytes: 64 << 10,
        read_timeout: Duration::from_millis(500),
        default_deadline: Duration::from_secs(2),
        allow_chaos: true,
        fault_plan: Some(FaultPlan::new(7).with_rates(0.05, 0.05, 0.05)),
        ..ServerConfig::default()
    };
    config.journal.sync = SyncPolicy::Always;
    config
}

fn ping_ok(addr: &str) -> bool {
    Client::connect_tcp(addr)
        .ok()
        .and_then(|mut c| c.ping().ok())
        .and_then(|r| r.get("status").and_then(Json::as_str).map(|s| s == "ok"))
        .unwrap_or(false)
}

fn run_load(addr: &str, plan: &Plan, seed: u64) -> ClientReport {
    let mut handles = Vec::new();
    for i in 0..plan.clients {
        let addr = addr.to_string();
        let requests = plan.requests_per_client;
        let client_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        handles.push(std::thread::spawn(move || {
            client_thread(&addr, requests, client_seed)
        }));
    }
    let mut merged = ClientReport::default();
    for h in handles {
        let r = h.join().expect("client thread");
        merged.latencies_ms.extend(r.latencies_ms);
        merged.ok += r.ok;
        merged.infeasible += r.infeasible;
        merged.errors += r.errors;
        merged.overloaded += r.overloaded;
        merged.malformed_sent += r.malformed_sent;
        merged.malformed_shed_ok += r.malformed_shed_ok;
        merged.slowloris += r.slowloris;
        merged.dropped += r.dropped;
        merged.panics_requested += r.panics_requested;
        merged.fallbacks_seen += r.fallbacks_seen;
        merged.bad_overloaded += r.bad_overloaded;
        merged.committed.extend(r.committed);
    }
    merged
}

fn client_thread(addr: &str, requests: usize, seed: u64) -> ClientReport {
    let mut rng = Rng::new(seed);
    let mut report = ClientReport::default();
    let mut client = Client::connect_tcp(addr).expect("connect");
    for i in 0..requests {
        // ~8% of iterations do transport chaos instead of a request.
        if rng.chance(8) {
            match rng.below(4) {
                0 => {
                    // Malformed frame: expect a typed error response, same
                    // connection keeps serving.
                    report.malformed_sent += 1;
                    match client.request_line("{\"op\": \"select\", this is not json") {
                        Ok(reply)
                            if reply.get("status").and_then(Json::as_str) == Some("error") =>
                        {
                            report.malformed_shed_ok += 1
                        }
                        _ => client = reconnect(addr),
                    }
                }
                1 => {
                    // Oversized frame: server must answer then close.
                    report.malformed_sent += 1;
                    let garbage = vec![b'x'; 80 << 10];
                    let _ = client.write_raw(&garbage);
                    let _ = client.read_response();
                    client = reconnect(addr);
                }
                2 => {
                    // Slow-loris: stall mid-frame past the read timeout.
                    report.slowloris += 1;
                    let _ = client.write_raw(b"{\"op\": \"sel");
                    std::thread::sleep(Duration::from_millis(800));
                    let _ = client.read_response(); // timeout error or close
                    client = reconnect(addr);
                }
                _ => {
                    // Drop mid-request.
                    report.dropped += 1;
                    let _ = client.write_raw(b"{\"kernel\": \"ge");
                    client = reconnect(addr);
                }
            }
            continue;
        }

        let kernel: &&str = rng.pick(KERNELS);
        let mut args = SelectArgs::kernel(kernel);
        args.id = Some(format!("c{seed:x}-{i}"));
        args.n = Some(*rng.pick(SIZES));
        args.split = Some(*rng.pick(SPLITS));
        args.warp_frac = Some(*rng.pick(WARP_FRACS));
        args.evaluate = rng.chance(25);
        if rng.chance(2) {
            args.chaos = Some("panic".to_string());
            report.panics_requested += 1;
        } else if rng.chance(5) {
            // Tiny deadline: anytime best-so-far or 32^d fallback.
            args.deadline_ms = Some(1 + rng.below(3));
        }
        if rng.chance(10) {
            // Infeasible: WAF 16 exceeds the 8-point extents.
            args.n = Some(8);
        }

        let started = Instant::now();
        match client.select(&args) {
            Ok(reply) => {
                let latency = started.elapsed().as_nanos() as f64 / 1e6;
                let status = reply.get("status").and_then(Json::as_str).unwrap_or("");
                match status {
                    "ok" => {
                        report.ok += 1;
                        report.latencies_ms.push(latency);
                        if reply.get("fell_back").and_then(Json::as_bool) == Some(true) {
                            report.fallbacks_seen += 1;
                        }
                        if reply.get("provenance").and_then(Json::as_str) == Some("solved") {
                            report.committed.push(Committed {
                                args: strip_volatile(&args),
                                status: "ok".to_string(),
                                tiles: reply
                                    .get("tiles")
                                    .map(|t| format!("{t:?}"))
                                    .unwrap_or_default(),
                            });
                        }
                    }
                    "infeasible" => {
                        report.infeasible += 1;
                        report.latencies_ms.push(latency);
                        report.committed.push(Committed {
                            args: strip_volatile(&args),
                            status: "infeasible".to_string(),
                            tiles: String::new(),
                        });
                    }
                    "overloaded" => {
                        report.overloaded += 1;
                        if reply.get("retry_after_ms").and_then(Json::as_f64).is_none() {
                            report.bad_overloaded += 1;
                        }
                    }
                    _ => report.errors += 1,
                }
            }
            Err(_) => {
                report.errors += 1;
                client = reconnect(addr);
            }
        }
    }
    report
}

/// Queue-saturation burst: more in-flight slow requests than the queue
/// holds; the excess must shed with well-formed `overloaded` responses.
fn run_burst(addr: &str, plan: &Plan, seed: u64) -> u64 {
    let mut handles = Vec::new();
    for i in 0..plan.burst {
        let addr = addr.to_string();
        let n = 2100 + (seed % 97) as i64 + i as i64; // fresh keys, no coalescing
        handles.push(std::thread::spawn(move || {
            let mut client = match Client::connect_tcp(&addr) {
                Ok(c) => c,
                Err(_) => return (0u64, 0u64),
            };
            let mut args = SelectArgs::kernel("gemm");
            args.n = Some(n);
            args.chaos = Some("sleep:200".to_string());
            match client.select(&args) {
                Ok(reply) => {
                    let status = reply.get("status").and_then(Json::as_str).unwrap_or("");
                    if status == "overloaded" {
                        let well_formed =
                            reply.get("retry_after_ms").and_then(Json::as_f64).is_some();
                        (1, u64::from(!well_formed))
                    } else {
                        (0, 0)
                    }
                }
                Err(_) => (0, 0),
            }
        }));
    }
    let mut shed = 0;
    let mut malformed = 0;
    for h in handles {
        let (s, m) = h.join().unwrap_or((0, 0));
        shed += s;
        malformed += m;
    }
    assert_eq!(malformed, 0, "every overloaded response must be well-formed");
    eprintln!("bench_serve: burst shed {shed}/{} requests", plan.burst);
    shed
}

/// Barrier-synchronised burst of identical requests: one solves, the
/// rest must join it in flight and answer `cache: "coalesced"`. The
/// `sleep` chaos directive keeps the solve in flight long enough for
/// every waiter to arrive, and is part of the coalesce key, so all
/// eight requests are structurally identical.
fn run_coalesce(addr: &str) -> (u64, u64) {
    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let addr = addr.to_string();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).ok()?;
            let mut args = SelectArgs::kernel("gemm");
            args.n = Some(4321); // fresh key: never requested by the load phase
            args.chaos = Some("sleep:250".to_string());
            barrier.wait();
            let reply = client.select(&args).ok()?;
            Some(reply.get("cache").and_then(Json::as_str) == Some("coalesced"))
        }));
    }
    let coalesced = handles
        .into_iter()
        .filter_map(|h| h.join().ok().flatten())
        .filter(|&c| c)
        .count() as u64;
    eprintln!("bench_serve: coalesce burst — {coalesced}/{CLIENTS} responses joined in flight");
    (CLIENTS as u64, coalesced)
}

/// What phase 3 measured: client-sampled request percentiles next to the
/// server's own histogram estimates, scraped via the `metrics` op.
struct Agreement {
    samples: usize,
    client_p50_us: f64,
    server_p50_us: u64,
    client_p99_us: f64,
    server_p99_us: u64,
    within_one_bucket: bool,
}

/// Drives fresh solves sequentially, then scrapes `serve.request_us`
/// from the `metrics` op and checks the server's log-2 quantile
/// estimates against the client's sampled percentiles. The estimator
/// answers bucket upper bounds (for a true value `v >= 1` the estimate
/// `e` satisfies `v <= e < 2v`), so the client sample — the same latency
/// plus loopback overhead — must land within one bucket width:
/// `e/2 <= client <= 2e`.
fn run_agreement(addr: &str, plan: &Plan) -> Agreement {
    let samples = if plan.mode == "smoke" { 12 } else { 48 };
    let mut client = Client::connect_tcp(addr).expect("connect for agreement");
    let mut latencies_us: Vec<f64> = Vec::with_capacity(samples);
    for i in 0..samples {
        let mut args = SelectArgs::kernel(KERNELS[i % KERNELS.len()]);
        args.n = Some(5000 + 7 * i as i64); // fresh keys: every request solves
        let started = Instant::now();
        let reply = client.select(&args).expect("agreement select");
        let status = reply.get("status").and_then(Json::as_str).unwrap_or("");
        assert!(
            status == "ok" || status == "infeasible",
            "agreement request answered {status}"
        );
        latencies_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Same rank the histogram estimator targets: ceil(q * n), 1-based.
    let pct = |q: f64| -> f64 {
        let rank = ((q * latencies_us.len() as f64).ceil() as usize).max(1);
        latencies_us[rank - 1]
    };
    let reply = client.metrics().expect("metrics scrape");
    let hist = reply
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("serve.request_us"))
        .expect("serve.request_us histogram in metrics op");
    let server_count = hist.get("count").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    assert_eq!(server_count, samples, "histogram saw every request");
    let server_p50 = hist.get("p50").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let server_p99 = hist.get("p99").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let client_p50 = pct(0.50);
    let client_p99 = pct(0.99);
    let within = |client: f64, server: u64| -> bool {
        server > 0 && client >= server as f64 / 2.0 && client <= 2.0 * server as f64
    };
    let within_one_bucket = within(client_p50, server_p50) && within(client_p99, server_p99);
    eprintln!(
        "bench_serve: agreement — client p50 {client_p50:.0} us vs server {server_p50} us,          client p99 {client_p99:.0} us vs server {server_p99} us, within_one_bucket={within_one_bucket}"
    );
    Agreement {
        samples,
        client_p50_us: client_p50,
        server_p50_us: server_p50,
        client_p99_us: client_p99,
        server_p99_us: server_p99,
        within_one_bucket,
    }
}

/// Committed entries are replayed without chaos/deadline/evaluate — the
/// cache key ignores those, and the replay must be a pure hit.
fn strip_volatile(args: &SelectArgs) -> SelectArgs {
    let mut clean = args.clone();
    clean.chaos = None;
    clean.deadline_ms = None;
    clean.evaluate = false;
    clean.id = None;
    clean
}

fn dedupe(committed: &[Committed]) -> Vec<Committed> {
    let mut seen: BTreeMap<String, Committed> = BTreeMap::new();
    for c in committed {
        seen.entry(c.args.to_line()).or_insert_with(|| c.clone());
    }
    seen.into_values().collect()
}

fn reconnect(addr: &str) -> Client {
    for _ in 0..50 {
        if let Ok(c) = Client::connect_tcp(addr) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server unreachable");
}

/// Flips one bit mid-record in one shard and truncates another shard's
/// tail — the journal must skip/truncate and keep every other record.
fn corrupt_journal(dir: &Path, seed: u64) -> (u64, u64) {
    let mut rng = Rng::new(seed ^ 0xdead_beef);
    let mut shards: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".log"))
                })
                .collect()
        })
        .unwrap_or_default();
    shards.sort();
    let mut flipped = 0u64;
    let mut truncated = 0u64;
    for (i, path) in shards.iter().enumerate() {
        let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if len <= 24 {
            continue; // header only — nothing to corrupt
        }
        if i % 2 == 0 {
            // Bit flip somewhere after the 20-byte header.
            let offset = 20 + rng.below(len - 21);
            if let Ok(mut f) = fs::OpenOptions::new().read(true).write(true).open(path) {
                use std::io::Read;
                let mut byte = [0u8; 1];
                if f.seek(SeekFrom::Start(offset)).is_ok() && f.read_exact(&mut byte).is_ok() {
                    byte[0] ^= 1 << rng.below(8);
                    if f.seek(SeekFrom::Start(offset)).is_ok() && f.write_all(&byte).is_ok() {
                        flipped += 1;
                    }
                }
            }
        } else {
            // Torn tail: drop the final few bytes.
            let cut = 1 + rng.below(8);
            let new_len = len.saturating_sub(cut).max(20);
            if let Ok(f) = fs::OpenOptions::new().write(true).open(path) {
                if f.set_len(new_len).is_ok() {
                    truncated += len - new_len;
                }
            }
        }
    }
    eprintln!("bench_serve: corrupted journal — {flipped} bit flips, {truncated} tail bytes cut");
    (flipped, truncated)
}
