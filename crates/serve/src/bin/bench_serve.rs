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
//! Takes no arguments: 12 clients × 100 requests, seed 42. The summary
//! lines it prints are log output; every failed assertion is a
//! `REGRESSION:` line on stderr, and the exit code is non-zero iff there
//! is one.

use eatss::SyncPolicy;
use eatss_gpusim::FaultPlan;
use eatss_serve::client::{Client, SelectArgs};
use eatss_serve::server::{start, Endpoint, ServerConfig};
use eatss_trace::json::Json;
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
    committed: Vec<Committed>,
    bad_overloaded: u64,
}

/// The chaos schedule replays from this seed alone.
const SEED: u64 = 42;
const CLIENTS: usize = 12;
const REQUESTS_PER_CLIENT: usize = 100;
/// In-flight slow requests of the saturation burst (the queue holds 16).
const BURST: usize = 64;
/// Sequential fresh solves behind the histogram-agreement check.
const AGREEMENT_SAMPLES: usize = 48;

const KERNELS: &[&str] = &["gemm", "atax", "bicg", "mvt", "gesummv"];
const SPLITS: &[f64] = &[0.0, 0.5, 0.67];
const WARP_FRACS: &[f64] = &[0.125, 0.25, 0.5, 1.0];
const SIZES: &[i64] = &[512, 1024, 2000];

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_serve   (takes no arguments)");
        return ExitCode::from(2);
    }
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
    eprintln!("bench_serve: server on {addr}, cache at {}", cache_dir.display());

    // ── Phase 1: concurrent chaos load ─────────────────────────────────
    let mut load = run_load(&addr);
    let (burst_shed, burst_malformed) = run_burst(&addr);
    load.overloaded += burst_shed;
    load.bad_overloaded += burst_malformed;
    let coalesced_responses = run_coalesce(&addr);

    // The daemon must still be alive after everything phase 1 threw at
    // it.
    let zero_crash_after_load = ping_ok(&addr);
    let server_stats = handle.stats();
    let cache_stats = handle.cache_stats();

    // ── Phase 2a: clean restart → warm-start, zero lost entries ───────
    handle.shutdown();
    let handle = start(server_config(&cache_dir)).expect("clean restart");
    let addr2 = handle.tcp_addr().expect("tcp endpoint").to_string();
    let committed = dedupe(&load.committed);
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
                    if cache != "hit" || status != entry.status || tiles != entry.tiles {
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
    corrupt_journal(&cache_dir);
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
    let agreement = run_agreement(&addr4);
    handle.shutdown();
    let _ = fs::remove_dir_all(&cache_dir);

    // ── Summary and gates ──────────────────────────────────────────────
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
    eprintln!(
        "bench_serve: {total_requests} requests, p50 {:.2} ms, p99 {:.2} ms, hit rate {:.1}%",
        pct(0.50),
        pct(0.99),
        hit_rate * 100.0
    );

    let assertions = [
        (
            "zero_crash",
            zero_crash_after_load && alive_after_corruption,
            "the daemon stopped answering pings".to_owned(),
        ),
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
            agreement.is_ok(),
            agreement.err().unwrap_or_default(),
        ),
    ];
    let mut failed = 0;
    for (name, held, why) in &assertions {
        if !held {
            eprintln!("REGRESSION: {name}: {why}");
            failed += 1;
        }
    }
    if failed > 0 {
        return ExitCode::FAILURE;
    }
    eprintln!("bench_serve: all {} assertions held", assertions.len());
    ExitCode::SUCCESS
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

fn run_load(addr: &str) -> ClientReport {
    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        let addr = addr.to_string();
        let client_seed = SEED.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        handles.push(std::thread::spawn(move || {
            client_thread(&addr, client_seed)
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
        merged.bad_overloaded += r.bad_overloaded;
        merged.committed.extend(r.committed);
    }
    merged
}

fn client_thread(addr: &str, seed: u64) -> ClientReport {
    let mut rng = Rng::new(seed);
    let mut report = ClientReport::default();
    let mut client = Client::connect_tcp(addr).expect("connect");
    for i in 0..REQUESTS_PER_CLIENT {
        // ~8% of iterations do transport chaos instead of a request.
        if rng.chance(8) {
            match rng.below(4) {
                0 => {
                    // Malformed frame: expect a typed error response, same
                    // connection keeps serving.
                    match client.request_line("{\"op\": \"select\", this is not json") {
                        Ok(reply)
                            if reply.get("status").and_then(Json::as_str) == Some("error") => {}
                        _ => client = reconnect(addr),
                    }
                }
                1 => {
                    // Oversized frame: server must answer then close.
                    let garbage = vec![b'x'; 80 << 10];
                    let _ = client.write_raw(&garbage);
                    let _ = client.read_response();
                    client = reconnect(addr);
                }
                2 => {
                    // Slow-loris: stall mid-frame past the read timeout.
                    let _ = client.write_raw(b"{\"op\": \"sel");
                    std::thread::sleep(Duration::from_millis(800));
                    let _ = client.read_response(); // timeout error or close
                    client = reconnect(addr);
                }
                _ => {
                    // Drop mid-request.
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
/// Returns how many were shed and how many of those lacked the retry hint.
fn run_burst(addr: &str) -> (u64, u64) {
    let mut handles = Vec::new();
    for i in 0..BURST {
        let addr = addr.to_string();
        let n = 2100 + ((SEED ^ 0x9e37_79b9) % 97) as i64 + i as i64; // fresh keys, no coalescing
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
    eprintln!("bench_serve: burst shed {shed}/{BURST} requests");
    (shed, malformed)
}

/// Barrier-synchronised burst of identical requests: one solves, the
/// rest must join it in flight and answer `cache: "coalesced"`. The
/// `sleep` chaos directive keeps the solve in flight long enough for
/// every waiter to arrive, and is part of the coalesce key, so all
/// eight requests are structurally identical.
fn run_coalesce(addr: &str) -> u64 {
    const WAITERS: usize = 8;
    let barrier = Arc::new(Barrier::new(WAITERS));
    let mut handles = Vec::new();
    for _ in 0..WAITERS {
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
    eprintln!("bench_serve: coalesce burst — {coalesced}/{WAITERS} responses joined in flight");
    coalesced
}

/// Drives fresh solves sequentially, then scrapes `serve.request_us`
/// from the `metrics` op and checks the server's log-2 quantile
/// estimates against the client's sampled percentiles. The estimator
/// answers bucket upper bounds (for a true value `v >= 1` the estimate
/// `e` satisfies `v <= e < 2v`), so the client sample — the same latency
/// plus loopback overhead — must land within one bucket width:
/// `e/2 <= client <= 2e`. `Err` says why the two do not agree, or why
/// they could not be compared.
fn run_agreement(addr: &str) -> Result<(), String> {
    let mut client =
        Client::connect_tcp(addr).map_err(|e| format!("connect for agreement: {e}"))?;
    let mut latencies_us: Vec<f64> = Vec::with_capacity(AGREEMENT_SAMPLES);
    for i in 0..AGREEMENT_SAMPLES {
        let mut args = SelectArgs::kernel(KERNELS[i % KERNELS.len()]);
        args.n = Some(5000 + 7 * i as i64); // fresh keys: every request solves
        let started = Instant::now();
        let reply = client
            .select(&args)
            .map_err(|e| format!("agreement request {i}: {e}"))?;
        let status = reply.get("status").and_then(Json::as_str).unwrap_or("");
        if status != "ok" && status != "infeasible" {
            return Err(format!("agreement request {i} answered `{status}`"));
        }
        latencies_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Same rank the histogram estimator targets: ceil(q * n), 1-based.
    let pct = |q: f64| -> f64 {
        let rank = ((q * latencies_us.len() as f64).ceil() as usize).max(1);
        latencies_us[rank - 1]
    };
    let reply = client
        .metrics()
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let hist = reply
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("serve.request_us"))
        .ok_or("no serve.request_us histogram in the metrics op")?;
    let server_count = hist.get("count").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    if server_count != AGREEMENT_SAMPLES {
        return Err(format!(
            "serve.request_us counted {server_count} of {AGREEMENT_SAMPLES} requests"
        ));
    }
    let server_p50 = hist.get("p50").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let server_p99 = hist.get("p99").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let client_p50 = pct(0.50);
    let client_p99 = pct(0.99);
    let within = |client: f64, server: u64| -> bool {
        server > 0 && client >= server as f64 / 2.0 && client <= 2.0 * server as f64
    };
    let within_one_bucket = within(client_p50, server_p50) && within(client_p99, server_p99);
    eprintln!(
        "bench_serve: agreement — client p50 {client_p50:.0} us vs server {server_p50} us, \
         client p99 {client_p99:.0} us vs server {server_p99} us, within_one_bucket={within_one_bucket}"
    );
    if within_one_bucket {
        Ok(())
    } else {
        Err("serve.request_us quantiles are more than one log-2 bucket from the client's samples"
            .to_owned())
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
fn corrupt_journal(dir: &Path) {
    let mut rng = Rng::new(SEED ^ 0xdead_beef);
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
}
