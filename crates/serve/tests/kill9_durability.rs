//! Spawns the real `eatss-serve` binary, commits solutions, SIGKILLs it
//! mid-flight, restarts on the same cache directory, and asserts every
//! committed entry survived; then damages the journal and restarts once
//! more. This is the crash-safety claim of DESIGN.md §12 exercised
//! end-to-end through the process boundary. A spawned daemon also has a
//! metrics registry of its own, which is what the latency-histogram
//! agreement check needs; and the launcher's flag handling is checked
//! here because only the binary has one.

mod common;

use common::{array_identity_select, at, number, status, temp_dir};
use eatss::journal::{FILE_NAME, HEADER_BYTES, RECORD_PREFIX_BYTES};
use eatss_serve::client::{Client, SelectArgs};
use eatss_trace::json::Json;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    /// Held open: the daemon prints a last line when it stops.
    stdout: BufReader<ChildStdout>,
    addr: String,
    ready: Json,
}

impl Daemon {
    fn spawn(cache_dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_eatss-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--cache-dir"])
            .arg(cache_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn eatss-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("ready line");
        let ready = Json::parse(&line).expect("ready line is JSON");
        assert_eq!(ready.get("ready").and_then(Json::as_bool), Some(true));
        let addr = ready
            .get("addr")
            .and_then(Json::as_str)
            .expect("addr in ready line")
            .to_string();
        Daemon {
            child,
            stdout,
            addr,
            ready,
        }
    }

    fn client(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect to daemon")
    }

    /// A number from the ready line.
    fn ready_count(&self, field: &str) -> f64 {
        self.ready.get(field).and_then(Json::as_f64).expect(field)
    }

    fn kill9(mut self) {
        // `Child::kill` is SIGKILL on unix: no drain, no flush, no
        // destructor runs in the daemon.
        self.child.kill().expect("kill -9");
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Flips one bit in the payload of the journal's middle record and tears
/// the last three bytes off its tail; returns how many records the file
/// held.
fn damage_journal(dir: &Path) -> usize {
    let path = dir.join(FILE_NAME);
    let mut bytes = std::fs::read(&path).unwrap();
    let mut starts = Vec::new();
    let mut at = HEADER_BYTES as usize;
    while at < bytes.len() {
        starts.push(at);
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += RECORD_PREFIX_BYTES as usize + len;
    }
    assert_eq!(at, bytes.len(), "the journal ends on a record boundary");
    assert!(starts.len() >= 3, "{} records", starts.len());
    // Mid-file, so the flip and the tear are separate damages.
    let middle = starts[starts.len() / 2] + RECORD_PREFIX_BYTES as usize + 6;
    bytes[middle] ^= 0x10;
    bytes.truncate(bytes.len() - 3);
    std::fs::write(&path, &bytes).unwrap();
    starts.len()
}

#[test]
fn kill9_loses_no_committed_entry_and_warm_starts() {
    let dir = temp_dir("kill9");

    // Round 1: commit a handful of solutions (one an infeasibility, two
    // inline sources told apart only by array identity), then SIGKILL
    // with a request still in flight.
    let committed: Vec<(SelectArgs, String, String)> = {
        let daemon = Daemon::spawn(&dir);
        assert_eq!(daemon.ready_count("replayed"), 0.0);
        let mut client = daemon.client();
        let named = [("gemm", 1024), ("atax", 2000), ("bicg", 512), ("gemm", 8)].map(|(k, n)| {
            SelectArgs {
                n: Some(n),
                ..SelectArgs::kernel(k)
            }
        });
        let identity_pair = [["A", "A", "A", "A"], ["A", "C", "D", "E"]].map(array_identity_select);
        let mut committed = Vec::new();
        for args in named.into_iter().chain(identity_pair) {
            let reply = client.select(&args).unwrap();
            let st = status(&reply).to_string();
            assert!(st == "ok" || st == "infeasible", "{reply:?}");
            assert_eq!(reply.get("cache").and_then(Json::as_str), Some("miss"));
            committed.push((args, st, format!("{:?}", reply.get("tiles"))));
        }
        assert_ne!(committed[4].2, committed[5].2, "array identity is part of the key");
        // Fire-and-forget: a request the daemon will die holding.
        let mut inflight = SelectArgs::kernel("mvt");
        inflight.n = Some(4000);
        client
            .write_raw(format!("{}\n", inflight.to_line()).as_bytes())
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        daemon.kill9();
        committed
    };

    // Round 2: restart on the same directory. Every committed entry is
    // replayed (the in-flight one may or may not have made it — both
    // are fine; what is forbidden is losing an answered request).
    let mut daemon = Daemon::spawn(&dir);
    let replayed = daemon.ready_count("replayed");
    assert!(
        replayed >= committed.len() as f64,
        "replayed {replayed} < committed {}",
        committed.len()
    );
    assert_eq!(
        daemon.ready_count("corrupt_records_skipped"),
        0.0,
        "SIGKILL must not corrupt committed records"
    );
    // The journal is one file.
    let mut logs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".log"))
        .collect();
    logs.sort();
    assert_eq!(logs, [FILE_NAME]);

    let mut client = daemon.client();
    for (args, st, tiles) in &committed {
        let reply = client.select(args).unwrap();
        assert_eq!(status(&reply), st, "{reply:?}");
        assert_eq!(reply.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(&format!("{:?}", reply.get("tiles")), tiles);
    }
    let stats = client.stats().unwrap();
    let misses = number(&stats, &["cache", "misses"]);
    assert_eq!(misses, Some(0.0), "warm start: nothing re-solved after restart");

    // In-band shutdown drains cleanly.
    let reply = client.shutdown().unwrap();
    assert_eq!(status(&reply), "ok");
    let mut stopped = String::new();
    daemon.stdout.read_line(&mut stopped).unwrap();
    assert!(stopped.starts_with(r#"{"stopped":true"#), "{stopped}");
    assert!(daemon.child.wait().unwrap().success());
    drop(daemon);

    // Round 3: a flipped bit costs exactly its own record, a torn tail
    // is truncated, and the daemon serves on.
    let records = damage_journal(&dir);
    let daemon = Daemon::spawn(&dir);
    assert_eq!(
        [
            daemon.ready_count("corrupt_records_skipped"),
            daemon.ready_count("torn_tails_truncated"),
            daemon.ready_count("records_recovered"),
        ],
        [1.0, 1.0, (records - 2) as f64],
        "{:?}",
        daemon.ready
    );
    assert_eq!(status(&daemon.client().ping().unwrap()), "ok");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_latency_histogram_agrees_with_the_clients_clock() {
    // The daemon's `serve.request_us` and the client's stopwatch time the
    // same requests. The estimator answers bucket upper bounds (a true
    // value v >= 1 gives an estimate e with v <= e < 2v), so the client's
    // sample, the same latency plus loopback, lands in [e/2, 2e] — unless
    // something outside the server's clock (a response held back by
    // Nagle's algorithm, ~40 ms) stretches every round trip.
    const SAMPLES: usize = 24;
    let dir = temp_dir("agreement");
    let daemon = Daemon::spawn(&dir);
    let mut client = daemon.client();
    // Not timed, and not a select: the acceptor polls every 10 ms, and
    // the server's clock starts on a connection it has accepted.
    assert_eq!(status(&client.ping().unwrap()), "ok");
    let kernels = ["gemm", "atax", "bicg", "mvt", "gesummv"];
    let mut client_us: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            // Fresh keys: every request solves.
            let mut args = SelectArgs::kernel(kernels[i % kernels.len()]);
            args.n = Some(5000 + 7 * i as i64);
            let started = Instant::now();
            let reply = client.select(&args).unwrap();
            let elapsed = started.elapsed().as_secs_f64() * 1e6;
            assert!(["ok", "infeasible"].contains(&status(&reply)), "{reply:?}");
            elapsed
        })
        .collect();
    client_us.sort_by(f64::total_cmp);
    // The rank the estimator targets: ceil(q * n), 1-based.
    let client_quantile = |q: f64| client_us[(q * SAMPLES as f64).ceil() as usize - 1];

    let reply = client.metrics().unwrap();
    let hist = at(&reply, &["metrics", "histograms", "serve.request_us"]).expect("histogram");
    let server = |field| number(hist, &[field]).unwrap();
    assert_eq!(server("count"), SAMPLES as f64, "exactly the selects above");
    for (q, field) in [(0.50, "p50"), (0.99, "p99")] {
        let (c, e) = (client_quantile(q), server(field));
        assert!(
            e > 0.0 && e / 2.0 <= c && c <= 2.0 * e,
            "{field}: client {c:.0} us, server estimate {e} us"
        );
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_journal_directory_is_a_start_up_error_not_a_panic() {
    // Every version-1 (sharded) journal directory holds `shard-000.log`;
    // the daemon refuses to start on one and leaves it as it was.
    let dir = temp_dir("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let legacy = dir.join("shard-000.log");
    // A v1 shard header: magic, version 1, shard 0 of 8.
    let v1: &[u8] = b"EATSSJNL\x01\0\0\0\0\0\0\0\x08\0\0\0";
    std::fs::write(&legacy, v1).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_eatss-serve"))
        .args(["--addr", "127.0.0.1:0", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("spawn eatss-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: failed to start:"), "{stderr}");
    assert!(stderr.contains("shard-000.log"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        std::fs::read(&legacy).unwrap(),
        v1,
        "the v1 file is untouched"
    );
    assert!(
        !dir.join("journal.log").exists(),
        "a rejected start creates no journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn launcher_exits_2_on_unknown_flags_and_zero_counts() {
    // `--fault-rates 7,-3,nan` used to reach `FaultPlan::with_rates`'
    // assert (exit 101). Faults are configured in process
    // (`ServerConfig::fault_plan`); the launcher has no flag for them.
    // `--shards` went with the one-file journal, `--flight` with the
    // flight-recorder knob (the ring capacity is a constant). No worker
    // or no queue slot is not a daemon: `--queue 0` used to shed every
    // miss, `--workers 0` to run one worker.
    // (The trailing `--help` only matters if a flag or value is accepted:
    // the launcher then exits 0 instead of serving until the test times
    // out.)
    let cases = [
        ("--fault-seed", "1", "unknown argument '--fault-seed'"),
        ("--fault-rates", "1", "unknown argument '--fault-rates'"),
        ("--shards", "1", "unknown argument '--shards'"),
        ("--flight", "1", "unknown argument '--flight'"),
        ("--queue", "0", "--queue must be at least 1"),
        ("--workers", "0", "--workers must be at least 1"),
    ];
    for (flag, value, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_eatss-serve"))
            .args([flag, value, "--help"])
            .output()
            .expect("spawn eatss-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(message), "{flag} {value}: {stderr}");
    }
}
