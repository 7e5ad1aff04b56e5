//! Spawns the real `eatss-serve` binary, commits solutions, SIGKILLs it
//! mid-flight, restarts on the same cache directory, and asserts every
//! committed entry survived. This is the crash-safety claim of DESIGN.md
//! §12 exercised end-to-end through the process boundary.

use eatss_serve::client::{Client, SelectArgs};
use eatss_trace::json::Json;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct Daemon {
    child: Child,
    addr: String,
    ready: Json,
}

impl Daemon {
    fn spawn(cache_dir: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_eatss-serve"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(cache_dir)
            .arg("--workers")
            .arg("2")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn eatss-serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("ready line");
        let ready = Json::parse(&line).expect("ready line is JSON");
        assert_eq!(ready.get("ready").and_then(Json::as_bool), Some(true));
        let addr = ready
            .get("addr")
            .and_then(Json::as_str)
            .expect("addr in ready line")
            .to_string();
        Daemon { child, addr, ready }
    }

    fn client(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect to daemon")
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

fn status(reply: &Json) -> &str {
    reply.get("status").and_then(Json::as_str).unwrap_or("")
}

#[test]
fn kill9_loses_no_committed_entry_and_warm_starts() {
    let dir = std::env::temp_dir().join(format!("eatss-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Round 1: commit a handful of solutions (and one infeasibility),
    // then SIGKILL with a request still in flight.
    let committed: Vec<(SelectArgs, String, String)> = {
        let daemon = Daemon::spawn(&dir, &[]);
        assert_eq!(daemon.ready.get("replayed").and_then(Json::as_f64), Some(0.0));
        let mut client = daemon.client();
        let mut committed = Vec::new();
        for (kernel, n) in [("gemm", 1024), ("atax", 2000), ("bicg", 512), ("gemm", 8)] {
            let mut args = SelectArgs::kernel(kernel);
            args.n = Some(n);
            let reply = client.select(&args).unwrap();
            let st = status(&reply).to_string();
            assert!(st == "ok" || st == "infeasible", "{reply:?}");
            committed.push((args, st, format!("{:?}", reply.get("tiles"))));
        }
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
    let daemon = Daemon::spawn(&dir, &[]);
    let replayed = daemon.ready.get("replayed").and_then(Json::as_f64).unwrap();
    assert!(
        replayed >= committed.len() as f64,
        "replayed {replayed} < committed {}",
        committed.len()
    );
    assert_eq!(
        daemon.ready.get("corrupt_records_skipped").and_then(Json::as_f64),
        Some(0.0),
        "SIGKILL must not corrupt committed records"
    );

    let mut client = daemon.client();
    for (args, st, tiles) in &committed {
        let reply = client.select(args).unwrap();
        assert_eq!(status(&reply), st, "{reply:?}");
        assert_eq!(reply.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(&format!("{:?}", reply.get("tiles")), tiles);
    }
    let stats = client.stats().unwrap();
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(
        cache.get("misses").and_then(Json::as_f64),
        Some(0.0),
        "warm start: nothing re-solved after restart"
    );

    // In-band shutdown drains cleanly.
    let reply = client.shutdown().unwrap();
    assert_eq!(status(&reply), "ok");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_journal_directory_is_a_start_up_error_not_a_panic() {
    // Every version-1 (sharded) journal directory holds `shard-000.log`;
    // the daemon refuses to start on one and leaves it as it was.
    let dir = std::env::temp_dir().join(format!("eatss-serve-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
    assert_eq!(std::fs::read(&legacy).unwrap(), v1, "the v1 file is untouched");
    assert!(!dir.join("journal.log").exists(), "a rejected start creates no journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_injection_is_not_a_launcher_flag() {
    // `--fault-rates 7,-3,nan` used to reach `FaultPlan::with_rates`'
    // assert (exit 101). Faults are configured in process
    // (`ServerConfig::fault_plan`); the launcher has no flag for them.
    // `--shards` went with the one-file journal, `--flight` with the
    // flight-recorder knob (the ring capacity is a constant).
    // (The trailing `--help` only matters if a flag comes back: the
    // launcher then exits 0 instead of serving until the test times out.)
    for flag in ["--fault-seed", "--fault-rates", "--shards", "--flight"] {
        let out = Command::new(env!("CARGO_BIN_EXE_eatss-serve"))
            .args([flag, "1", "--help"])
            .output()
            .expect("spawn eatss-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(&format!("unknown argument '{flag}'")), "{stderr}");
    }
}
