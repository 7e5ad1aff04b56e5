//! The `eatss-serve` daemon binary.
//!
//! Prints one JSON "ready" line on stdout once listening (tests parse it
//! for the ephemeral port), then parks until a client sends the in-band
//! `shutdown` op, then drains gracefully and prints a final stats line.

use eatss::SyncPolicy;
use eatss_serve::server::{start, Endpoint, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
eatss-serve — crash-safe tile-selection daemon

USAGE:
  eatss-serve [OPTIONS]

OPTIONS:
  --addr HOST:PORT       TCP listen address (default 127.0.0.1:7411; port 0 = ephemeral)
  --unix PATH            listen on a unix socket instead of TCP
  --cache-dir DIR        journal the tile cache to DIR/journal.log (default: in-memory only)
  --workers N            solver worker threads (default 4)
  --queue N              admission queue capacity (default 64)
  --deadline-ms N        default per-request solve deadline (default 2000)
  --max-deadline-ms N    upper clamp for requested deadlines (default 30000)
  --read-timeout-ms N    mid-frame stall budget (default 5000)
  --arch NAME|PATH       default device: a builtin profile (ga100, xavier,
                         h100, orin, nano) or a JSON profile file (default ga100)
  --no-sync              journal without per-append fsync (faster, test-only)
  --access-log PATH      append one JSON line per request to PATH
  --compact-garbage-ratio F
                         auto-compact the journal once its garbage ratio
                         exceeds F in (0,1); 'off' disables (default 0.5)
  --chaos                honour test-only `chaos` request fields
  --help                 this text
";

fn main() -> ExitCode {
    let mut config = ServerConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:7411".to_string()),
        workers: 4,
        ..ServerConfig::default()
    };

    let mut args = std::env::args().skip(1);
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.endpoint = Endpoint::Tcp(next_value(&mut args, "--addr")),
            "--unix" => {
                config.endpoint = Endpoint::Unix(PathBuf::from(next_value(&mut args, "--unix")))
            }
            "--cache-dir" => {
                config.cache_dir = Some(PathBuf::from(next_value(&mut args, "--cache-dir")))
            }
            "--workers" => {
                config.workers = parse_count("--workers", &next_value(&mut args, "--workers"))
            }
            "--queue" => {
                config.queue_capacity = parse_count("--queue", &next_value(&mut args, "--queue"))
            }
            "--deadline-ms" => {
                config.default_deadline =
                    Duration::from_millis(parse_num(&next_value(&mut args, "--deadline-ms")) as u64)
            }
            "--max-deadline-ms" => {
                config.max_deadline = Duration::from_millis(
                    parse_num(&next_value(&mut args, "--max-deadline-ms")) as u64,
                )
            }
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(
                    parse_num(&next_value(&mut args, "--read-timeout-ms")) as u64,
                )
            }
            "--arch" => {
                let spec = next_value(&mut args, "--arch");
                config.default_arch = match eatss_gpusim::DeviceProfile::resolve(&spec) {
                    Ok(profile) => profile.into_arch(),
                    Err(e) => {
                        eprintln!("error: --arch {spec}: {e}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--no-sync" => config.journal.sync = SyncPolicy::Never,
            "--access-log" => {
                config.access_log = Some(PathBuf::from(next_value(&mut args, "--access-log")))
            }
            "--compact-garbage-ratio" => {
                let spec = next_value(&mut args, "--compact-garbage-ratio");
                config.compact_garbage_ratio = match spec.as_str() {
                    "off" => None,
                    other => match other.parse::<f64>() {
                        Ok(f) if f > 0.0 && f < 1.0 => Some(f),
                        _ => {
                            eprintln!(
                                "error: --compact-garbage-ratio wants a ratio in (0,1) or 'off'"
                            );
                            return ExitCode::from(2);
                        }
                    },
                };
            }
            "--chaos" => config.allow_chaos = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument '{other}'\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Worker panics are isolated by catch_unwind and answered as error
    // responses; keep the stderr record to one line each.
    std::panic::set_hook(Box::new(|info| eprintln!("panic (caught): {info}")));

    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recovery = handle.recovery();
    println!(
        "{{\"ready\":true,\"addr\":\"{}\",\"replayed\":{},\"records_recovered\":{},\"corrupt_records_skipped\":{},\"torn_tails_truncated\":{}}}",
        handle.addr(),
        handle.replayed(),
        recovery.records_recovered,
        recovery.corrupt_records_skipped,
        recovery.torn_tails_truncated,
    );
    // Stdout is block-buffered when piped; the spawning test waits on
    // this line.
    let _ = std::io::Write::flush(&mut std::io::stdout());

    handle.wait_shutdown_requested();
    let stats = handle.shutdown();
    println!(
        "{{\"stopped\":true,\"requests\":{},\"ok\":{},\"errors\":{},\"shed\":{},\"panics_caught\":{}}}",
        stats.requests, stats.ok, stats.errors, stats.shed, stats.panics_caught,
    );
    ExitCode::SUCCESS
}

fn parse_num(text: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("error: '{text}' is not a number");
        std::process::exit(2);
    })
}

/// A worker or queue-slot count: zero of either would serve something
/// other than a daemon (no solves, or every miss shed).
fn parse_count(flag: &str, text: &str) -> usize {
    match parse_num(text) {
        0 => {
            eprintln!("error: {flag} must be at least 1");
            std::process::exit(2);
        }
        n => n,
    }
}
