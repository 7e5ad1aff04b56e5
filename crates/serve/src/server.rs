//! The daemon: configuration, shared state, start-up and shutdown.
//!
//! The moving parts live in one module per concern — `crate::transport`
//! (sockets, accept and connection loops), `crate::dispatch` (admission
//! control and the worker pool) and `crate::handlers` (what each op
//! does) — and the response format lives in [`crate::protocol`].
//!
//! Thread layout (all `std::thread`, no async runtime):
//!
//! ```text
//! acceptor ──► one thread per connection ──► bounded queue ──► workers
//!                    │  cache fast path                          │
//!                    ◄──────────── mpsc outcome channel ─────────┘
//! ```
//!
//! Robustness properties, in the order the ISSUE lists them:
//!
//! 1. *Request hardening* — frames are size-capped while being read,
//!    socket reads tick every 100 ms so a mid-frame stall (slow-loris)
//!    trips the read timeout while idle keep-alive connections survive,
//!    and every malformed line becomes a typed error response.
//! 2. *Overload control* — the queue is bounded; admission past the
//!    bound returns an `overloaded` response with a retry-after hint.
//!    Concurrent identical requests coalesce on the canonical structural
//!    cache key: one solve, every waiter gets the outcome.
//! 3. *Panic isolation* — workers run jobs under `catch_unwind`; a
//!    panicking solve becomes a `worker_panic` error response and the
//!    worker returns to its loop.
//! 4. *Durability* — committed results go through
//!    [`TileCache::insert_key`], which journals *before* the
//!    response is sent: an `ok` answer implies the entry survives
//!    `kill -9` (an append that fails is counted and logged, not hidden).

use crate::dispatch::{auto_compact, worker_loop, Dispatch};
use crate::flight::FlightRecorder;
use crate::handlers::SelectSummary;
use crate::protocol::{object_line, str_field};
use crate::transport::{acceptor_loop, listen, Stream};
use eatss::{JournalConfig, SolutionProvenance, TileCache, TileCacheStats};
use eatss_affine::Program;
use eatss_gpusim::{FaultPlan, GpuArch};
use eatss_kernels::Benchmark;
use eatss_smt::CancelToken;
use eatss_trace::{Histogram, Provenance};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP; use port 0 to bind an ephemeral port (reported by
    /// [`ServerHandle::tcp_addr`]).
    Tcp(String),
    /// Unix domain socket path (removed and re-created on start).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon tunables. `Default` is sized for tests: localhost, ephemeral
/// port, ephemeral cache, two workers.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen endpoint.
    pub endpoint: Endpoint,
    /// Journal directory; `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Journal layout/sync policy (used only with `cache_dir`).
    pub journal: JournalConfig,
    /// Solver worker threads (at least 1).
    pub workers: usize,
    /// Bounded admission queue capacity (at least 1); excess is shed.
    pub queue_capacity: usize,
    /// Maximum request line size in bytes.
    pub max_frame_bytes: usize,
    /// Mid-frame stall budget (slow-loris defence). Idle connections
    /// between frames are not subject to it.
    pub read_timeout: Duration,
    /// Solve deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Upper clamp for requested deadlines.
    pub max_deadline: Duration,
    /// Honour test-only `chaos` request fields.
    pub allow_chaos: bool,
    /// Inject measurement faults into the evaluate path.
    pub fault_plan: Option<FaultPlan>,
    /// Architecture used when a request names none.
    pub default_arch: GpuArch,
    /// Structured JSON-lines access log path (`None` disables).
    pub access_log: Option<PathBuf>,
    /// Auto-compact the journal when its garbage ratio exceeds this
    /// threshold (checked after each journal append and at startup).
    /// `None` disables auto-compaction.
    pub compact_garbage_ratio: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
            cache_dir: None,
            journal: JournalConfig::default(),
            workers: 2,
            queue_capacity: 64,
            max_frame_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(30),
            allow_chaos: false,
            fault_plan: None,
            default_arch: GpuArch::ga100(),
            access_log: None,
            compact_garbage_ratio: Some(0.5),
        }
    }
}

/// Declares the server counters once: the public [`ServerStats`]
/// snapshot, the atomic [`Counters`] behind it, and the `stats` op's
/// field list all follow this order.
macro_rules! server_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Point-in-time server counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServerStats {
            /// Every counter with its wire name, in `stats` response order.
            pub(crate) fn fields(&self) -> Vec<(&'static str, String)> {
                vec![$((stringify!($name), self.$name.to_string()),)*]
            }
        }

        #[derive(Debug, Default)]
        pub(crate) struct Counters {
            $(pub(crate) $name: AtomicU64,)*
        }

        impl Counters {
            pub(crate) fn snapshot(&self) -> ServerStats {
                ServerStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

server_counters! {
    /// Connections accepted.
    connections,
    /// Request lines parsed (any op).
    requests,
    /// `ok` responses.
    ok,
    /// `infeasible` responses.
    infeasible,
    /// `error` responses (protocol + pipeline + panic).
    errors,
    /// Requests shed by admission control (`overloaded` responses).
    shed,
    /// Requests answered by joining an in-flight identical solve.
    coalesced,
    /// Malformed lines / framing violations.
    protocol_errors,
    /// Worker panics converted to error responses.
    panics_caught,
    /// Deadline/budget exhaustion answered with the `32^d` fallback.
    fallbacks,
    /// Responses whose tiles were verified through the batched
    /// differential oracle (`verify: true` requests answered clean).
    verified,
}

/// Bumps one server counter.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) cache: Mutex<TileCache>,
    pub(crate) dispatch: Mutex<Dispatch>,
    pub(crate) work_cv: Condvar,
    pub(crate) idle_cv: Condvar,
    shutdown: AtomicBool,
    shutdown_signal: Mutex<bool>,
    shutdown_cv: Condvar,
    pub(crate) cancel: CancelToken,
    pub(crate) counters: Counters,
    /// Every accepted connection: a handle to close its socket at
    /// shutdown, and its thread to join afterwards.
    pub(crate) conns: Mutex<Vec<(Stream, JoinHandle<()>)>>,
    /// Bounded per-request span-tree rings (`trace` op).
    pub(crate) flight: Mutex<FlightRecorder>,
    /// Line-buffered JSON-lines access log (one `write_all` per line).
    access_log: Option<Mutex<File>>,
    /// Cached histogram handles — registry lookup paid once at startup,
    /// `record` stays one atomic add on the hot path.
    pub(crate) hist: ServeHistograms,
    /// Provenance captured once at startup (`Provenance::collect` shells
    /// out to git; not a per-request cost).
    pub(crate) provenance: Provenance,
    /// Every registry kernel, parsed once at startup; a request naming
    /// one shares its program.
    pub(crate) registry: Vec<(Benchmark, Result<Arc<Program>, String>)>,
}

/// `&'static` handles into the trace crate's histogram registry.
pub(crate) struct ServeHistograms {
    pub(crate) request_us: &'static Histogram,
    pub(crate) queue_us: &'static Histogram,
    pub(crate) solve_us: &'static Histogram,
    pub(crate) journal_append_us: &'static Histogram,
    pub(crate) parse_us: &'static Histogram,
}

/// How long shutdown waits for queued work before cancelling in-flight
/// solves.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Flight-recorder ring capacity (recent / slowest / errors each).
const FLIGHT_REQUESTS: usize = 64;

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Wakes whoever parks in [`ServerHandle::wait_shutdown_requested`].
    pub(crate) fn request_shutdown(&self) {
        *self.shutdown_signal.lock().unwrap() = true;
        self.shutdown_cv.notify_all();
    }

    /// Access-log line for a management op.
    pub(crate) fn log_op(&self, op: &str, id: Option<&str>, outcome: &str) {
        self.log_access(op, id, vec![("outcome", str_field(outcome))]);
    }

    /// Access-log line for a `select`/`pareto` request.
    pub(crate) fn log_select(
        &self,
        op: &str,
        id: Option<&str>,
        kernel: &str,
        device: &str,
        summary: &SelectSummary,
        latency_us: u64,
    ) {
        if self.access_log.is_none() {
            return;
        }
        let mut fields = vec![
            ("kernel", str_field(kernel)),
            ("device", str_field(device)),
            ("deadline_ms", summary.deadline_ms.to_string()),
            ("outcome", str_field(summary.outcome)),
            ("cache", str_field(summary.cache)),
            ("queue_us", summary.queue_us.to_string()),
            ("solve_us", summary.solve_us.to_string()),
            (
                "fell_back",
                (summary.provenance == Some(SolutionProvenance::DefaultFallback)).to_string(),
            ),
            ("latency_us", latency_us.to_string()),
            ("git_sha", str_field(&self.provenance.git_sha)),
        ];
        if let Some(reason) = &summary.journal_error {
            // The answer went out, but its journal append failed: the
            // entry will not survive a restart.
            fields.push(("journal_error", str_field(reason)));
        }
        self.log_access(op, id, fields);
    }

    /// Appends one line to the access log (best-effort; a full line per
    /// `write_all` keeps partial lines out of the file on crash).
    fn log_access(&self, op: &str, id: Option<&str>, fields: Vec<(&str, String)>) {
        let Some(log) = &self.access_log else {
            return;
        };
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut all = vec![("ts_ms", ts_ms.to_string()), ("op", str_field(op))];
        if let Some(id) = id {
            all.push(("id", str_field(id)));
        }
        all.extend(fields);
        let mut line = object_line(&all);
        line.push('\n');
        let mut file = log.lock().unwrap();
        let _ = file.write_all(line.as_bytes());
    }
}

/// The bound address of a running server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerAddr {
    /// Bound TCP address (with the resolved ephemeral port).
    Tcp(SocketAddr),
    /// Unix socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerAddr::Tcp(a) => write!(f, "{a}"),
            #[cfg(unix)]
            ServerAddr::Unix(p) => write!(f, "{}", p.display()),
        }
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running for the process
/// lifetime (the daemon binary relies on that); tests should shut down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: ServerAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Where the server listens.
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// The bound TCP address, if TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self.addr {
            ServerAddr::Tcp(a) => Some(a),
            #[cfg(unix)]
            _ => None,
        }
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> TileCacheStats {
        self.shared.cache.lock().unwrap().stats()
    }

    /// Journal recovery info from startup.
    pub fn recovery(&self) -> eatss::RecoveryStats {
        self.shared.cache.lock().unwrap().recovery()
    }

    /// Entries warm-started from the journal at startup.
    pub fn replayed(&self) -> u64 {
        self.shared.cache.lock().unwrap().replayed()
    }

    /// Blocks until a client sends the in-band `shutdown` op (or
    /// [`ServerHandle::shutdown`] begins). The daemon binary's main
    /// thread parks here.
    pub fn wait_shutdown_requested(&self) {
        let mut requested = self.shared.shutdown_signal.lock().unwrap();
        while !*requested {
            requested = self.shared.shutdown_cv.wait(requested).unwrap();
        }
    }

    /// Graceful drain: stop accepting, finish the queue (cancelling
    /// in-flight solves if the drain budget runs out — they return
    /// anytime best-so-far), answer every waiter, close connections,
    /// join every thread, flush the journal.
    pub fn shutdown(self) -> ServerStats {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.request_shutdown();
        shared.work_cv.notify_all();

        // Wait for the queue to drain within the budget, then cancel.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        {
            let mut d = shared.dispatch.lock().unwrap();
            while (!d.queue.is_empty() || d.active > 0) && Instant::now() < deadline {
                let (next, _) = shared
                    .idle_cv
                    .wait_timeout(d, Duration::from_millis(50))
                    .unwrap();
                d = next;
            }
            if !d.queue.is_empty() || d.active > 0 {
                shared.cancel.cancel();
            }
        }
        // Workers exit once the queue is empty; cancellation guarantees
        // in-flight solves reach a checkpoint. Unblock readers.
        let conns = std::mem::take(&mut *shared.conns.lock().unwrap());
        for (conn, _) in &conns {
            conn.close_read();
        }
        // Connection threads last: each finishes writing (and counting)
        // the response it holds, so the returned stats are complete.
        let conn_threads = conns.into_iter().map(|(_, thread)| thread);
        for t in self.threads.into_iter().chain(conn_threads) {
            let _ = t.join();
        }
        let mut cache = shared.cache.lock().unwrap();
        let _ = cache.flush();
        shared.counters.snapshot()
    }
}

/// Starts the daemon.
///
/// # Errors
///
/// A configuration with no worker or no queue slot
/// ([`io::ErrorKind::InvalidInput`]); binding, journal-open, or
/// socket-configuration failures.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    if config.workers == 0 || config.queue_capacity == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a daemon needs at least one worker and one queue slot",
        ));
    }
    // The daemon self-monitors through the process-global trace
    // registry. Joining an already-active session (another in-process
    // server, or a harness that called start_collecting itself) must not
    // wipe it, so collection is only started when off.
    if !eatss_trace::collecting() {
        eatss_trace::start_collecting();
    }

    let mut cache = match &config.cache_dir {
        Some(dir) => TileCache::open(dir, config.default_arch.clone(), config.journal.clone())?,
        None => TileCache::new(config.default_arch.clone()),
    };
    // A journal can be reopened already past the garbage threshold
    // (superseded records, corrupt tails): reclaim before serving.
    auto_compact(&mut cache, config.compact_garbage_ratio);

    let (listener, addr) = listen(&config.endpoint)?;

    let access_log = match &config.access_log {
        Some(path) => Some(Mutex::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        )),
        None => None,
    };

    let workers = config.workers;
    let shared = Arc::new(Shared {
        config,
        cache: Mutex::new(cache),
        dispatch: Mutex::new(Dispatch::default()),
        work_cv: Condvar::new(),
        idle_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        shutdown_signal: Mutex::new(false),
        shutdown_cv: Condvar::new(),
        cancel: CancelToken::new(),
        counters: Counters::default(),
        conns: Mutex::new(Vec::new()),
        flight: Mutex::new(FlightRecorder::new(FLIGHT_REQUESTS)),
        access_log,
        hist: ServeHistograms {
            request_us: eatss_trace::histogram("serve.request_us"),
            queue_us: eatss_trace::histogram("serve.queue_us"),
            solve_us: eatss_trace::histogram("serve.solve_us"),
            journal_append_us: eatss_trace::histogram("serve.journal_append_us"),
            parse_us: eatss_trace::histogram("serve.parse_us"),
        },
        provenance: Provenance::collect(None),
        registry: eatss_kernels::all()
            .into_iter()
            .map(|bench| {
                let program = bench.program().map(Arc::new).map_err(|e| e.to_string());
                (bench, program)
            })
            .collect(),
    });

    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("eatss-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("eatss-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, listener))?,
        );
    }

    Ok(ServerHandle {
        shared,
        addr,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use crate::handlers::require_source;
    use crate::protocol::{parse_request, Op, ProtocolError};

    const NEST: &str = "kernel k(N) { for (i: N) A[i] = B[i] + 1; }";

    #[test]
    fn a_daemon_without_a_worker_or_a_queue_slot_does_not_start() {
        use super::{start, ServerConfig};
        for config in [
            ServerConfig {
                workers: 0,
                ..ServerConfig::default()
            },
            ServerConfig {
                queue_capacity: 0,
                ..ServerConfig::default()
            },
        ] {
            let refused = start(config).err().expect("refused");
            assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn require_source_is_a_typed_error_not_a_panic() {
        let line = format!(r#"{{"source": "{NEST}", "n": 64}}"#);
        let Op::Select(mut select) = parse_request(&line).unwrap().op else {
            panic!("expected a select");
        };
        assert_eq!(require_source(&select), Ok(NEST));
        select.source = None;
        match require_source(&select) {
            Err(ProtocolError::BadField { field, .. }) => assert_eq!(field, "source"),
            other => panic!("expected bad_field, got {other:?}"),
        }
    }
}
