//! `eatss-trace` — structured observability for the EATSS pipeline.
//!
//! A from-scratch, zero-dependency tracing layer shared by every crate in
//! the hot path (`eatss-smt`, `eatss`, `eatss-gpusim`, `eatss-ppcg`,
//! `eatss-bench`). It provides:
//!
//! * **hierarchical spans** ([`span`]) with monotonic microsecond
//!   timestamps, RAII end events and typed key/value args;
//! * **instant events** ([`instant`]) for point-in-time facts (fault
//!   injections, fallbacks, infeasibility verdicts);
//! * a **global metrics registry** ([`counter_add`], [`gauge_set`]) with
//!   canonically ordered snapshots;
//! * **deterministic event merging**: every event carries a `lane`
//!   (sweep-point index, see [`lane_scope`]) and a global sequence number;
//!   [`drain`] sorts by `(lane, seq)` so the merged stream is identical
//!   for sequential and `--jobs N` parallel sweeps — the PR 2 bit-identical
//!   guarantee extends to traces (structurally; timestamps still vary);
//! * one **sink** ([`Trace::to_chrome_json`]): Chrome `trace_events` JSON,
//!   openable at `ui.perfetto.dev` and embedded by the daemon's `trace` op;
//! * the workspace's one ordered scoped worker pool ([`par_map_ordered`]),
//!   its one FNV-1a ([`fnv1a64`]) and its one JSON reader
//!   ([`json::Json::parse`]), here because this is the base crate every
//!   caller already depends on;
//! * a **leveled logging** façade ([`error!`], [`info!`], [`debug!`]) that
//!   echoes to stderr and, when collecting, records log events in the
//!   trace.
//!
//! # Overhead budget
//!
//! When collection is disabled (the default) every entry point reduces to
//! a single relaxed atomic load — no allocation, no locking, no clock
//! read. Hot inner loops (the solver DFS, per-node propagation) are *not*
//! instrumented at all; spans sit at call boundaries (`maximize`,
//! one sweep point, one simulated launch).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

mod event;
mod hash;
pub mod histogram;
pub mod json;
mod metrics;
mod par;
mod sink;

pub use event::{ArgValue, Event, EventKind};
pub use hash::{fnv1a64, fnv1a64_from, FNV1A64_OFFSET};
pub use histogram::{histogram, Histogram, HistogramSnapshot};
pub use metrics::{counter_add, gauge_set, metrics_snapshot, MetricsSnapshot};
pub use par::par_map_ordered;
pub use sink::{Provenance, Trace};

/// Log verbosity. `Off` suppresses everything, including errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No stderr output at all.
    Off = 0,
    /// Only errors.
    Error = 1,
    /// Errors and high-level progress (default).
    Info = 2,
    /// Everything, including per-stage chatter.
    Debug = 3,
}

impl Level {
    /// Parses a CLI-style level name (`off|error|info|debug`).
    pub fn parse(text: &str) -> Option<Level> {
        match text {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// Short label used as the stderr prefix and in event payloads.
    pub fn label(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_u8(raw: u8) -> Level {
        match raw {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

static COLLECTING: AtomicBool = AtomicBool::new(false);
static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Events a pool item records, held back from [`EVENTS`] until the
    /// pool publishes them in item order; see [`Context::run`].
    static HELD: RefCell<Option<Vec<Event>>> = const { RefCell::new(None) };
}

/// True while events are being recorded. This is the *only* check on the
/// disabled path: a single relaxed atomic load.
#[inline]
pub fn collecting() -> bool {
    COLLECTING.load(Ordering::Relaxed)
}

/// Starts a collection session: clears the event buffer and the metrics
/// registry, then enables recording. Collection is process-global; callers
/// that share a process (tests) must serialize sessions.
pub fn start_collecting() {
    EPOCH.get_or_init(Instant::now);
    lock(&EVENTS).clear();
    metrics::reset();
    NEXT_SEQ.store(0, Ordering::Relaxed);
    NEXT_SPAN_ID.store(1, Ordering::Relaxed);
    COLLECTING.store(true, Ordering::Relaxed);
}

/// Stops recording without draining; [`drain`] also stops.
pub fn stop_collecting() {
    COLLECTING.store(false, Ordering::Relaxed);
}

/// Ends the collection session and returns the merged [`Trace`]: events
/// sorted in canonical `(lane, seq)` order plus a snapshot of the metrics
/// registry. Both buffers are reset for the next session.
pub fn drain(provenance: Provenance) -> Trace {
    COLLECTING.store(false, Ordering::Relaxed);
    let mut events = std::mem::take(&mut *lock(&EVENTS));
    events.sort_by_key(|e| (e.lane, e.seq));
    let metrics = metrics::snapshot_and_reset();
    Trace {
        provenance,
        events,
        metrics,
    }
}

/// Sets the stderr log level (default [`Level::Info`]).
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Current stderr log level.
pub fn log_level() -> Level {
    Level::from_u8(LOG_LEVEL.load(Ordering::Relaxed))
}

/// Whether a message at `level` would go anywhere (stderr or the trace).
/// The logging macros check this before formatting.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level != Level::Off && (level <= log_level() || collecting())
}

/// Records (and possibly echoes) a log message. Prefer the [`error!`],
/// [`info!`] and [`debug!`] macros, which skip formatting when disabled.
pub fn log(level: Level, message: String) {
    if level == Level::Off {
        return;
    }
    if level <= log_level() {
        eprintln!("[{}] {message}", level.label());
    }
    if collecting() {
        push_event(Event {
            seq: next_seq(),
            lane: current_lane(),
            ts_us: now_us(),
            cat: "log",
            name: "log".to_string(),
            args: vec![("message", ArgValue::Str(message))],
            kind: EventKind::Instant { level },
        });
    }
}

/// Logs at [`Level::Error`] (see [`log`]).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Error) {
            $crate::log($crate::Level::Error, ::std::format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`] (see [`log`]).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Info) {
            $crate::log($crate::Level::Info, ::std::format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`] (see [`log`]).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Debug) {
            $crate::log($crate::Level::Debug, ::std::format!($($arg)*));
        }
    };
}

/// Locks one of the crate's registries. Every update under these locks
/// leaves a valid map or list at every step (a panic mid-way can at most
/// drop the events a harvest had taken), so a poisoned lock is recovered
/// instead of failing every later metric or event call in the process.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn next_seq() -> u64 {
    NEXT_SEQ.fetch_add(1, Ordering::Relaxed)
}

fn push_event(event: Event) {
    HELD.with(|held| match &mut *held.borrow_mut() {
        Some(held) => held.push(event),
        None => lock(&EVENTS).push(event),
    });
}

/// Where a pool item's events belong: the lane and the innermost open
/// span of the thread that started the pool.
#[derive(Clone, Copy)]
pub(crate) struct Context {
    lane: u64,
    parent: Option<u64>,
}

/// Puts a thread's lane, span stack and held events back as they were
/// before [`Context::run`], also when the item panics.
struct Restore {
    lane: u64,
    depth: usize,
    held: Option<Vec<Event>>,
}

impl Drop for Restore {
    fn drop(&mut self) {
        LANE.with(|l| l.set(self.lane));
        SPAN_STACK.with(|s| s.borrow_mut().truncate(self.depth));
        HELD.with(|h| *h.borrow_mut() = self.held.take());
    }
}

impl Context {
    /// This thread's context.
    pub(crate) fn current() -> Context {
        Context {
            lane: current_lane(),
            parent: SPAN_STACK.with(|s| s.borrow().last().copied()),
        }
    }

    /// Runs `f` on this thread in the context: on its lane, its spans
    /// opened under its parent span, and the events it records held back
    /// and returned, for [`publish`] to add in item order.
    pub(crate) fn run<T>(self, f: impl FnOnce() -> T) -> (T, Vec<Event>) {
        let restore = Restore {
            lane: LANE.with(|l| l.replace(self.lane)),
            depth: SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let depth = stack.len();
                if let Some(parent) = self.parent.filter(|p| stack.last() != Some(p)) {
                    stack.push(parent);
                }
                depth
            }),
            held: HELD.with(|h| h.replace(Some(Vec::new()))),
        };
        let out = f();
        let events = HELD.with(|h| h.borrow_mut().take()).unwrap_or_default();
        drop(restore);
        (out, events)
    }
}

/// True on a thread while it runs an item of a pool that split.
pub(crate) fn in_pool_item() -> bool {
    HELD.with(|held| held.borrow().is_some())
}

/// Records events that [`Context::run`] held back, sequenced now: an
/// item's events follow everything recorded before, in their own order.
pub(crate) fn publish(mut events: Vec<Event>) {
    for event in &mut events {
        event.seq = next_seq();
    }
    HELD.with(|held| match &mut *held.borrow_mut() {
        Some(held) => held.append(&mut events),
        None => lock(&EVENTS).append(&mut events),
    });
}

/// Restores the previous lane on drop; see [`lane_scope`].
#[must_use = "dropping the guard immediately restores the previous lane"]
pub struct LaneGuard {
    prev: u64,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        LANE.with(|l| l.set(self.prev));
    }
}

/// Tags all events recorded by the current thread with `lane` until the
/// guard drops. Lane 0 is the main/control lane; the sweep executor uses
/// lane `point_index + 1` so events merge in canonical point order no
/// matter which worker thread processed the point.
pub fn lane_scope(lane: u64) -> LaneGuard {
    let prev = LANE.with(|l| l.replace(lane));
    LaneGuard { prev }
}

/// The lane events on this thread are currently tagged with.
pub fn current_lane() -> u64 {
    LANE.with(|l| l.get())
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique lane id (never 0, the main/control lane).
/// Long-lived services use this instead of local counters so lanes from
/// independent components sharing a process never collide — which is
/// what makes [`harvest_lane`] safe to call concurrently.
pub fn alloc_lane() -> u64 {
    NEXT_LANE.fetch_add(1, Ordering::Relaxed)
}

/// Removes and returns every recorded event tagged with `lane`, in
/// `seq` order. Events on other lanes are retained only where
/// `keep(lane)` says so — lanes still in flight pass `true`; everything
/// else (finished strays, lane-0 log chatter) is discarded. This is the
/// incremental counterpart to [`drain`] for long-running services: each
/// completed request harvests its own span tree, and the global buffer
/// stays bounded by the in-flight set instead of growing for the
/// process lifetime. Collection stays enabled.
pub fn harvest_lane(lane: u64, keep: impl Fn(u64) -> bool) -> Vec<Event> {
    let mut events = lock(&EVENTS);
    let all = std::mem::take(&mut *events);
    let mut taken = Vec::new();
    for event in all {
        if event.lane == lane {
            taken.push(event);
        } else if keep(event.lane) {
            events.push(event);
        }
    }
    drop(events);
    taken.sort_by_key(|e| e.seq);
    taken
}

/// An in-flight hierarchical span. Created by [`span`]; records a `Begin`
/// event immediately and an `End` event (carrying the args and duration)
/// when dropped. When collection is disabled the span is inert.
pub struct Span {
    id: u64,
    lane: u64,
    start_us: u64,
    cat: &'static str,
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
}

/// Opens a span named `name` in category `cat`. The span nests under the
/// innermost open span *on the same thread* (worker threads start at the
/// root). Returns an inert span when collection is disabled.
#[must_use = "a span measures until it is dropped"]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !collecting() {
        return Span {
            id: 0,
            lane: 0,
            start_us: 0,
            cat,
            name,
            args: Vec::new(),
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let lane = current_lane();
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    let start_us = now_us();
    push_event(Event {
        seq: next_seq(),
        lane,
        ts_us: start_us,
        cat,
        name: name.to_string(),
        args: Vec::new(),
        kind: EventKind::Begin { id, parent },
    });
    Span {
        id,
        lane,
        start_us,
        cat,
        name,
        args: Vec::new(),
    }
}

impl Span {
    /// True when the span is actually recording. Use this to gate
    /// expensive arg construction (string formatting, stats clones).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.id != 0
    }

    /// Attaches a typed key/value pair, emitted with the `End` event.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.id != 0 {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let end_us = now_us();
        push_event(Event {
            seq: next_seq(),
            lane: self.lane,
            ts_us: end_us,
            cat: self.cat,
            name: self.name.to_string(),
            args: std::mem::take(&mut self.args),
            kind: EventKind::End {
                id: self.id,
                dur_us: end_us.saturating_sub(self.start_us),
            },
        });
    }
}

/// Records an instant event (a point in time, no duration). Callers should
/// gate arg construction on [`collecting`]; the function itself is a no-op
/// when disabled.
pub fn instant(cat: &'static str, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    if !collecting() {
        return;
    }
    push_event(Event {
        seq: next_seq(),
        lane: current_lane(),
        ts_us: now_us(),
        cat,
        name: name.to_string(),
        args,
        kind: EventKind::Instant { level: Level::Info },
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_registry_lock_is_recovered() {
        let registry = Mutex::new(1u64);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = lock(&registry);
                panic!("a panic while the registry is locked");
            })
            .join()
        });
        assert!(panicked.is_err() && registry.is_poisoned());
        *lock(&registry) += 1;
        assert_eq!(*lock(&registry), 2, "later calls still reach the data");
    }
}
