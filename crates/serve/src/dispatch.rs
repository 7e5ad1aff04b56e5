//! Admission control and the worker pool: the bounded queue, coalescing
//! of identical in-flight requests, panic isolation, and the one place a
//! result is journaled before any waiter hears about it.

use crate::handlers::{run_job, Outcome};
use crate::protocol::Response;
use crate::server::{bump, Shared};
use eatss::cache::SelectResult;
use eatss::{EatssConfig, TileCache};
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_trace::{instant, lane_scope, span};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What a request asks about, resolved: everything the pipeline needs to
/// select, evaluate and verify.
pub(crate) struct Query {
    pub(crate) arch: GpuArch,
    /// Shared with the daemon's parsed registry for a named kernel.
    pub(crate) program: Arc<Program>,
    pub(crate) sizes: ProblemSizes,
    pub(crate) cfg: EatssConfig,
    pub(crate) evaluate: bool,
    pub(crate) verify: bool,
}

/// One admitted unit of solver work.
pub(crate) struct Job {
    pub(crate) query: Query,
    /// Coalescing key: cache key ‖ evaluate flag ‖ verify flag ‖ chaos
    /// marker (‖ a trailing op marker byte for pareto jobs).
    pub(crate) coalesce_key: Vec<u8>,
    /// Pure structural cache key.
    pub(crate) cache_key: Vec<u8>,
    pub(crate) deadline: Duration,
    /// Run the §V-B/§V-D configuration sweep and answer with the
    /// energy-vs-performance Pareto front instead of a single selection.
    pub(crate) pareto: bool,
    pub(crate) chaos: Option<String>,
    pub(crate) lane: u64,
    /// When admission enqueued the job (queue-wait measurement).
    pub(crate) admitted_at: Instant,
}

/// What a worker produced for a job: the outcome for the waiters, and
/// the committed result of a select's own solve, to journal before they
/// hear of it.
pub(crate) struct Finished {
    pub(crate) outcome: Outcome,
    pub(crate) commit: Option<SelectResult>,
}

/// What every waiter of a job receives.
pub(crate) struct Completion {
    pub(crate) outcome: Outcome,
    /// Queue wait, measured at worker pop.
    pub(crate) queue_us: u64,
    /// Worker time for the job (journaling excluded).
    pub(crate) solve_us: u64,
    /// Why a journal append failed, when one did: the answer is still
    /// served, but it will not survive a restart.
    pub(crate) journal_error: Option<String>,
}

#[derive(Default)]
pub(crate) struct Dispatch {
    pub(crate) queue: VecDeque<Job>,
    /// Waiters per coalesce key, present from admission until broadcast.
    in_flight: HashMap<Vec<u8>, Vec<mpsc::Sender<Arc<Completion>>>>,
    pub(crate) active: usize,
}

/// The channel a request waits on, and how it got there (`miss` for the
/// request that enqueued the job, `coalesced` for one that joined it).
pub(crate) type Admitted = (mpsc::Receiver<Arc<Completion>>, &'static str);

/// Admits a job, or says why not: shed by the bounded queue
/// ([`Response::Overloaded`]) or refused because the daemon is draining.
pub(crate) fn admit(shared: &Shared, job: Job) -> Result<Admitted, Response<'static>> {
    let mut d = shared.dispatch.lock().unwrap();
    if shared.shutting_down() {
        return Err(Response::shutting_down());
    }
    let (tx, rx) = mpsc::channel();
    if let Some(waiters) = d.in_flight.get_mut(&job.coalesce_key) {
        waiters.push(tx);
        bump(&shared.counters.coalesced);
        return Ok((rx, "coalesced"));
    }
    if d.queue.len() >= shared.config.queue_capacity {
        bump(&shared.counters.shed);
        let backlog = (d.queue.len() + d.active) as u64;
        let workers = shared.config.workers as u64;
        return Err(Response::Overloaded {
            retry_after_ms: (backlog * 50 / workers).clamp(50, 5000),
        });
    }
    d.in_flight.insert(job.coalesce_key.clone(), vec![tx]);
    d.queue.push_back(job);
    drop(d);
    shared.work_cv.notify_one();
    Ok((rx, "miss"))
}

pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut d = shared.dispatch.lock().unwrap();
            loop {
                if let Some(job) = d.queue.pop_front() {
                    d.active += 1;
                    break job;
                }
                if shared.shutting_down() {
                    return;
                }
                let (next, _) = shared
                    .work_cv
                    .wait_timeout(d, Duration::from_millis(100))
                    .unwrap();
                d = next;
            }
        };

        let queue_us = job.admitted_at.elapsed().as_micros() as u64;
        shared.hist.queue_us.record(queue_us);
        let solve_started = Instant::now();
        let finished =
            catch_unwind(AssertUnwindSafe(|| run_job(shared, &job))).unwrap_or_else(|payload| {
                bump(&shared.counters.panics_caught);
                instant("serve", "worker_panic", vec![]);
                Finished {
                    outcome: Outcome::Panicked(panic_message(payload.as_ref())),
                    commit: None,
                }
            });
        let solve_us = solve_started.elapsed().as_micros() as u64;
        shared.hist.solve_us.record(solve_us);

        let journal_error = finished
            .commit
            .and_then(|result| journal(shared, &job, result));
        let completion = Arc::new(Completion {
            journal_error,
            outcome: finished.outcome,
            queue_us,
            solve_us,
        });
        let waiters = {
            let mut d = shared.dispatch.lock().unwrap();
            d.active -= 1;
            let waiters = d.in_flight.remove(&job.coalesce_key);
            if d.queue.is_empty() && d.active == 0 {
                shared.idle_cv.notify_all();
            }
            waiters
        };
        if let Some(waiters) = waiters {
            // How many requests one solve answered (1 = no coalescing).
            eatss_trace::gauge_set("serve.coalesce_width", waiters.len() as f64);
            for tx in waiters {
                let _ = tx.send(Arc::clone(&completion));
            }
        }
    }
}

/// Durability before visibility: journals a select's committed result
/// under its job's cache key before any waiter hears about it. A failed
/// append is counted (`journal.append_errors`, by the cache) and its
/// reason returned.
fn journal(shared: &Shared, job: &Job, result: SelectResult) -> Option<String> {
    let _lane = lane_scope(job.lane);
    let started = Instant::now();
    let appended = {
        let _sp = span("serve", "journal_append");
        shared
            .cache
            .lock()
            .unwrap()
            .insert_key(job.cache_key.clone(), result)
    };
    shared
        .hist
        .journal_append_us
        .record(started.elapsed().as_micros() as u64);
    let threshold = shared.config.compact_garbage_ratio;
    auto_compact(&mut shared.cache.lock().unwrap(), threshold);
    appended.err().map(|e| e.to_string())
}

/// Garbage-ratio-driven journal compaction: when the journal's garbage
/// ratio is past the configured threshold, compact in place. After an
/// append this runs still on the worker thread, before the broadcast —
/// admission keeps flowing, only this worker stalls.
pub(crate) fn auto_compact(cache: &mut TileCache, threshold: Option<f64>) {
    if cache.is_durable() && threshold.is_some_and(|t| cache.garbage_ratio() > t) {
        let _sp = span("serve", "auto_compact");
        if cache.compact().is_ok() {
            eatss_trace::counter_add("journal.auto_compactions", 1);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}
