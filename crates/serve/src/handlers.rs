//! What each op does: the management ops, the `select`/`pareto` request
//! path on the connection thread (resolve → cache → admission →
//! respond), and the worker-side solve behind it.

use crate::dispatch::{admit, Finished, Job, Query};
use crate::flight::RequestRecord;
use crate::protocol::{
    parse_request, Op, ParetoReport, ProtocolError, Response, SelectRequest, SizeSpec,
    TraceQuery, VerifySummary,
};
use crate::server::{bump, ServerStats, Shared};
use crate::transport::{send, Stream};
use eatss::cache::{encode_key, SelectResult};
use eatss::persist::is_committed;
use eatss::{Eatss, EatssConfig, EatssError, EatssSolution, ModelGenerator, PipelineError};
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::ProblemSizes;
use eatss_gpusim::{DeviceProfile, Gpu, SimReport};
use eatss_kernels::Dataset;
use eatss_ppcg::OracleError;
use eatss_smt::SolverConfig;
use eatss_trace::{lane_scope, span, Event, Trace};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Handles one request line. Returns whether the connection should stay
/// open.
pub(crate) fn handle_line(shared: &Shared, stream: &mut Stream, line: &str) -> bool {
    bump(&shared.counters.requests);
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            bump(&shared.counters.protocol_errors);
            bump(&shared.counters.errors);
            let fatal = e.is_fatal();
            let _ = send(stream, None, &Response::from(&e));
            return !fatal;
        }
    };
    let id = request.id.as_deref();
    match request.op {
        Op::Select(select) => return handle_select(shared, stream, id, &select, false),
        Op::Pareto(select) => return handle_select(shared, stream, id, &select, true),
        Op::Ping => reply(shared, stream, id, "ping", &Response::Pong),
        Op::Stats => {
            refresh_gauges(shared);
            let server = shared.counters.snapshot();
            reply(shared, stream, id, "stats", &stats_response(shared, &server));
        }
        Op::Metrics => {
            refresh_gauges(shared);
            let snapshot = eatss_trace::metrics_snapshot();
            reply(shared, stream, id, "metrics", &Response::Metrics(&snapshot));
        }
        Op::Trace(query) => reply_trace(shared, stream, id, query),
        Op::Compact => {
            let response = match shared.cache.lock().unwrap().compact() {
                Ok(()) => Response::Ok,
                Err(e) => {
                    bump(&shared.counters.errors);
                    let message = e.to_string();
                    Response::Error { kind: "io", message }
                }
            };
            reply(shared, stream, id, "compact", &response);
        }
        Op::Shutdown => {
            reply(shared, stream, id, "shutdown", &Response::Ok);
            shared.request_shutdown();
        }
    }
    true
}

/// Answers a management op and writes its access-log line.
fn reply(shared: &Shared, stream: &mut Stream, id: Option<&str>, op: &str, response: &Response) {
    let _ = send(stream, id, response);
    shared.log_op(op, id, response.status());
}

/// Answers a `trace` op with the selected flight records.
fn reply_trace(shared: &Shared, stream: &mut Stream, id: Option<&str>, query: TraceQuery) {
    refresh_gauges(shared);
    let records = shared.flight.lock().unwrap().select(query.which, query.limit);
    if records.is_empty() {
        let message = "no requests recorded yet".to_string();
        let kind = "empty_flight";
        return reply(shared, stream, id, "trace", &Response::Error { kind, message });
    }
    let mut events: Vec<Event> = records.iter().flat_map(|r| r.events.iter().cloned()).collect();
    events.sort_by_key(|e| (e.lane, e.seq));
    let trace = Trace {
        provenance: shared.provenance.clone(),
        events,
        metrics: eatss_trace::metrics_snapshot(),
    };
    let (requests, trace) = (records.as_slice(), &trace);
    reply(shared, stream, id, "trace", &Response::Trace { requests, trace });
}

fn stats_response<'a>(shared: &Shared, server: &'a ServerStats) -> Response<'a> {
    let cache = shared.cache.lock().unwrap();
    Response::Stats {
        server,
        cache: cache.stats(),
        replayed: cache.replayed(),
        persisted: cache.persisted(),
        journal_bytes: cache.journal_bytes(),
        durable: cache.is_durable(),
        recovery: cache.recovery(),
    }
}

/// Publishes the self-monitoring gauges. Called from the introspection
/// ops (stats/metrics/trace), not per request — gauge freshness tracks
/// observation, and the request hot path stays gauge-free.
fn refresh_gauges(shared: &Shared) {
    let (depth, active) = {
        let d = shared.dispatch.lock().unwrap();
        (d.queue.len(), d.active)
    };
    eatss_trace::gauge_set("serve.queue_depth", depth as f64);
    eatss_trace::gauge_set("serve.in_flight", active as f64);
    let s = shared.counters.snapshot();
    let shed_rate = if s.requests > 0 {
        s.shed as f64 / s.requests as f64
    } else {
        0.0
    };
    eatss_trace::gauge_set("serve.shed_rate", shed_rate);
    // Mirror the lifetime request counters (monotone, gauge-typed
    // because the registry's counters are delta-only).
    eatss_trace::gauge_set("serve.requests", s.requests as f64);
    eatss_trace::gauge_set("serve.ok", s.ok as f64);
    eatss_trace::gauge_set("serve.errors", s.errors as f64);
    eatss_trace::gauge_set("serve.shed", s.shed as f64);
    eatss_trace::gauge_set("serve.coalesced", s.coalesced as f64);
    let (garbage, bytes, live) = {
        let cache = shared.cache.lock().unwrap();
        (cache.garbage_ratio(), cache.journal_bytes(), cache.live_bytes())
    };
    eatss_trace::gauge_set("journal.garbage_ratio", garbage);
    eatss_trace::gauge_set("journal.bytes", bytes as f64);
    eatss_trace::gauge_set("journal.live_bytes", live as f64);
}

/// What the request wrapper needs to know about how a `select` ended —
/// feeds the latency histogram, the flight recorder, and the access log.
#[derive(Default)]
pub(crate) struct SelectSummary {
    pub(crate) outcome: &'static str,
    pub(crate) cache: &'static str,
    pub(crate) deadline_ms: u64,
    pub(crate) queue_us: u64,
    pub(crate) solve_us: u64,
    pub(crate) fell_back: bool,
    pub(crate) journal_error: Option<String>,
}

/// Lanes with a request currently in flight, across every in-process
/// server (collection is process-global, so lane bookkeeping must be
/// too: a harvest by one server must not drop another server's
/// still-accumulating events). Held across the harvest so a lane
/// registered mid-harvest cannot be missed.
static ACTIVE_LANES: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());

/// One `select`/`pareto` request on a connection: where its answer goes
/// and what is recorded about it.
struct Exchange<'a> {
    shared: &'a Shared,
    stream: &'a mut Stream,
    id: Option<&'a str>,
    started: Instant,
    /// Process-unique trace lane; worker-side spans land on it too (the
    /// job carries it).
    lane: u64,
    summary: SelectSummary,
}

/// The observability wrapper around a `select` request: runs it under
/// its own trace lane, then harvests the lane's events into the flight
/// recorder, records the end-to-end latency histogram, and writes the
/// access-log line. The worker closes its spans before broadcasting the
/// outcome, so the harvest here sees the complete span tree.
fn handle_select(
    shared: &Shared,
    stream: &mut Stream,
    id: Option<&str>,
    select: &SelectRequest,
    pareto: bool,
) -> bool {
    let mut exchange = Exchange {
        shared,
        stream,
        id,
        started: Instant::now(),
        lane: eatss_trace::alloc_lane(),
        summary: SelectSummary {
            outcome: "error",
            cache: "none",
            ..SelectSummary::default()
        },
    };
    let lane = exchange.lane;
    ACTIVE_LANES.lock().unwrap().insert(lane);
    let keep = {
        let _lane = lane_scope(lane);
        exchange.run(select, pareto)
    };
    let Exchange { started, summary, .. } = exchange;
    let dur_us = started.elapsed().as_micros() as u64;
    shared.hist.request_us.record(dur_us);
    // Remove this lane and harvest it under the registry lock: a lane
    // registered mid-harvest stays protected, lanes of abandoned
    // requests do not accumulate in the process-global event buffer.
    let events = {
        let mut active = ACTIVE_LANES.lock().unwrap();
        active.remove(&lane);
        eatss_trace::harvest_lane(lane, |l| active.contains(&l))
    };
    let kernel = select.kernel.as_deref().unwrap_or("<source>");
    shared.flight.lock().unwrap().push(RequestRecord {
        id: id.map(str::to_owned),
        kernel: kernel.to_owned(),
        lane,
        outcome: summary.outcome.to_string(),
        cache: summary.cache.to_string(),
        dur_us,
        events,
    });
    let op = if pareto { "pareto" } else { "select" };
    let device = select.arch.as_deref().unwrap_or(&shared.config.default_arch.name);
    shared.log_select(op, id, kernel, device, &summary, dur_us);
    keep
}

impl Exchange<'_> {
    /// Resolve → cache → admission → wait → respond. Returns whether the
    /// connection should stay open.
    fn run(&mut self, select: &SelectRequest, pareto: bool) -> bool {
        let shared = self.shared;
        let mut sp = span("serve", "request");
        sp.arg("kernel", select.kernel.clone().unwrap_or_default());

        let query = match resolve_request(shared, select) {
            Ok(query) => query,
            Err(e) => {
                bump(&shared.counters.protocol_errors);
                self.finish(&Response::from(&e));
                return true;
            }
        };
        let deadline = select
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(shared.config.default_deadline)
            .min(shared.config.max_deadline);
        self.summary.deadline_ms = deadline.as_millis() as u64;

        let cache_key = encode_key(&query.arch, &query.program, &query.sizes, &query.cfg);
        let chaos = select.chaos.clone().filter(|_| shared.config.allow_chaos);

        // Fast path: answer cache hits without touching the queue.
        // Evaluate runs inline off the cached solution (compile +
        // simulate, no solver). Pareto requests span many configurations,
        // so one cached selection cannot answer them — they always go
        // through the queue.
        if chaos.is_none() && !pareto {
            if let Some(outcome) = cached_outcome(shared, &query, &cache_key) {
                self.summary.cache = "hit";
                self.respond(&outcome);
                return true;
            }
        }

        let mut coalesce_key = cache_key.clone();
        coalesce_key.push(query.evaluate as u8);
        coalesce_key.push(query.verify as u8);
        if let Some(c) = &chaos {
            coalesce_key.extend_from_slice(c.as_bytes());
        }
        if pareto {
            // Op marker: a pareto request must never coalesce with a
            // select of the same configuration (the outcomes have
            // different shapes).
            coalesce_key.push(0xEA);
        }
        let job = Job {
            query,
            coalesce_key,
            cache_key,
            deadline,
            pareto,
            chaos,
            lane: self.lane,
            admitted_at: Instant::now(),
        };
        let rx = match admit(shared, job) {
            Ok((rx, cache)) => {
                self.summary.cache = cache;
                rx
            }
            Err(refusal) => {
                self.finish(&refusal);
                return true;
            }
        };
        match rx.recv() {
            Ok(done) => {
                self.summary.queue_us = done.queue_us;
                self.summary.solve_us = done.solve_us;
                self.summary.journal_error = done.journal_error.clone();
                self.respond(&done.outcome);
                true
            }
            Err(_) => {
                // Worker side dropped without sending — only possible on
                // a hard shutdown race.
                self.finish(&Response::shutting_down());
                false
            }
        }
    }

    /// Turns a job's outcome into its response.
    fn respond(&mut self, outcome: &Outcome) {
        let cache = self.summary.cache;
        let latency_ms = self.started.elapsed().as_secs_f64() * 1000.0;
        let error = |kind, message: &str| Response::Error {
            kind,
            message: message.to_string(),
        };
        let (response, verify) = match outcome {
            Outcome::Panicked(message) => (error("worker_panic", message), None),
            Outcome::Pareto(Err(message)) => (error("pareto", message), None),
            Outcome::Pareto(Ok(report)) => {
                let response = Response::Pareto {
                    report,
                    cache,
                    latency_ms,
                };
                (response, report.verify.as_ref())
            }
            Outcome::Done {
                result,
                eval,
                verify,
                fell_back,
            } => {
                self.summary.fell_back = *fell_back;
                let response = match result {
                    Ok(solution) => Response::Selected {
                        solution,
                        cache,
                        fell_back: *fell_back,
                        latency_ms,
                        eval: eval.as_ref(),
                        verify: verify.as_ref(),
                    },
                    Err(EatssError::Unsatisfiable { reason }) => Response::Infeasible {
                        reason,
                        cache,
                        latency_ms,
                    },
                    Err(e) => {
                        Response::from(&PipelineError::from_eatss(e.clone(), "serve"))
                    }
                };
                (response, verify.as_ref())
            }
        };
        if matches!(verify, Some(Ok(_))) {
            bump(&self.shared.counters.verified);
        }
        self.finish(&response);
    }

    /// The one exit of a request: sends the response, whatever it is,
    /// and accounts for it in the server counters and the summary.
    fn finish(&mut self, response: &Response) {
        let counters = &self.shared.counters;
        self.summary.outcome = match response {
            Response::Error { kind: "shutting_down", .. } => "shutting_down",
            other => other.status(),
        };
        match response.status() {
            "ok" => bump(&counters.ok),
            "infeasible" => bump(&counters.infeasible),
            "error" => bump(&counters.errors),
            // `overloaded`: admission already counted it as `shed`.
            _ => {}
        }
        let _ = send(self.stream, self.id, response);
    }
}

fn resolve_request(shared: &Shared, select: &SelectRequest) -> Result<Query, ProtocolError> {
    // Any built-in device profile is addressable; the registry is the
    // single source of device truth (`crates/gpusim/profiles/`).
    let arch = match select.arch.as_deref() {
        None => shared.config.default_arch.clone(),
        Some(name) => match DeviceProfile::builtin(name) {
            Some(profile) => profile.into_arch(),
            None => {
                return Err(ProtocolError::BadField {
                    field: "device",
                    expected: "a built-in device profile (\"ga100\", \"xavier\", \"h100\", \"orin\" or \"nano\")",
                })
            }
        },
    };
    let explicit =
        |pairs: &[(String, i64)]| ProblemSizes::new(pairs.iter().map(|(k, v)| (k.as_str(), *v)));

    let (program, sizes) = if let Some(name) = &select.kernel {
        let bench = eatss_kernels::by_name(name)
            .ok_or_else(|| ProtocolError::UnknownKernel(name.clone()))?;
        let program = bench
            .program()
            .map_err(|e| ProtocolError::BadSource(e.to_string()))?;
        let sizes = match &select.sizes {
            SizeSpec::Dataset(d) if d == "xl" => bench.sizes(Dataset::ExtraLarge),
            SizeSpec::Dataset(_) => bench.sizes(Dataset::Standard),
            SizeSpec::Uniform(n) => bench.sizes_uniform(*n),
            SizeSpec::Explicit(pairs) => explicit(pairs),
        };
        (program, sizes)
    } else {
        let source = require_source(select)?;
        let t0 = Instant::now();
        let parsed = parse_program(source);
        shared
            .hist
            .parse_us
            .record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        let program = parsed.map_err(|e| ProtocolError::BadSource(e.to_string()))?;
        let sizes = match &select.sizes {
            SizeSpec::Uniform(n) => ProblemSizes::uniform(program.params(), *n),
            SizeSpec::Explicit(pairs) => explicit(pairs),
            // Named datasets only exist for named benchmarks.
            SizeSpec::Dataset(_) => return Err(ProtocolError::MissingField("sizes")),
        };
        (program, sizes)
    };
    Ok(Query {
        arch,
        program,
        sizes,
        cfg: select.eatss_config(),
        evaluate: select.evaluate,
        verify: select.verify,
    })
}

/// A select request must name either a registered `kernel` or carry
/// inline `source`. The protocol layer lets both be absent (other ops
/// share the envelope), so the resolver enforces it as a typed
/// `bad_field` error instead of panicking the worker.
pub(crate) fn require_source(select: &SelectRequest) -> Result<&str, ProtocolError> {
    select.source.as_deref().ok_or(ProtocolError::BadField {
        field: "source",
        expected: "either `kernel` or `source` on a select request",
    })
}

/// How a job ended, as every waiter hears it. Short-lived (one per job,
/// shared by its waiters), so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Outcome {
    /// A selection with the extras the request asked for.
    Done {
        result: SelectResult,
        eval: Option<Result<SimReport, String>>,
        verify: Option<Result<VerifySummary, String>>,
        fell_back: bool,
    },
    Pareto(Result<ParetoReport, String>),
    Panicked(String),
}

/// The post-solve step every `select` answer goes through, whether its
/// result came from the cache or from a fresh solve: measure and verify
/// the tiles, as asked.
fn answer(shared: &Shared, query: &Query, result: SelectResult, fell_back: bool) -> Outcome {
    let solved = result.as_ref().ok();
    let eval = solved
        .filter(|_| query.evaluate)
        .map(|s| run_eval(shared, query, s));
    // The selection and the `32^d` PPCG default (the daemon's fallback
    // answer) share one oracle pass; only the selection's verdict gates
    // the response.
    let verify = solved.filter(|_| query.verify).map(|s| {
        let fallback = TileConfig::ppcg_default(query.program.max_depth());
        run_verify(query, &[(&query.cfg, &s.tiles), (&query.cfg, &fallback)], 1)
    });
    Outcome::Done {
        result,
        eval,
        verify,
        fell_back,
    }
}

/// Answers from the cache when the key is committed — on the connection
/// thread, or on a worker whose job lost a race to an identical one.
fn cached_outcome(shared: &Shared, query: &Query, cache_key: &[u8]) -> Option<Outcome> {
    let result = shared.cache.lock().unwrap().lookup_key(cache_key)?;
    Some(answer(shared, query, result, false))
}

/// The worker side of a job.
pub(crate) fn run_job(shared: &Shared, job: &Job) -> Finished {
    let _lane = lane_scope(job.lane);
    let mut sp = span("serve", "solve");
    sp.arg("deadline_ms", job.deadline.as_millis() as i64);

    if let Some(chaos) = &job.chaos {
        if chaos == "panic" {
            panic!("chaos: requested panic");
        }
        if let Some(ms) = chaos.strip_prefix("sleep:").and_then(|s| s.parse::<u64>().ok()) {
            std::thread::sleep(Duration::from_millis(ms.min(60_000)));
        }
    }

    if job.pareto {
        return run_pareto(shared, job);
    }
    let query = &job.query;

    // A racing identical request may have committed between this job's
    // admission (cache miss) and now; serve the committed entry.
    if let Some(outcome) = cached_outcome(shared, query, &job.cache_key) {
        return Finished { outcome, commit: None };
    }

    // A cold solve of the request's own formulation: the answer is what
    // `Eatss::select_tiles` returns, whatever the daemon served before.
    let solver_config = SolverConfig {
        deadline: Some(job.deadline),
        cancel: Some(shared.cancel.clone()),
        ..SolverConfig::default()
    };
    let solved = ModelGenerator::new(&query.arch, query.cfg.clone())
        .with_solver_config(solver_config)
        .build(&query.program, Some(&query.sizes))
        .and_then(|model| model.solve());

    // The anytime ladder's last rung: budget exhausted with nothing
    // feasible found ⇒ PPCG's default 32^d tiling, marked as fallback.
    let (result, fell_back) = match solved {
        Err(EatssError::Exhausted { .. }) => {
            bump(&shared.counters.fallbacks);
            let depth = query.program.max_depth();
            (Ok(EatssSolution::ppcg_default(depth)), true)
        }
        other => (other, false),
    };
    let commit = is_committed(&result).then(|| result.clone());
    let outcome = answer(shared, query, result, fell_back);
    Finished { outcome, commit }
}

/// Answers an `{"op":"pareto"}` job: sweeps the §V-B splits at the
/// requested warp fraction (both thread-block cap readings, default
/// precision) on the requested device and returns the non-dominated
/// energy-vs-performance front. Nothing is journaled: the sweep solves
/// along warm chains, and its points answer this request, not a later
/// `select`.
fn run_pareto(shared: &Shared, job: &Job) -> Finished {
    let query = &job.query;
    let mut sp = span("serve", "pareto");
    sp.arg("device", query.arch.name.clone());
    let eatss = Eatss::new(query.arch.clone());
    // One rung, the job's deadline per configuration: the daemon's
    // latency contract is per-request, not per-campaign — a point that
    // exhausts its slice degrades to the measured 32^d fallback instead
    // of stalling the worker. Shutdown cancels it as it does a select.
    let options = eatss::SweepOptions {
        attempts: vec![SolverConfig {
            deadline: Some(job.deadline),
            cancel: Some(shared.cancel.clone()),
            ..SolverConfig::default()
        }],
        jobs: 1,
    };
    let outcome = match eatss.sweep_with(
        &query.program,
        &query.sizes,
        &eatss::sweep::PAPER_SPLITS,
        &[query.cfg.warp_fraction],
        &options,
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            return Finished {
                outcome: Outcome::Pareto(Err(e.to_string())),
                commit: None,
            }
        }
    };

    let front_points = outcome.pareto_front();
    // Unlike a selection's fallback config, every front point is a real
    // answer the daemon is returning: all of them must map and agree,
    // each under its own split's codegen.
    let verify = query.verify.then(|| {
        let front: Vec<_> = front_points
            .iter()
            .map(|p| (&p.config, &p.solution.tiles))
            .collect();
        run_verify(query, &front, front.len())
    });
    Finished {
        outcome: Outcome::Pareto(Ok(ParetoReport {
            device: query.arch.name.clone(),
            front: front_points.into_iter().cloned().collect(),
            points: outcome.points.len(),
            infeasible: outcome.infeasible.len(),
            verify,
        })),
        commit: None,
    }
}

fn run_eval(shared: &Shared, query: &Query, solution: &EatssSolution) -> Result<SimReport, String> {
    let gpu = match &shared.config.fault_plan {
        Some(plan) => Gpu::with_faults(query.arch.clone(), plan.clone()),
        None => Gpu::new(query.arch.clone()),
    };
    Eatss::with_gpu(gpu)
        .evaluate(&query.program, &solution.tiles, &query.sizes, &query.cfg)
        .map_err(|e| e.to_string())
}

/// Verifies `configs` bitwise against the reference interpreter through
/// [`Eatss::verify`] — each compiled the way its configuration compiles
/// it for the query's device, the code the daemon's answer stands for.
/// The first `required` configs must map and agree; a later one that
/// fails to *map* is not a finding.
fn run_verify(
    query: &Query,
    configs: &[(&EatssConfig, &TileConfig)],
    required: usize,
) -> Result<VerifySummary, String> {
    let verdicts = Eatss::new(query.arch.clone()).verify(
        &query.program,
        &query.sizes,
        configs,
        eatss::VERIFY_SEED,
    );
    let mut summary = VerifySummary::default();
    for (i, verdict) in verdicts.into_iter().enumerate() {
        match verdict {
            Ok(report) => {
                summary.configs += 1;
                summary.points += report.points;
            }
            Err(OracleError::Compile(_)) if i >= required => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(summary)
}
