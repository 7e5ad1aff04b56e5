//! `serve-mixed`: the daemon around the pipeline. An in-process
//! `eatss_serve::start` with product defaults (two workers, a journal in a
//! fresh directory; its sync policy is the caller's) serves closed-loop
//! clients over TCP loopback — compiler drivers each wait for their
//! reply. The seeded mix is 80% repeats of prefilled keys (cache hits),
//! 15% named kernels at a never-seen size (queue → solve → journal
//! append) and 5% inline source (parse and parse cache, then the same).
//!
//! `start` switches the library's `eatss_trace` collection on — that is
//! how the daemon feeds its own `metrics` op — so this is the one
//! workload that runs with it on, as the product does.

use super::{geomean_ratios, in_reference_time, Slice, Window, Workload};
use crate::inputs::{self, Key, ServeOp, ServeStream};
use crate::metrics::{peak_rss_mb, quantile, reference_ms, slowdown};
use crate::pipeline::{self, ratios_vs_default};
use crate::spans::Recorder;
use eatss::{Eatss, EatssConfig, EatssError, SyncPolicy};
use eatss_affine::ir::Extent;
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_serve::client::SelectArgs;
use eatss_serve::{start, Client, ServerConfig, ServerHandle};
use eatss_trace::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Inline programs kept from the candidate stream.
const INLINE_POOL: usize = 8;
/// Requests each client issues, untimed, before the first window.
const WARMUP_OPS: usize = 256;
/// One reply in this many is re-derived through the library afterwards
/// (hits are all covered through their keys instead).
const SAMPLE_EVERY: u64 = 16;
/// Journaled keys re-asked after a restart.
const REASKED_AFTER_RESTART: usize = 32;
/// A slice of a serve window: half a second of traffic. The clients stop
/// between slices, so the machine reference is sampled on an idle box.
const SLICE: Duration = Duration::from_millis(500);
/// Machine-reference samples taken between two slices; a slice is stated
/// against those before and after it.
const REFERENCE_SAMPLES_PER_SLICE: usize = 3;
/// `peak_rss_mb` is read when the first client has issued this many
/// requests of the window (at its end, if it never does). The daemon's
/// cache and journal index grow with every miss served, so `VmHWM` at the
/// end of a *timed* window would mostly say how fast the box was.
const RSS_MARK_OPS: u64 = 20_000;

/// What the daemon answered, reduced to what is compared.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Tiles(Vec<i64>),
    Infeasible,
}

#[derive(Debug, Clone)]
struct Reply {
    answer: Answer,
    /// Served from the tile cache without solving.
    hit: bool,
    /// This request's own solve produced a result the daemon journals
    /// (proved optimal, or proved infeasible).
    journaled: bool,
}

/// The class of request a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Miss,
    Inline,
}

fn class_of(op: &ServeOp) -> Class {
    match op {
        ServeOp::Hit(_) => Class::Hit,
        ServeOp::Miss { .. } => Class::Miss,
        ServeOp::Inline { .. } => Class::Inline,
    }
}

fn parse_reply(json: &Json) -> Result<Reply, String> {
    let status = json
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("<none>");
    let cache = json.get("cache").and_then(Json::as_str);
    let (hit, solved_now) = (cache == Some("hit"), cache == Some("miss"));
    match status {
        "ok" => {
            let tiles = json
                .get("tiles")
                .and_then(Json::as_array)
                .ok_or("ok reply without tiles")?
                .iter()
                .map(|t| t.as_f64().map(|v| v as i64).ok_or("non-numeric tile"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Reply {
                answer: Answer::Tiles(tiles),
                hit,
                journaled: solved_now
                    && json.get("provenance").and_then(Json::as_str) == Some("solved"),
            })
        }
        "infeasible" => Ok(Reply {
            answer: Answer::Infeasible,
            hit,
            journaled: solved_now,
        }),
        other => Err(format!("daemon answered `{other}`: {json:?}")),
    }
}

/// The library's answer to the same question.
fn library_answer(
    eatss: &Eatss,
    program: &Program,
    sizes: &ProblemSizes,
    config: &EatssConfig,
) -> Result<Answer, String> {
    match eatss.select_tiles(program, sizes, config) {
        Ok(solution) => Ok(Answer::Tiles(solution.tiles.sizes().to_vec())),
        Err(EatssError::Unsatisfiable { .. }) => Ok(Answer::Infeasible),
        Err(e) => Err(format!("{}: library select: {e}", program.name)),
    }
}

/// The uniform sizes the daemon binds for inline source: every extent
/// parameter set to `n`.
fn uniform_sizes(program: &Program, n: i64) -> ProblemSizes {
    let mut params = BTreeSet::new();
    for kernel in &program.kernels {
        for dim in &kernel.dims {
            if let Extent::Param(p) = &dim.extent {
                params.insert(p.as_str());
            }
        }
    }
    ProblemSizes::uniform(params, n)
}

/// What both sides need to know about the daemon's fixed inputs.
struct Inputs {
    keys: Vec<Key>,
    /// The daemon's prefill answer per key.
    expected: Vec<Answer>,
    inline: Vec<(String, Program)>,
    engines: BTreeMap<&'static str, Eatss>,
}

impl Inputs {
    fn request(&self, op: &ServeOp) -> SelectArgs {
        let (kernel, source, device, n, warp_frac) = match op {
            ServeOp::Hit(k) => {
                let key = &self.keys[*k];
                (
                    Some(key.bench.name),
                    None,
                    key.device,
                    key.n,
                    inputs::config_for(key.bench.name).warp_fraction,
                )
            }
            ServeOp::Miss { kernel, device, n } => (
                Some(*kernel),
                None,
                *device,
                *n,
                inputs::config_for(kernel).warp_fraction,
            ),
            ServeOp::Inline { program, device, n } => (
                None,
                Some(self.inline[*program].0.clone()),
                *device,
                *n,
                EatssConfig::default().warp_fraction,
            ),
        };
        SelectArgs {
            kernel: kernel.map(str::to_string),
            source,
            n: Some(n),
            warp_frac: Some(warp_frac),
            arch: Some(device.to_string()),
            ..SelectArgs::default()
        }
    }

    /// Answers `op` through the library alone.
    fn library(&self, op: &ServeOp) -> Result<Answer, String> {
        match op {
            ServeOp::Hit(k) => {
                let key = &self.keys[*k];
                let program = key.bench.program().map_err(|e| e.to_string())?;
                let config = inputs::config_for(key.bench.name);
                library_answer(
                    &self.engines[key.device],
                    &program,
                    &key.bench.sizes_uniform(key.n),
                    &config,
                )
            }
            ServeOp::Miss { kernel, device, n } => {
                let bench = eatss_kernels::by_name(kernel)
                    .ok_or_else(|| format!("unknown kernel {kernel}"))?;
                let program = bench.program().map_err(|e| e.to_string())?;
                library_answer(
                    &self.engines[device],
                    &program,
                    &bench.sizes_uniform(*n),
                    &inputs::config_for(kernel),
                )
            }
            ServeOp::Inline { program, device, n } => {
                let program = &self.inline[*program].1;
                library_answer(
                    &self.engines[device],
                    program,
                    &uniform_sizes(program, *n),
                    &EatssConfig::default(),
                )
            }
        }
    }
}

/// One answered request, kept until the post-window checks are done.
struct Sample {
    latency_ns: u64,
    /// The slice of the session the reply arrived in.
    slice: u32,
    class: Class,
    /// Cleared when a post-window check fails the op.
    correct: bool,
}

/// A reply held back for the post-window library check.
struct Pending {
    op: ServeOp,
    answer: Answer,
    /// Index of the op's sample.
    sample: usize,
}

/// What the clients gathered in one run, merged.
pub struct Session {
    pub window: Window,
    /// Per slice: its wall time, from its clients' start to their last
    /// reply, and the machine-reference samples taken around it.
    slices: Vec<(u64, Vec<f64>)>,
    samples: Vec<Sample>,
    pending: Vec<Pending>,
    /// (key, sample) of every hit, so a key the library later disagrees
    /// on takes all its ops with it.
    hits: Vec<(u32, u32)>,
    hit_replies: u64,
    journaled: Vec<ServeOp>,
    /// `VmHWM` at [`RSS_MARK_OPS`], if the first client got that far.
    rss_mark_mb: Option<f64>,
}

impl Session {
    fn new(recorder: Option<Recorder>) -> Self {
        Session {
            window: Window::new(recorder),
            slices: Vec::new(),
            samples: Vec::new(),
            pending: Vec::new(),
            hits: Vec::new(),
            hit_replies: 0,
            journaled: Vec::new(),
            rss_mark_mb: None,
        }
    }

    /// Merges `part`: a client's share of a slice (no wall of its own),
    /// or whole slices, which follow the ones already here.
    fn absorb(&mut self, part: Session) {
        let base = self.samples.len();
        let slice_base = self.slices.len() as u32;
        self.slices.extend(part.slices);
        self.window.attempted += part.window.attempted;
        self.window
            .absorb_failures(part.window.failed, part.window.failures);
        if let (Some(all), Some(rec)) = (&mut self.window.recorder, part.window.recorder) {
            all.absorb(rec);
        }
        self.samples.extend(part.samples.into_iter().map(|mut s| {
            s.slice += slice_base;
            s
        }));
        self.pending.extend(part.pending.into_iter().map(|mut p| {
            p.sample += base;
            p
        }));
        self.hits
            .extend(part.hits.into_iter().map(|(k, s)| (k, s + base as u32)));
        self.hit_replies += part.hit_replies;
        self.journaled.extend(part.journaled);
        self.rss_mark_mb = self.rss_mark_mb.or(part.rss_mark_mb);
    }

    /// Fails an op that had been counted correct; its latency sample no
    /// longer counts.
    fn retract(&mut self, sample: usize, reason: String) {
        if std::mem::replace(&mut self.samples[sample].correct, false) {
            self.window.fail(reason);
        }
    }

    /// Median round trip of the correct requests of `class` (all classes
    /// for `None`), in microseconds; 0 when there were none.
    pub fn p50_us(&self, class: Option<Class>) -> f64 {
        let mut ns: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.correct && class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_ns)
            .collect();
        if ns.is_empty() {
            return 0.0;
        }
        ns.sort_unstable();
        quantile(&ns, 0.5) as f64 / 1e3
    }

    /// Replies served from the cache ÷ replies.
    pub fn hit_ratio(&self) -> f64 {
        self.hit_replies as f64 / self.samples.len().max(1) as f64
    }

    /// Reduces the correct samples of each slice, on the wall clock and
    /// against the reference samples taken around the slice.
    fn into_window(mut self) -> Window {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); self.slices.len()];
        for s in self.samples.iter().filter(|s| s.correct) {
            buckets[s.slice as usize].push(s.latency_ns);
        }
        for (measured, (wall_ns, reference)) in buckets.iter_mut().zip(&self.slices) {
            let slowdown = slowdown(reference);
            let mut scaled: Vec<u64> = measured
                .iter()
                .map(|ns| in_reference_time(*ns, slowdown))
                .collect();
            self.window.slices.extend(Slice::of(
                &mut scaled,
                in_reference_time(*wall_ns, slowdown),
            ));
            self.window.measured.extend(Slice::of(measured, *wall_ns));
        }
        self.window
    }
}

struct ClientState {
    conn: Client,
    stream: ServeStream,
    issued: u64,
}

impl ClientState {
    /// One request. Returns the parsed reply and the round-trip time.
    fn issue(
        &mut self,
        inputs: &Inputs,
        op: &ServeOp,
        rec: Option<&mut Recorder>,
    ) -> (Result<Reply, String>, Duration) {
        let args = inputs.request(op);
        let id = self.issued;
        self.issued += 1;
        let started = Instant::now();
        let raw = match rec {
            Some(rec) => {
                let root = rec.begin_op(id);
                let raw = rec.time("serve.roundtrip", || self.conn.select(&args));
                rec.exit(root);
                raw
            }
            None => self.conn.select(&args),
        };
        let latency = started.elapsed();
        let reply = raw
            .map_err(|e| format!("round trip: {e}"))
            .and_then(|json| parse_reply(&json));
        (reply, latency)
    }

    /// Issues requests until `limit`, recording spans against
    /// `trace_epoch` if there is one. Reads `VmHWM` on issuing its
    /// `rss_mark_at`-th request.
    fn run(
        &mut self,
        inputs: &Inputs,
        limit: Limit,
        trace_epoch: Option<Instant>,
        rss_mark_at: Option<u64>,
    ) -> Session {
        let started = Instant::now();
        let mut out = Session::new(trace_epoch.map(Recorder::new));
        while limit.allows(started, out.window.attempted) {
            let op = self.stream.next().expect("the request stream is endless");
            let sampled = self.issued.is_multiple_of(SAMPLE_EVERY);
            let (reply, latency) = self.issue(inputs, &op, out.window.recorder.as_mut());
            out.window.attempted += 1;
            if rss_mark_at == Some(self.issued) {
                out.rss_mark_mb = peak_rss_mb().ok();
            }
            let reply = match reply {
                Ok(reply) => reply,
                Err(reason) => {
                    out.window.fail(reason);
                    continue;
                }
            };
            out.hit_replies += u64::from(reply.hit);
            let sample = out.samples.len();
            match &op {
                ServeOp::Hit(k) => {
                    if reply.answer != inputs.expected[*k] {
                        out.window.fail(format!(
                            "key {k}: {:?} now, {:?} at prefill",
                            reply.answer, inputs.expected[*k]
                        ));
                        continue;
                    }
                    out.hits.push((*k as u32, sample as u32));
                }
                _ => {
                    if reply.journaled {
                        out.journaled.push(op.clone());
                    }
                    if sampled {
                        out.pending.push(Pending {
                            op: op.clone(),
                            answer: reply.answer,
                            sample,
                        });
                    }
                }
            }
            out.samples.push(Sample {
                latency_ns: latency.as_nanos() as u64,
                slice: 0,
                class: class_of(&op),
                correct: true,
            });
        }
        out
    }
}

/// How long a client keeps issuing: a time window, or a fixed count (the
/// layer tour, whose counts must not depend on the clock).
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    For(Duration),
    Ops(u64),
}

impl Limit {
    fn allows(self, started: Instant, issued: u64) -> bool {
        match self {
            Limit::For(dur) => started.elapsed() < dur,
            Limit::Ops(n) => issued < n,
        }
    }
}

pub struct ServeMixed {
    dir: PathBuf,
    sync: SyncPolicy,
    handle: Option<ServerHandle>,
    clients: Vec<ClientState>,
    inputs: Inputs,
    /// Per prefilled key: whether the library agreed with `expected`.
    key_verdicts: Vec<Option<Result<(), String>>>,
    /// Results the daemon reported journaling, and the latest few.
    journaled: u64,
    recent_journaled: Vec<ServeOp>,
}

fn server_config(dir: &Path, sync: SyncPolicy) -> ServerConfig {
    let mut config = ServerConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    config.journal.sync = sync;
    config
}

fn connect(handle: &ServerHandle) -> Result<Client, String> {
    let addr = handle.tcp_addr().ok_or("daemon is not on TCP")?;
    Client::connect_tcp(&addr.to_string()).map_err(|e| format!("connect {addr}: {e}"))
}

impl ServeMixed {
    /// Set-up: pick the inline pool, start the daemon on a fresh journal
    /// directory under `out_dir` appended to under `sync`, prefill `keys`,
    /// connect `clients` clients and run each through a warm-up.
    pub fn new(
        seed: u64,
        keys: Vec<Key>,
        clients: usize,
        sync: SyncPolicy,
        out_dir: &Path,
    ) -> Result<Self, String> {
        let engines = pipeline::engines();
        // Candidates the library can answer on both inline devices at
        // their first fresh size; later sizes may be infeasible, which
        // the daemon and the library must then agree on.
        let inline: Vec<(String, Program)> = inputs::inline_candidates()
            .filter_map(|source| parse_program(&source).ok().map(|program| (source, program)))
            .filter(|(_, program)| {
                inputs::TESTBED_DEVICES.iter().all(|device| {
                    let sizes = uniform_sizes(program, inputs::fresh_size(device, 0));
                    engines[device]
                        .select_tiles(program, &sizes, &EatssConfig::default())
                        .is_ok()
                })
            })
            .take(INLINE_POOL)
            .collect();

        let dir = out_dir.join(format!("serve-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let handle = start(server_config(&dir, sync)).map_err(|e| format!("daemon start: {e}"))?;

        let mut workload = ServeMixed {
            dir,
            sync,
            clients: Vec::new(),
            key_verdicts: vec![None; keys.len()],
            inputs: Inputs {
                expected: Vec::with_capacity(keys.len()),
                keys,
                inline,
                engines,
            },
            journaled: 0,
            recent_journaled: Vec::new(),
            handle: Some(handle),
        };
        workload.prefill()?;
        for c in 0..clients {
            workload.clients.push(ClientState {
                conn: connect(workload.handle())?,
                stream: ServeStream::new(
                    seed,
                    c,
                    clients,
                    &workload.inputs.keys,
                    workload.inputs.inline.len(),
                ),
                issued: 0,
            });
        }
        let warmup = workload
            .run_clients(Limit::Ops(WARMUP_OPS as u64), false)
            .window;
        if warmup.failed > 0 {
            return Err(format!(
                "warm-up: {} of {} requests failed: {:?}",
                warmup.failed, warmup.attempted, warmup.failures
            ));
        }
        Ok(workload)
    }

    /// The timed workload. Its journal is appended to without `fsync`: on
    /// a shared host's virtual disk a flush times the other tenants, and it
    /// was most of what moved this workload between runs of one commit.
    /// Encoding, the write and the index update stay on the miss path; the
    /// layer tour measures the durable append (`core.persist.append_us`,
    /// `serve.journal_append_us_p50`).
    pub fn seeded(seed: u64, clients: usize, out_dir: &Path) -> Result<Self, String> {
        ServeMixed::new(
            seed,
            inputs::catalogue(),
            clients,
            SyncPolicy::Never,
            out_dir,
        )
    }

    fn handle(&self) -> &ServerHandle {
        self.handle
            .as_ref()
            .expect("the daemon runs until it is stopped")
    }

    /// Every key once, in order, on one connection: a miss, or a hit
    /// where an earlier key is structurally the same request.
    fn prefill(&mut self) -> Result<(), String> {
        let mut conn = connect(self.handle())?;
        for k in 0..self.inputs.keys.len() {
            let args = self.inputs.request(&ServeOp::Hit(k));
            let json = conn
                .select(&args)
                .map_err(|e| format!("prefill key {k}: {e}"))?;
            let reply = parse_reply(&json).map_err(|e| format!("prefill key {k}: {e}"))?;
            self.journaled += u64::from(reply.journaled);
            self.inputs.expected.push(reply.answer);
        }
        Ok(())
    }

    /// Runs every client to `limit` on its own thread and merges what
    /// they gathered: a session of one slice.
    pub fn run_clients(&mut self, limit: Limit, traced: bool) -> Session {
        self.run_slice(limit, traced.then(Instant::now), None)
    }

    /// [`ServeMixed::run_clients`] as one slice of a window: spans are
    /// recorded against the window's `trace_epoch`, and the first client
    /// reads `VmHWM` on its `rss_mark_at`-th request.
    fn run_slice(
        &mut self,
        limit: Limit,
        trace_epoch: Option<Instant>,
        rss_mark_at: Option<u64>,
    ) -> Session {
        let started = Instant::now();
        let inputs = &self.inputs;
        let parts: Vec<Session> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let rss_mark_at = rss_mark_at.filter(|_| c == 0);
                    scope.spawn(move || client.run(inputs, limit, trace_epoch, rss_mark_at))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect()
        });
        let mut session = Session::new(trace_epoch.map(Recorder::new));
        for part in parts {
            session.absorb(part);
        }
        session.slices = vec![(started.elapsed().as_nanos() as u64, Vec::new())];
        self.journaled += session.journaled.len() as u64;
        self.recent_journaled
            .extend(session.journaled.iter().cloned());
        let keep_from = self
            .recent_journaled
            .len()
            .saturating_sub(REASKED_AFTER_RESTART);
        self.recent_journaled.drain(..keep_from);
        session
    }

    /// Daemon replies must equal library answers: every sampled miss and
    /// inline reply, and every prefilled key that was hit.
    pub fn settle(&mut self, session: &mut Session) {
        for p in std::mem::take(&mut session.pending) {
            match self.inputs.library(&p.op) {
                Ok(answer) if answer == p.answer => {}
                Ok(answer) => session.retract(
                    p.sample,
                    format!("{:?}: daemon {:?}, library {answer:?}", p.op, p.answer),
                ),
                Err(reason) => session.retract(p.sample, reason),
            }
        }
        for (key, sample) in std::mem::take(&mut session.hits) {
            let k = key as usize;
            let inputs = &self.inputs;
            let verdict = self.key_verdicts[k].get_or_insert_with(|| {
                let library = inputs.library(&ServeOp::Hit(k))?;
                if library == inputs.expected[k] {
                    Ok(())
                } else {
                    Err(format!(
                        "key {k}: daemon {:?}, library {library:?}",
                        inputs.expected[k]
                    ))
                }
            });
            if let Err(reason) = verdict {
                session.retract(sample as usize, reason.clone());
            }
        }
    }

    /// The daemon's own `metrics` op: the registry as JSON.
    pub fn daemon_metrics(&mut self) -> Result<Json, String> {
        let reply = self.clients[0]
            .conn
            .metrics()
            .map_err(|e| format!("metrics op: {e}"))?;
        reply
            .get("metrics")
            .cloned()
            .ok_or_else(|| "metrics reply without `metrics`".to_string())
    }

    pub fn server_stats(&self) -> eatss_serve::ServerStats {
        self.handle().stats()
    }

    /// Lines the clients would send for the next `count` requests of a
    /// fresh stream — input for timing `parse_request`.
    pub fn request_lines(&self, seed: u64, count: usize) -> Vec<String> {
        ServeStream::new(seed, 0, 1, &self.inputs.keys, self.inputs.inline.len())
            .take(count)
            .map(|op| self.inputs.request(&op).to_line())
            .collect()
    }

    /// Shuts the daemon down, starts it again on the same directory and
    /// pings it. Returns (milliseconds from shutdown to the first pong,
    /// journaled entries that did not come back). The clients are gone
    /// afterwards: their streams would repeat sizes the journal already
    /// holds, so the restarted daemon is only pinged and re-asked.
    pub fn restart(&mut self) -> Result<(f64, u64), String> {
        self.clients.clear();
        let started = Instant::now();
        self.handle
            .take()
            .expect("the daemon runs until it is stopped")
            .shutdown();
        let handle = start(server_config(&self.dir, self.sync))
            .map_err(|e| format!("daemon restart: {e}"))?;
        let mut conn = connect(&handle)?;
        conn.ping()
            .map_err(|e| format!("ping after restart: {e}"))?;
        let ready_ms = started.elapsed().as_secs_f64() * 1e3;

        let mut lost = self.journaled.saturating_sub(handle.replayed());
        for op in &self.recent_journaled {
            let json = conn
                .select(&self.inputs.request(op))
                .map_err(|e| format!("re-ask after restart: {e}"))?;
            if !parse_reply(&json)?.hit {
                lost += 1;
            }
        }
        self.handle = Some(handle);
        Ok((ready_ms, lost))
    }

    /// Shuts the daemon down and leaves its journal directory in place.
    pub fn stop(&mut self) {
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }

    pub fn journal_dir(&self) -> &Path {
        &self.dir
    }
}

impl Workload for ServeMixed {
    fn threads(&self) -> usize {
        self.clients.len()
    }

    /// Slices of [`SLICE`] until `dur` has passed, with samples of the
    /// machine reference between them.
    fn window(&mut self, dur: Duration, traced: bool) -> Result<Window, String> {
        let epoch = Instant::now();
        let trace_epoch = traced.then_some(epoch);
        let rss_mark_at = self.clients[0].issued + RSS_MARK_OPS;
        let mut session = Session::new(trace_epoch.map(Recorder::new));
        let sample = || -> Vec<f64> {
            (0..REFERENCE_SAMPLES_PER_SLICE)
                .map(|_| reference_ms())
                .collect()
        };
        let mut before = sample();
        loop {
            let limit = Limit::For(SLICE.min(dur));
            let mut slice = self.run_slice(limit, trace_epoch, Some(rss_mark_at));
            let after = sample();
            slice.slices[0].1 = before.iter().chain(&after).copied().collect();
            session.absorb(slice);
            session.window.reference_ms.extend(before);
            before = after;
            if epoch.elapsed() >= dur {
                break;
            }
        }
        session.window.reference_ms.extend(before);
        let rss_at_end = peak_rss_mb()?;
        self.settle(&mut session);
        let rss_mark = session.rss_mark_mb;
        let mut window = session.into_window();
        window.peak_rss_mb = rss_mark.unwrap_or(rss_at_end);
        Ok(window)
    }

    /// Over the prefilled keys: the daemon answered each at prefill and
    /// every hit repeats that answer.
    fn sim_ratios(&self) -> Result<(f64, f64), String> {
        let inputs = &self.inputs;
        geomean_ratios(
            inputs
                .keys
                .iter()
                .zip(&inputs.expected)
                .filter_map(|(key, answer)| {
                    let Answer::Tiles(tiles) = answer else {
                        return None;
                    };
                    Some(
                        key.bench
                            .program()
                            .map_err(|e| e.to_string())
                            .and_then(|program| {
                                ratios_vs_default(
                                    &inputs.engines[key.device],
                                    &program,
                                    &TileConfig::new(tiles.clone()),
                                    &key.bench.sizes_uniform(key.n),
                                    &inputs::config_for(key.bench.name),
                                )
                            }),
                    )
                }),
        )
    }

    fn teardown(&mut self) {
        self.stop();
        eatss_trace::stop_collecting();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
