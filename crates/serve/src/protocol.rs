//! The wire protocol: JSON-lines over a byte stream.
//!
//! One request per line, one response per line, UTF-8, `\n`-terminated.
//! The grammar is documented in DESIGN.md §12; parsing reuses
//! [`eatss_trace::json`] so the daemon carries no protocol dependency the
//! tracer does not already have. Both directions of the format live
//! here: [`parse_request`] reads request lines, and `Response::to_line`
//! is the only place a response line is assembled.
//!
//! Every malformed input maps to a typed [`ProtocolError`] — the server
//! turns recoverable ones (bad JSON, missing fields, unknown kernels)
//! into error *responses* and keeps the connection, and fatal ones
//! (oversized frames, timeouts, EOF) into a best-effort error response
//! followed by a close. Nothing a client sends can panic the daemon.

use crate::flight::{RequestRecord, TraceWhich};
use crate::server::ServerStats;
use eatss::{
    ConfigRangeError, EatssConfig, EatssSolution, PipelineError, Precision, RecoveryStats,
    SolutionProvenance, SweepPoint, ThreadBlockCap, TileCacheStats,
};
use eatss_gpusim::SimReport;
use eatss_trace::json::{escape, number, Json};
use eatss_trace::{MetricsSnapshot, Trace};
use std::fmt;
use std::io::{self, Read};

/// Protocol version, echoed in every response.
pub const PROTOCOL_VERSION: u64 = 1;

/// Everything that can go wrong between the socket and a valid
/// [`Request`]. The daemon-side extension of the core crate's
/// `PipelineError` taxonomy: those classify pipeline *stage* failures,
/// these classify request *transport/shape* failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A line exceeded the configured frame limit.
    FrameTooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The peer closed the stream mid-frame.
    ConnectionClosed,
    /// The socket read or write timed out (slow-loris defence).
    Timeout,
    /// The line was not valid JSON.
    BadJson(String),
    /// The line parsed but was not a JSON object.
    NotAnObject,
    /// A required field was absent.
    MissingField(&'static str),
    /// A field had the wrong type or an out-of-range value.
    BadField {
        /// Which field.
        field: &'static str,
        /// What was expected.
        expected: &'static str,
    },
    /// `kernel` named no known benchmark.
    UnknownKernel(String),
    /// `source` did not parse as a kernel program.
    BadSource(String),
    /// `op` named no known operation.
    UnknownOp(String),
    /// Underlying I/O failure.
    Io(String),
}

impl ProtocolError {
    /// Stable wire identifier for the error class.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::FrameTooLarge { .. } => "frame_too_large",
            ProtocolError::ConnectionClosed => "connection_closed",
            ProtocolError::Timeout => "timeout",
            ProtocolError::BadJson(_) => "bad_json",
            ProtocolError::NotAnObject => "not_an_object",
            ProtocolError::MissingField(_) => "missing_field",
            ProtocolError::BadField { .. } => "bad_field",
            ProtocolError::UnknownKernel(_) => "unknown_kernel",
            ProtocolError::BadSource(_) => "bad_source",
            ProtocolError::UnknownOp(_) => "unknown_op",
            ProtocolError::Io(_) => "io",
        }
    }

    /// Whether the connection can keep serving after this error.
    /// Frame-boundary loss (oversize, timeout, EOF, I/O) is fatal; a
    /// well-framed but senseless line is not.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            ProtocolError::FrameTooLarge { .. }
                | ProtocolError::ConnectionClosed
                | ProtocolError::Timeout
                | ProtocolError::Io(_)
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FrameTooLarge { limit } => {
                write!(f, "frame exceeds {limit} byte limit")
            }
            ProtocolError::ConnectionClosed => write!(f, "connection closed mid-frame"),
            ProtocolError::Timeout => write!(f, "socket timeout"),
            ProtocolError::BadJson(e) => write!(f, "invalid JSON: {e}"),
            ProtocolError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtocolError::MissingField(field) => write!(f, "missing field '{field}'"),
            ProtocolError::BadField { field, expected } => {
                write!(f, "field '{field}': expected {expected}")
            }
            ProtocolError::UnknownKernel(k) => write!(f, "unknown kernel '{k}'"),
            ProtocolError::BadSource(e) => write!(f, "source does not parse: {e}"),
            ProtocolError::UnknownOp(op) => write!(f, "unknown op '{op}'"),
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The operation a request asks for, with its payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Solve (or serve from cache) a tile selection.
    Select(SelectRequest),
    /// Sweep the paper's configuration grid on the requested device and
    /// return the energy-vs-performance Pareto front. A pareto request
    /// is a select request measured across the whole grid, so it shares
    /// the select payload — minus `fp32`, `split` and `strict_cap`, which
    /// the grid fixes (FP64, every split, both caps) and the parser
    /// refuses.
    Pareto(SelectRequest),
    /// Liveness probe.
    Ping,
    /// Server + cache counters.
    Stats,
    /// Full metrics registry (counters, gauges, histograms) as JSON and
    /// Prometheus-style text.
    Metrics,
    /// Flight-recorder export: Chrome `trace_events` for recorded
    /// requests.
    Trace(TraceQuery),
    /// Compact the cache journal.
    Compact,
    /// Graceful shutdown (drain, flush, exit).
    Shutdown,
}

/// Payload of a `trace` request: which ring, how many records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceQuery {
    /// Which flight-recorder ring to export.
    pub which: TraceWhich,
    /// How many records (server caps at [`TRACE_LIMIT_CAP`]).
    pub limit: usize,
}

/// Upper bound on `limit` in a `trace` request.
pub const TRACE_LIMIT_CAP: usize = 32;

/// How the request binds problem sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SizeSpec {
    /// A named PolyBench dataset: `"standard"` or `"xl"`.
    Dataset(String),
    /// Every parameter bound to one value.
    Uniform(i64),
    /// Explicit `{param: value}` bindings.
    Explicit(Vec<(String, i64)>),
}

/// A parsed `select` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectRequest {
    /// Named benchmark (`eatss_kernels::by_name`), exclusive with
    /// `source`.
    pub kernel: Option<String>,
    /// Inline kernel DSL source.
    pub source: Option<String>,
    /// Problem sizes.
    pub sizes: SizeSpec,
    /// Shared-memory split factor (paper §IV-E).
    pub split: f64,
    /// Warp fraction (paper §V-D).
    pub warp_fraction: f64,
    /// FP32 instead of FP64.
    pub fp32: bool,
    /// Strict thread-block cap.
    pub strict_cap: bool,
    /// Target device: any built-in profile name
    /// (`eatss_gpusim::DeviceProfile::builtin_names`); `ga100` when
    /// absent. Wire field `device`, with `arch` kept as an alias for
    /// older clients.
    pub arch: Option<String>,
    /// Per-request solve deadline in milliseconds (clamped server-side).
    pub deadline_ms: Option<u64>,
    /// Also compile + measure the selected tiles.
    pub evaluate: bool,
    /// Also verify the selected tiles bitwise against the reference
    /// interpreter (batched differential oracle at shrunk sizes).
    pub verify: bool,
    /// Test-only fault injection (`"panic"`, `"sleep:<ms>"`); ignored
    /// unless the server was started with chaos enabled.
    pub chaos: Option<String>,
}

impl SelectRequest {
    /// The request's solver configuration knobs as an [`EatssConfig`].
    pub fn eatss_config(&self) -> EatssConfig {
        EatssConfig {
            split_factor: self.split,
            warp_fraction: self.warp_fraction,
            precision: if self.fp32 {
                Precision::F32
            } else {
                Precision::F64
            },
            cap: if self.strict_cap {
                ThreadBlockCap::Strict
            } else {
                ThreadBlockCap::Virtual
            },
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// The operation.
    pub op: Op,
}

/// Parses one request line.
///
/// # Errors
///
/// A [`ProtocolError`] describing exactly which part of the line was
/// unacceptable.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let value = Json::parse(line).map_err(ProtocolError::BadJson)?;
    let obj = value.as_object().ok_or(ProtocolError::NotAnObject)?;

    let id = match obj.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Num(n)) => Some(number(*n)),
        Some(_) => {
            return Err(ProtocolError::BadField {
                field: "id",
                expected: "string or number",
            })
        }
    };

    let op = match obj.get("op").and_then(Json::as_str).unwrap_or("select") {
        "select" => Op::Select(parse_select(&value)?),
        "pareto" => {
            // Answering with the grid's front for a knob the grid
            // overrides would answer a request the client never sent.
            if let Some(field) = ["fp32", "split", "strict_cap"]
                .into_iter()
                .find(|field| value.get(field).is_some())
            {
                return Err(ProtocolError::BadField {
                    field,
                    expected: "no such field on a pareto request \
                               (it sweeps every split and both caps in FP64)",
                });
            }
            Op::Pareto(parse_select(&value)?)
        }
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "metrics" => Op::Metrics,
        "trace" => Op::Trace(parse_trace(&value)?),
        "compact" => Op::Compact,
        "shutdown" => Op::Shutdown,
        other => return Err(ProtocolError::UnknownOp(other.to_string())),
    };
    Ok(Request { id, op })
}

fn parse_trace(value: &Json) -> Result<TraceQuery, ProtocolError> {
    let which = match opt_str(value, "which")?.as_deref() {
        None => TraceWhich::Slowest,
        Some(name) => TraceWhich::parse(name).ok_or(ProtocolError::BadField {
            field: "which",
            expected: "\"recent\", \"slowest\" or \"errors\"",
        })?,
    };
    let limit = match opt_f64(value, "limit")? {
        None => 1,
        Some(n) if n.fract() == 0.0 && (1.0..=TRACE_LIMIT_CAP as f64).contains(&n) => n as usize,
        Some(_) => {
            return Err(ProtocolError::BadField {
                field: "limit",
                expected: "integer in [1, 32]",
            })
        }
    };
    Ok(TraceQuery { which, limit })
}

fn parse_select(value: &Json) -> Result<SelectRequest, ProtocolError> {
    let kernel = opt_str(value, "kernel")?;
    let source = opt_str(value, "source")?;
    if kernel.is_none() && source.is_none() {
        return Err(ProtocolError::MissingField("kernel"));
    }

    // `n`, `sizes` and `dataset` are three spellings of one thing: a
    // request gives at most one, and what it gives must be usable — a
    // spelling the daemon ignored would be answered for other sizes
    // than the client sent.
    let mut given = ["n", "sizes", "dataset"]
        .into_iter()
        .filter_map(|field| value.get(field).map(|v| (field, v)));
    let first = given.next();
    if let Some((field, _)) = given.next() {
        return Err(ProtocolError::BadField {
            field,
            expected: "only one of `n`, `sizes` and `dataset`",
        });
    }
    let sizes = match first {
        None => SizeSpec::Dataset("standard".to_string()),
        Some(("n", n)) => SizeSpec::Uniform(size_value(n, "n", "positive integer")?),
        Some(("sizes", map)) => {
            let expected = "object of positive integers";
            let map = map.as_object().ok_or(ProtocolError::BadField {
                field: "sizes",
                expected,
            })?;
            let mut pairs = Vec::with_capacity(map.len());
            for (k, v) in map {
                pairs.push((k.clone(), size_value(v, "sizes", expected)?));
            }
            SizeSpec::Explicit(pairs)
        }
        Some((_, Json::Str(s))) if s == "standard" || s == "xl" => SizeSpec::Dataset(s.clone()),
        Some(_) => {
            return Err(ProtocolError::BadField {
                field: "dataset",
                expected: "\"standard\" or \"xl\"",
            })
        }
    };

    let split = opt_f64(value, "split")?.unwrap_or(0.5);
    let warp_fraction = opt_f64(value, "warp_frac")?.unwrap_or(0.5);
    let knobs = EatssConfig {
        split_factor: split,
        warp_fraction,
        ..EatssConfig::default()
    };
    knobs.validate().map_err(|e| ProtocolError::BadField {
        field: match e {
            ConfigRangeError::SplitFactor => "split",
            ConfigRangeError::WarpFraction => "warp_frac",
        },
        expected: e.expected(),
    })?;

    let deadline_ms = match opt_f64(value, "deadline_ms")? {
        None => None,
        Some(ms) if ms.fract() == 0.0 && (1.0..=86_400_000.0).contains(&ms) => Some(ms as u64),
        Some(_) => {
            return Err(ProtocolError::BadField {
                field: "deadline_ms",
                expected: "positive integer milliseconds",
            })
        }
    };

    Ok(SelectRequest {
        kernel,
        source,
        sizes,
        split,
        warp_fraction,
        fp32: opt_bool(value, "fp32")?.unwrap_or(false),
        strict_cap: opt_bool(value, "strict_cap")?.unwrap_or(false),
        // `device` is the canonical spelling; `arch` survives as an
        // alias so pre-portfolio clients keep working.
        arch: match opt_str(value, "device")? {
            Some(device) => Some(device),
            None => opt_str(value, "arch")?,
        },
        deadline_ms,
        evaluate: opt_bool(value, "evaluate")?.unwrap_or(false),
        verify: opt_bool(value, "verify")?.unwrap_or(false),
        chaos: opt_str(value, "chaos")?,
    })
}

/// One problem-size value, under whichever field it arrived: an integer
/// in `1..=1e15`, so `as i64` is exact and products of a few sizes stay
/// far from saturating.
fn size_value(
    value: &Json,
    field: &'static str,
    expected: &'static str,
) -> Result<i64, ProtocolError> {
    value
        .as_f64()
        .filter(|n| n.fract() == 0.0 && (1.0..=1e15).contains(n))
        .map(|n| n as i64)
        .ok_or(ProtocolError::BadField { field, expected })
}

fn opt_str(value: &Json, field: &'static str) -> Result<Option<String>, ProtocolError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ProtocolError::BadField {
            field,
            expected: "string",
        }),
    }
}

fn opt_f64(value: &Json, field: &'static str) -> Result<Option<f64>, ProtocolError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(ProtocolError::BadField {
            field,
            expected: "number",
        }),
    }
}

fn opt_bool(value: &Json, field: &'static str) -> Result<Option<bool>, ProtocolError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(ProtocolError::BadField {
            field,
            expected: "boolean",
        }),
    }
}

/// Incremental JSON-lines framer over a raw stream. Holds the carry-over
/// buffer between frames and enforces the size limit *while reading*, so
/// an attacker cannot balloon memory by never sending a newline.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    /// A framer enforcing `max_frame` bytes per line (newline included).
    pub fn new(max_frame: usize) -> Self {
        FrameReader {
            buf: Vec::with_capacity(1024),
            max_frame,
        }
    }

    /// Whether a partial frame is buffered — distinguishes a slow-loris
    /// sender (mid-frame stall, subject to the read timeout) from an idle
    /// keep-alive connection.
    pub fn buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads the next line. `Ok(None)` is a clean end-of-stream (EOF at a
    /// frame boundary).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::FrameTooLarge`] when the limit trips,
    /// [`ProtocolError::Timeout`] when the socket read times out,
    /// [`ProtocolError::ConnectionClosed`] on EOF mid-frame, and
    /// [`ProtocolError::Io`] for everything else.
    pub fn next_frame(&mut self, stream: &mut impl Read) -> Result<Option<String>, ProtocolError> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let text = String::from_utf8(line)
                    .map_err(|e| ProtocolError::BadJson(format!("invalid UTF-8: {e}")))?;
                return Ok(Some(text));
            }
            if self.buf.len() >= self.max_frame {
                return Err(ProtocolError::FrameTooLarge {
                    limit: self.max_frame,
                });
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(ProtocolError::ConnectionClosed);
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(ProtocolError::Timeout)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionReset
                        || e.kind() == io::ErrorKind::BrokenPipe =>
                {
                    return Err(ProtocolError::ConnectionClosed)
                }
                Err(e) => return Err(ProtocolError::Io(e.to_string())),
            }
        }
    }
}

/// What a clean `verify: true` pass covered (batched oracle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VerifySummary {
    pub(crate) configs: u64,
    pub(crate) points: u64,
}

/// The answer to an `{"op":"pareto"}` request: the device-scoped
/// non-dominated front plus sweep bookkeeping.
#[derive(Debug)]
pub(crate) struct ParetoReport {
    /// Device profile the sweep ran on.
    pub(crate) device: String,
    /// Non-dominated points, ascending energy / descending throughput
    /// (the deterministic order of [`eatss::pareto_front`]).
    pub(crate) front: Vec<SweepPoint>,
    /// Measured sweep points overall (front ⊆ points).
    pub(crate) points: usize,
    /// Configurations recorded infeasible (measured via fallback).
    pub(crate) infeasible: usize,
    /// Batched-oracle verdict over every front configuration
    /// (`verify: true` requests only).
    pub(crate) verify: Option<Result<VerifySummary, String>>,
}

/// Every line the daemon can answer with. [`Response::to_line`] is the
/// wire format: field names, field order and number formatting are part
/// of the protocol (pinned byte for byte by the golden test below).
#[derive(Debug)]
pub(crate) enum Response<'a> {
    /// `status: ok` for a `select`: the tiles, and — when asked for —
    /// their measurement and oracle verdict. `cache` is `hit`, `miss` or
    /// `coalesced`. Whether the tiles are proved optimal or are the `32^d`
    /// deadline fallback is read off the solution's provenance.
    Selected {
        solution: &'a EatssSolution,
        cache: &'a str,
        latency_ms: f64,
        eval: Option<&'a Result<SimReport, String>>,
        verify: Option<&'a Result<VerifySummary, String>>,
    },
    /// `status: infeasible`: the formulation is proved unsatisfiable.
    Infeasible {
        reason: &'a str,
        cache: &'a str,
        latency_ms: f64,
    },
    /// `status: ok` for a `pareto`: the front and its bookkeeping.
    Pareto {
        report: &'a ParetoReport,
        cache: &'a str,
        latency_ms: f64,
    },
    /// `status: overloaded`: admission control shed the request.
    Overloaded { retry_after_ms: u64 },
    /// `status: error` with a stable `kind` and a one-line `message`.
    Error { kind: &'a str, message: String },
    /// `stats`: server counters, cache counters (with the entries held,
    /// in all and in memory, and the journal's `replayed`/`persisted`/
    /// `journal_bytes`/`garbage_ratio`/`durable`), and what journal
    /// recovery found at startup.
    Stats {
        server: &'a ServerStats,
        cache: TileCacheStats,
        entries: usize,
        resident: usize,
        replayed: u64,
        persisted: u64,
        journal_bytes: u64,
        garbage_ratio: f64,
        durable: bool,
        recovery: RecoveryStats,
    },
    /// `ping`.
    Pong,
    /// `metrics`: the registry as JSON plus Prometheus text.
    Metrics(&'a MetricsSnapshot),
    /// `trace`: flight records and their events merged into one Chrome
    /// trace document (embedded raw — `to_chrome_json_compact` emits no
    /// newlines, so the response stays one line).
    Trace {
        requests: &'a [RequestRecord],
        trace: &'a Trace,
    },
    /// Bare `status: ok` (`compact`, `shutdown`).
    Ok,
}

impl From<&ProtocolError> for Response<'static> {
    fn from(error: &ProtocolError) -> Self {
        Response::Error {
            kind: error.kind(),
            message: error.to_string(),
        }
    }
}

impl From<&PipelineError> for Response<'static> {
    /// A pipeline failure keeps its stage classification in the message.
    fn from(error: &PipelineError) -> Self {
        Response::Error {
            kind: "pipeline",
            message: error.to_string(),
        }
    }
}

impl Response<'static> {
    /// The daemon is draining and accepts no new work.
    pub(crate) fn shutting_down() -> Self {
        Response::Error {
            kind: "shutting_down",
            message: "server is shutting down".to_string(),
        }
    }
}

impl Response<'_> {
    /// The wire `status` field.
    pub(crate) fn status(&self) -> &'static str {
        match self {
            Response::Infeasible { .. } => "infeasible",
            Response::Overloaded { .. } => "overloaded",
            Response::Error { .. } => "error",
            _ => "ok",
        }
    }

    /// Renders the response line (without the trailing newline),
    /// echoing the request's correlation `id` when it carried one.
    pub(crate) fn to_line(&self, id: Option<&str>) -> String {
        let mut fields = vec![("v", PROTOCOL_VERSION.to_string())];
        if let Some(id) = id {
            fields.push(("id", str_field(id)));
        }
        fields.push(("status", str_field(self.status())));
        match self {
            Response::Selected {
                solution,
                cache,
                latency_ms,
                eval,
                verify,
            } => {
                fields.push(("tiles", int_array(solution.tiles.sizes())));
                fields.push(("objective", solution.objective.to_string()));
                fields.push(("provenance", str_field(&solution.provenance.to_string())));
                let provenance = solution.provenance;
                let optimal = provenance == SolutionProvenance::Solved;
                fields.push(("optimal", optimal.to_string()));
                fields.push(("solver_calls", solution.solver_calls.to_string()));
                fields.push((
                    "solve_ms",
                    number(solution.solve_time.as_secs_f64() * 1000.0),
                ));
                fields.push(("cache", str_field(cache)));
                let fallback = provenance == SolutionProvenance::DefaultFallback;
                fields.push(("fell_back", fallback.to_string()));
                fields.push(("latency_ms", number(*latency_ms)));
                match eval {
                    Some(Ok(report)) => fields.push((
                        "eval",
                        object_line(&[
                            ("time_ms", number(report.time_s * 1000.0)),
                            ("power_w", number(report.avg_power_w)),
                            ("energy_j", number(report.energy_j)),
                            ("gflops", number(report.gflops)),
                            ("ppw", number(report.ppw)),
                        ]),
                    )),
                    Some(Err(message)) => {
                        fields.push(("eval_error", error_object("measure", message)));
                    }
                    None => {}
                }
                push_verify(&mut fields, *verify);
            }
            Response::Infeasible {
                reason,
                cache,
                latency_ms,
            } => {
                fields.push(("reason", str_field(reason)));
                fields.push(("cache", str_field(cache)));
                fields.push(("latency_ms", number(*latency_ms)));
            }
            Response::Pareto {
                report,
                cache,
                latency_ms,
            } => {
                let front: Vec<String> = report
                    .front
                    .iter()
                    .map(|p| {
                        let strict = p.config.cap == ThreadBlockCap::Strict;
                        object_line(&[
                            ("tiles", int_array(p.solution.tiles.sizes())),
                            ("split", number(p.config.split_factor)),
                            ("warp_frac", number(p.config.warp_fraction)),
                            ("strict_cap", strict.to_string()),
                            ("provenance", str_field(&p.solution.provenance.to_string())),
                            ("energy_j", number(p.report.energy_j)),
                            ("gflops", number(p.report.gflops)),
                            ("ppw", number(p.report.ppw)),
                            ("time_ms", number(p.report.time_s * 1000.0)),
                        ])
                    })
                    .collect();
                fields.push(("device", str_field(&report.device)));
                fields.push(("front", format!("[{}]", front.join(","))));
                fields.push(("points", report.points.to_string()));
                fields.push(("infeasible", report.infeasible.to_string()));
                fields.push(("cache", str_field(cache)));
                fields.push(("latency_ms", number(*latency_ms)));
                push_verify(&mut fields, report.verify.as_ref());
            }
            Response::Overloaded { retry_after_ms } => {
                fields.push(("retry_after_ms", retry_after_ms.to_string()));
            }
            Response::Error { kind, message } => {
                fields.push(("error", error_object(kind, message)));
            }
            Response::Stats {
                server,
                cache,
                entries,
                resident,
                replayed,
                persisted,
                journal_bytes,
                garbage_ratio,
                durable,
                recovery,
            } => {
                fields.push(("server", object_line(&server.fields())));
                fields.push((
                    "cache",
                    object_line(&[
                        ("hits", cache.hits.to_string()),
                        ("misses", cache.misses.to_string()),
                        ("infeasible", cache.infeasible.to_string()),
                        ("errors", cache.errors.to_string()),
                        ("entries", entries.to_string()),
                        ("resident", resident.to_string()),
                        ("replayed", replayed.to_string()),
                        ("persisted", persisted.to_string()),
                        ("journal_bytes", journal_bytes.to_string()),
                        ("garbage_ratio", number(*garbage_ratio)),
                        ("durable", durable.to_string()),
                    ]),
                ));
                fields.push((
                    "recovery",
                    object_line(&[
                        ("records_recovered", recovery.records_recovered.to_string()),
                        (
                            "corrupt_records_skipped",
                            recovery.corrupt_records_skipped.to_string(),
                        ),
                        (
                            "torn_tails_truncated",
                            recovery.torn_tails_truncated.to_string(),
                        ),
                        ("bytes_discarded", recovery.bytes_discarded.to_string()),
                    ]),
                ));
            }
            Response::Pong => fields.push(("pong", "true".into())),
            Response::Metrics(snapshot) => {
                fields.push(("metrics", snapshot.to_json()));
                fields.push(("prometheus", str_field(&snapshot.to_prometheus())));
            }
            Response::Trace { requests, trace } => {
                let requests: Vec<String> = requests
                    .iter()
                    .map(|r| {
                        let mut fields = Vec::with_capacity(6);
                        if let Some(id) = &r.id {
                            fields.push(("id", str_field(id)));
                        }
                        fields.push(("kernel", str_field(&r.kernel)));
                        fields.push(("lane", r.lane.to_string()));
                        fields.push(("outcome", str_field(&r.outcome)));
                        fields.push(("cache", str_field(&r.cache)));
                        fields.push(("dur_us", r.dur_us.to_string()));
                        object_line(&fields)
                    })
                    .collect();
                fields.push(("requests", format!("[{}]", requests.join(","))));
                fields.push(("trace", trace.to_chrome_json_compact()));
            }
            Response::Ok => {}
        }
        object_line(&fields)
    }
}

fn int_array(values: &[i64]) -> String {
    let items: Vec<String> = values.iter().map(i64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn error_object(kind: &str, message: &str) -> String {
    object_line(&[("kind", str_field(kind)), ("message", str_field(message))])
}

fn push_verify(fields: &mut Vec<(&str, String)>, verify: Option<&Result<VerifySummary, String>>) {
    match verify {
        Some(Ok(summary)) => fields.push((
            "verify",
            object_line(&[
                ("configs", summary.configs.to_string()),
                ("points", summary.points.to_string()),
            ]),
        )),
        Some(Err(message)) => fields.push(("verify_error", error_object("oracle", message))),
        None => {}
    }
}

/// Builds one JSON object line (without the trailing newline) from
/// `(key, raw-JSON-value)` pairs. Values must already be valid JSON
/// fragments; use [`str_field`]/[`eatss_trace::json::number`] helpers.
pub fn object_line(fields: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape(k));
        out.push_str("\":");
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Renders a string as a JSON string literal.
pub fn str_field(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(line: &str) -> SelectRequest {
        match parse_request(line).unwrap().op {
            Op::Select(s) | Op::Pareto(s) => s,
            other => panic!("expected a select payload, got {other:?}"),
        }
    }

    fn trace(line: &str) -> TraceQuery {
        match parse_request(line).unwrap().op {
            Op::Trace(q) => q,
            other => panic!("expected a trace query, got {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_select() {
        let r = parse_request(r#"{"kernel": "gemm"}"#).unwrap();
        assert!(matches!(r.op, Op::Select(_)));
        let s = select(r#"{"kernel": "gemm"}"#);
        assert_eq!(s.kernel.as_deref(), Some("gemm"));
        assert_eq!(s.sizes, SizeSpec::Dataset("standard".into()));
        assert_eq!(s.split, 0.5);
        assert!(!s.evaluate);
    }

    #[test]
    fn parses_full_select() {
        let r = parse_request(
            r#"{"id": "r1", "op": "select", "kernel": "atax", "n": 4000,
                "split": 0.67, "warp_frac": 0.25, "fp32": true,
                "strict_cap": true, "deadline_ms": 250, "evaluate": true,
                "verify": true}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("r1"));
        let Op::Select(s) = r.op else {
            panic!("expected select");
        };
        assert_eq!(s.sizes, SizeSpec::Uniform(4000));
        assert_eq!(s.deadline_ms, Some(250));
        assert!(s.fp32 && s.strict_cap && s.evaluate && s.verify);
        let cfg = s.eatss_config();
        assert_eq!(cfg.split_factor, 0.67);
        assert_eq!(cfg.precision, Precision::F32);
    }

    #[test]
    fn device_field_parses_and_aliases_arch() {
        let s = select(r#"{"kernel": "gemm", "device": "orin"}"#);
        assert_eq!(s.arch.as_deref(), Some("orin"));
        // Legacy spelling still works …
        let s = select(r#"{"kernel": "gemm", "arch": "xavier"}"#);
        assert_eq!(s.arch.as_deref(), Some("xavier"));
        // … and the canonical one wins when both are present.
        let s = select(r#"{"kernel": "gemm", "device": "h100", "arch": "xavier"}"#);
        assert_eq!(s.arch.as_deref(), Some("h100"));
        assert!(matches!(
            parse_request(r#"{"kernel": "gemm", "device": 3}"#),
            Err(ProtocolError::BadField {
                field: "device",
                ..
            })
        ));
    }

    #[test]
    fn pareto_op_carries_a_select_payload() {
        let r = parse_request(r#"{"op": "pareto", "kernel": "gemm", "device": "nano"}"#).unwrap();
        let Op::Pareto(s) = r.op else {
            panic!("pareto reuses the select payload");
        };
        assert_eq!(s.kernel.as_deref(), Some("gemm"));
        assert_eq!(s.arch.as_deref(), Some("nano"));
        // Same shape validation as select: a kernel (or source) is
        // mandatory.
        assert!(matches!(
            parse_request(r#"{"op": "pareto"}"#),
            Err(ProtocolError::MissingField("kernel"))
        ));
    }

    #[test]
    fn numeric_ids_echo_as_text() {
        let r = parse_request(r#"{"id": 42, "op": "ping"}"#).unwrap();
        assert_eq!(r.id.as_deref(), Some("42"));
    }

    #[test]
    fn explicit_sizes_parse() {
        let s = select(r#"{"kernel": "gemm", "sizes": {"M": 100, "N": 200}}"#);
        let SizeSpec::Explicit(pairs) = s.sizes else {
            panic!("expected explicit sizes");
        };
        assert!(pairs.contains(&("M".into(), 100)));
        assert!(pairs.contains(&("N".into(), 200)));
    }

    #[test]
    fn parses_metrics_and_trace_ops() {
        let r = parse_request(r#"{"op": "metrics"}"#).unwrap();
        assert_eq!(r.op, Op::Metrics);

        let q = trace(r#"{"op": "trace"}"#);
        assert_eq!(q.which, TraceWhich::Slowest);
        assert_eq!(q.limit, 1);

        let q = trace(r#"{"op": "trace", "which": "recent", "limit": 8}"#);
        assert_eq!(q.which, TraceWhich::Recent);
        assert_eq!(q.limit, 8);

        assert!(matches!(
            parse_request(r#"{"op": "trace", "which": "fastest"}"#),
            Err(ProtocolError::BadField { field: "which", .. })
        ));
        assert!(matches!(
            parse_request(r#"{"op": "trace", "limit": 0}"#),
            Err(ProtocolError::BadField { field: "limit", .. })
        ));
        assert!(matches!(
            parse_request(r#"{"op": "trace", "limit": 1000}"#),
            Err(ProtocolError::BadField { field: "limit", .. })
        ));
    }

    #[test]
    fn rejects_garbage_with_typed_errors() {
        assert!(matches!(
            parse_request("not json"),
            Err(ProtocolError::BadJson(_))
        ));
        // A repeated key is refused in either order, nested or not: no key
        // order decides which value a request means.
        for line in [
            r#"{"kernel": "gemm", "sizes": {"NI": 8, "NJ": 8, "NK": 8, "NI": 4000}}"#,
            r#"{"kernel": "gemm", "sizes": {"NI": 4000, "NJ": 8, "NK": 8, "NI": 8}}"#,
            r#"{"kernel": "gemm", "split": 0.5, "split": 0.9}"#,
        ] {
            match parse_request(line) {
                Err(ProtocolError::BadJson(e)) => assert!(e.contains("repeated key"), "{e}"),
                other => panic!("{line}: expected bad_json, got {other:?}"),
            }
        }
        assert!(matches!(
            parse_request("[1, 2]"),
            Err(ProtocolError::NotAnObject)
        ));
        assert!(matches!(
            parse_request("{}"),
            Err(ProtocolError::MissingField("kernel"))
        ));
        assert!(matches!(
            parse_request(r#"{"op": "teleport"}"#),
            Err(ProtocolError::UnknownOp(_))
        ));
        assert!(matches!(
            parse_request(r#"{"kernel": "gemm", "split": 7}"#),
            Err(ProtocolError::BadField { field: "split", .. })
        ));
        assert!(matches!(
            parse_request(r#"{"kernel": "gemm", "deadline_ms": -5}"#),
            Err(ProtocolError::BadField {
                field: "deadline_ms",
                ..
            })
        ));
        assert!(matches!(
            parse_request(r#"{"kernel": "gemm", "n": 2.5}"#),
            Err(ProtocolError::BadField { field: "n", .. })
        ));
        // `n`, `sizes` and `dataset` are exclusive (the error names the
        // second one given), a `sizes` that is not an object is not
        // skipped, and every size is held to the range of `n`.
        for (line, named) in [
            (r#"{"kernel": "gemm", "sizes": [1, 2]}"#, "sizes"),
            (r#"{"kernel": "gemm", "sizes": 5}"#, "sizes"),
            (
                r#"{"kernel": "gemm", "n": 64, "sizes": {"NI": 4000}}"#,
                "sizes",
            ),
            (r#"{"kernel": "gemm", "n": 64, "dataset": "xl"}"#, "dataset"),
            (
                r#"{"kernel": "gemm", "sizes": {"NI": 64}, "dataset": "xl"}"#,
                "dataset",
            ),
            (r#"{"kernel": "gemm", "sizes": {"NI": 1e300}}"#, "sizes"),
            (
                r#"{"kernel": "gemm", "sizes": {"NI": 1e18}, "evaluate": true}"#,
                "sizes",
            ),
            (r#"{"kernel": "gemm", "n": 1e18}"#, "n"),
            // A pareto fixes precision, split and cap itself: a request
            // that sets one is refused, not answered with the grid's front.
            (
                r#"{"op": "pareto", "kernel": "gemm", "fp32": true}"#,
                "fp32",
            ),
            (
                r#"{"op": "pareto", "kernel": "gemm", "n": 1024, "split": 0.9}"#,
                "split",
            ),
            (
                r#"{"op": "pareto", "kernel": "gemm", "strict_cap": false}"#,
                "strict_cap",
            ),
        ] {
            match parse_request(line) {
                Err(ProtocolError::BadField { field, .. }) => assert_eq!(field, named, "{line}"),
                other => panic!("{line}: expected bad_field, got {other:?}"),
            }
        }
        assert_eq!(
            select(r#"{"kernel": "gemm", "sizes": {"NI": 1e15}}"#).sizes,
            SizeSpec::Explicit(vec![("NI".into(), 1_000_000_000_000_000)])
        );
        // What a pareto does honour stays legal on it.
        let honoured = r#"{"op": "pareto", "kernel": "gemm", "n": 1024, "warp_frac": 0.25,
            "device": "nano", "deadline_ms": 500, "verify": true}"#;
        assert!(matches!(
            parse_request(honoured),
            Ok(Request {
                op: Op::Pareto(_),
                ..
            })
        ));
    }

    #[test]
    fn frame_reader_splits_lines_and_enforces_limit() {
        let mut input: &[u8] = b"{\"a\":1}\n{\"b\":2}\r\n";
        let mut reader = FrameReader::new(64);
        assert_eq!(
            reader.next_frame(&mut input).unwrap().as_deref(),
            Some("{\"a\":1}")
        );
        assert_eq!(
            reader.next_frame(&mut input).unwrap().as_deref(),
            Some("{\"b\":2}")
        );
        assert_eq!(reader.next_frame(&mut input).unwrap(), None);

        let big = vec![b'x'; 100];
        let mut reader = FrameReader::new(64);
        assert!(matches!(
            reader.next_frame(&mut big.as_slice()),
            Err(ProtocolError::FrameTooLarge { limit: 64 })
        ));

        let mut partial: &[u8] = b"{\"unterminated\": ";
        let mut reader = FrameReader::new(64);
        assert!(matches!(
            reader.next_frame(&mut partial),
            Err(ProtocolError::ConnectionClosed)
        ));
    }

    /// One literal line per response shape, captured from the build
    /// before the encoder moved into this module (with `latency_ms` then
    /// set to 1.5): the wire format must not drift by a byte.
    #[test]
    fn response_lines_match_the_golden_capture() {
        use eatss::{EatssError, SolutionProvenance};
        use eatss_affine::tiling::TileConfig;
        use std::time::Duration;

        let solved = |tiles| EatssSolution {
            tiles: TileConfig::new(tiles),
            objective: 6160,
            solver_calls: 9,
            solve_time: Duration::from_micros(2500),
            provenance: SolutionProvenance::Solved,
            stats: Default::default(),
        };
        let measured = |time_s, avg_power_w, energy_j, gflops, ppw| SimReport {
            time_s,
            avg_power_w,
            energy_j,
            gflops,
            ppw,
            ..SimReport::invalid("gemm")
        };
        let solution = solved(vec![16, 384, 1]);
        let fallback = EatssSolution::ppcg_default(3);
        let eval = Ok(measured(0.00125, 187.5, 0.234375, 12800.0, 68.25));
        let eval_error = Err("injected \"fault\"".to_string());
        let verify = Ok(VerifySummary {
            configs: 2,
            points: 9826,
        });
        let verify_error = Err("mismatch at C[0][1]".to_string());
        let selected = |solution, cache, eval, verify| Response::Selected {
            solution,
            cache,
            latency_ms: 1.5,
            eval,
            verify,
        };

        let point = |tiles, split_factor, cap, energy_j, gflops| SweepPoint {
            config: EatssConfig {
                split_factor,
                cap,
                ..EatssConfig::default()
            },
            solution: solved(tiles),
            report: measured(0.00125, 0.0, energy_j, gflops, 64.5),
        };
        let front = |verify| ParetoReport {
            device: "GA100".into(),
            front: vec![
                point(
                    vec![16, 384, 1],
                    0.0,
                    ThreadBlockCap::Virtual,
                    0.21875,
                    11000.0,
                ),
                point(vec![32, 64, 8], 0.67, ThreadBlockCap::Strict, 0.25, 12800.5),
            ],
            points: 6,
            infeasible: 1,
            verify,
        };
        let (plain, verified, refuted) = (
            front(None),
            front(Some(Ok(VerifySummary {
                configs: 2,
                points: 640,
            }))),
            front(Some(Err("oracle said no".to_string()))),
        );
        let pareto = |report, cache| Response::Pareto {
            report,
            cache,
            latency_ms: 1.5,
        };

        let error = |kind, message: &str| Response::Error {
            kind,
            message: message.to_string(),
        };
        let pipeline = |e| Response::from(&PipelineError::from_eatss(e, "serve"));
        let infeasible = Response::Infeasible {
            reason: "WAF 16 exceeds extent 8",
            cache: "miss",
            latency_ms: 1.5,
        };
        let stats = Response::Stats {
            server: &ServerStats {
                connections: 101,
                requests: 102,
                ok: 103,
                infeasible: 104,
                errors: 105,
                shed: 106,
                coalesced: 107,
                protocol_errors: 108,
                panics_caught: 109,
                fallbacks: 110,
                verified: 112,
            },
            cache: TileCacheStats {
                hits: 5,
                misses: 3,
                infeasible: 1,
                errors: 1,
            },
            entries: 4,
            resident: 3,
            replayed: 0,
            persisted: 2,
            journal_bytes: 374,
            garbage_ratio: 0.25,
            durable: true,
            recovery: RecoveryStats::default(),
        };

        #[rustfmt::skip]
        let cases = [
            (Response::Pong, Some("p1"), r#"{"v":1,"id":"p1","status":"ok","pong":true}"#),
            (Response::Ok, None, r#"{"v":1,"status":"ok"}"#),
            (selected(&solution, "miss", None, None), Some("r1"), r#"{"v":1,"id":"r1","status":"ok","tiles":[16,384,1],"objective":6160,"provenance":"solved","optimal":true,"solver_calls":9,"solve_ms":2.5,"cache":"miss","fell_back":false,"latency_ms":1.5}"#),
            (selected(&solution, "hit", Some(&eval), Some(&verify)), Some("r\"2"), r#"{"v":1,"id":"r\"2","status":"ok","tiles":[16,384,1],"objective":6160,"provenance":"solved","optimal":true,"solver_calls":9,"solve_ms":2.5,"cache":"hit","fell_back":false,"latency_ms":1.5,"eval":{"time_ms":1.25,"power_w":187.5,"energy_j":0.234375,"gflops":12800,"ppw":68.25},"verify":{"configs":2,"points":9826}}"#),
            (selected(&fallback, "coalesced", Some(&eval_error), Some(&verify_error)), None, r#"{"v":1,"status":"ok","tiles":[32,32,32],"objective":0,"provenance":"fallback","optimal":false,"solver_calls":0,"solve_ms":0,"cache":"coalesced","fell_back":true,"latency_ms":1.5,"eval_error":{"kind":"measure","message":"injected \"fault\""},"verify_error":{"kind":"oracle","message":"mismatch at C[0][1]"}}"#),
            (infeasible, Some("r3"), r#"{"v":1,"id":"r3","status":"infeasible","reason":"WAF 16 exceeds extent 8","cache":"miss","latency_ms":1.5}"#),
            (pipeline(EatssError::EmptyProgram), Some("r4"), r#"{"v":1,"id":"r4","status":"error","error":{"kind":"pipeline","message":"[formulate] serve: program has no kernels"}}"#),
            (pipeline(EatssError::UnboundParameter("N".into())), Some("r4b"), r#"{"v":1,"id":"r4b","status":"error","error":{"kind":"pipeline","message":"[formulate] serve: problem-size parameter `N` is unbound"}}"#),
            (pareto(&plain, "miss"), Some("q1"), r#"{"v":1,"id":"q1","status":"ok","device":"GA100","front":[{"tiles":[16,384,1],"split":0,"warp_frac":0.5,"strict_cap":false,"provenance":"solved","energy_j":0.21875,"gflops":11000,"ppw":64.5,"time_ms":1.25},{"tiles":[32,64,8],"split":0.67,"warp_frac":0.5,"strict_cap":true,"provenance":"solved","energy_j":0.25,"gflops":12800.5,"ppw":64.5,"time_ms":1.25}],"points":6,"infeasible":1,"cache":"miss","latency_ms":1.5}"#),
            (pareto(&verified, "coalesced"), Some("q2"), r#"{"v":1,"id":"q2","status":"ok","device":"GA100","front":[{"tiles":[16,384,1],"split":0,"warp_frac":0.5,"strict_cap":false,"provenance":"solved","energy_j":0.21875,"gflops":11000,"ppw":64.5,"time_ms":1.25},{"tiles":[32,64,8],"split":0.67,"warp_frac":0.5,"strict_cap":true,"provenance":"solved","energy_j":0.25,"gflops":12800.5,"ppw":64.5,"time_ms":1.25}],"points":6,"infeasible":1,"cache":"coalesced","latency_ms":1.5,"verify":{"configs":2,"points":640}}"#),
            (pareto(&refuted, "miss"), None, r#"{"v":1,"status":"ok","device":"GA100","front":[{"tiles":[16,384,1],"split":0,"warp_frac":0.5,"strict_cap":false,"provenance":"solved","energy_j":0.21875,"gflops":11000,"ppw":64.5,"time_ms":1.25},{"tiles":[32,64,8],"split":0.67,"warp_frac":0.5,"strict_cap":true,"provenance":"solved","energy_j":0.25,"gflops":12800.5,"ppw":64.5,"time_ms":1.25}],"points":6,"infeasible":1,"cache":"miss","latency_ms":1.5,"verify_error":{"kind":"oracle","message":"oracle said no"}}"#),
            (error("pareto", "no measurable point"), Some("q3"), r#"{"v":1,"id":"q3","status":"error","error":{"kind":"pareto","message":"no measurable point"}}"#),
            (error("worker_panic", "chaos: requested panic"), Some("w1"), r#"{"v":1,"id":"w1","status":"error","error":{"kind":"worker_panic","message":"chaos: requested panic"}}"#),
            (Response::Overloaded { retry_after_ms: 150 }, Some("o1"), r#"{"v":1,"id":"o1","status":"overloaded","retry_after_ms":150}"#),
            (Response::shutting_down(), Some("s1"), r#"{"v":1,"id":"s1","status":"error","error":{"kind":"shutting_down","message":"server is shutting down"}}"#),
            (error("empty_flight", "no requests recorded yet"), Some("t1"), r#"{"v":1,"id":"t1","status":"error","error":{"kind":"empty_flight","message":"no requests recorded yet"}}"#),
            (error("io", "disk full"), Some("c1"), r#"{"v":1,"id":"c1","status":"error","error":{"kind":"io","message":"disk full"}}"#),
            (stats, Some("st"), r#"{"v":1,"id":"st","status":"ok","server":{"connections":101,"requests":102,"ok":103,"infeasible":104,"errors":105,"shed":106,"coalesced":107,"protocol_errors":108,"panics_caught":109,"fallbacks":110,"verified":112},"cache":{"hits":5,"misses":3,"infeasible":1,"errors":1,"entries":4,"resident":3,"replayed":0,"persisted":2,"journal_bytes":374,"garbage_ratio":0.25,"durable":true},"recovery":{"records_recovered":0,"corrupt_records_skipped":0,"torn_tails_truncated":0,"bytes_discarded":0}}"#),
        ];
        for (response, id, golden) in cases {
            assert_eq!(response.to_line(id), golden);
        }
        #[rustfmt::skip]
        let protocol_errors = [
            (ProtocolError::FrameTooLarge { limit: 1048576 }, r#"{"v":1,"status":"error","error":{"kind":"frame_too_large","message":"frame exceeds 1048576 byte limit"}}"#),
            (ProtocolError::ConnectionClosed, r#"{"v":1,"status":"error","error":{"kind":"connection_closed","message":"connection closed mid-frame"}}"#),
            (ProtocolError::Timeout, r#"{"v":1,"status":"error","error":{"kind":"timeout","message":"socket timeout"}}"#),
            (ProtocolError::BadJson("expected value at 0".into()), r#"{"v":1,"status":"error","error":{"kind":"bad_json","message":"invalid JSON: expected value at 0"}}"#),
            (ProtocolError::NotAnObject, r#"{"v":1,"status":"error","error":{"kind":"not_an_object","message":"request must be a JSON object"}}"#),
            (ProtocolError::MissingField("kernel"), r#"{"v":1,"status":"error","error":{"kind":"missing_field","message":"missing field 'kernel'"}}"#),
            (ProtocolError::BadField { field: "split", expected: "number in [0, 1]" }, r#"{"v":1,"status":"error","error":{"kind":"bad_field","message":"field 'split': expected number in [0, 1]"}}"#),
            (ProtocolError::UnknownKernel("gemmm".into()), r#"{"v":1,"status":"error","error":{"kind":"unknown_kernel","message":"unknown kernel 'gemmm'"}}"#),
            (ProtocolError::BadSource("1:8: expected `(`".into()), r#"{"v":1,"status":"error","error":{"kind":"bad_source","message":"source does not parse: 1:8: expected `(`"}}"#),
            (ProtocolError::UnknownOp("teleport".into()), r#"{"v":1,"status":"error","error":{"kind":"unknown_op","message":"unknown op 'teleport'"}}"#),
            (ProtocolError::Io("broken pipe".into()), r#"{"v":1,"status":"error","error":{"kind":"io","message":"i/o error: broken pipe"}}"#),
        ];
        for (e, golden) in protocol_errors {
            assert_eq!(Response::from(&e).to_line(None), golden);
        }
    }

    #[test]
    fn object_line_escapes_keys_and_passes_values() {
        let line = object_line(&[("status", str_field("ok")), ("n", "3".to_string())]);
        assert_eq!(line, r#"{"status":"ok","n":3}"#);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    }
}
