//! The four workloads and what they share: the window result, the
//! closed-loop driver of the three library workloads, and the interface
//! the runner drives them through.

pub mod select_cold;
pub mod serve_mixed;
pub mod sweep_front;
pub mod verify_oracle;

use crate::metrics::{median_f64, peak_rss_mb, quantile, reference_ms, slowdown};
use crate::pipeline::Probe;
use crate::spans::Recorder;
use std::time::{Duration, Instant};

/// Failure reasons kept for the report (every failure is still counted).
const KEPT_FAILURES: usize = 8;
/// A library window samples the machine reference at the end of every
/// pass, and between two ops once this long has passed since its last
/// sample.
const REFERENCE_EVERY: Duration = Duration::from_millis(100);

/// One slice of a window — a pass over the op list, or half a second of
/// serve traffic — reduced to what the end-to-end metrics need. Windows
/// report the median over their slices, which a burst of machine noise
/// shorter than half the window cannot move.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Ops that completed correctly in the slice.
    pub ops: u64,
    pub wall_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

impl Slice {
    /// Reduces the latencies of the ops one slice completed correctly.
    /// `None` when there were none.
    pub fn of(latencies_ns: &mut [u64], wall_ns: u64) -> Option<Slice> {
        if latencies_ns.is_empty() {
            return None;
        }
        latencies_ns.sort_unstable();
        Some(Slice {
            ops: latencies_ns.len() as u64,
            wall_ns,
            p50_ns: quantile(latencies_ns, 0.50),
            p99_ns: quantile(latencies_ns, 0.99),
        })
    }
}

/// `ns` of wall clock as time on the quiet reference box, given how much
/// slower the machine was running.
pub fn in_reference_time(ns: u64, slowdown: f64) -> u64 {
    (ns as f64 / slowdown).round() as u64
}

/// (`ops_per_s`, `latency_p50_ms`, `latency_p99_ms`): the median over
/// `slices` of each slice's own rate, p50 and p99.
fn medians(slices: &[Slice]) -> Option<[f64; 3]> {
    if slices.is_empty() {
        return None;
    }
    let median_of = |per_slice: fn(&Slice) -> f64| {
        median_f64(&mut slices.iter().map(per_slice).collect::<Vec<_>>())
    };
    Some([
        median_of(|s| s.ops as f64 / (s.wall_ns as f64 / 1e9)),
        median_of(|s| s.p50_ns as f64 / 1e6),
        median_of(|s| s.p99_ns as f64 / 1e6),
    ])
}

/// What one closed-loop window measured.
#[derive(Debug)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The window's complete slices (its only, partial one when it was too
    /// short to complete any), in reference time: every duration divided
    /// by the `metrics::slowdown` of the machine-reference samples taken
    /// around it. The host's speed moves within a window; the stretch
    /// between two samples is short enough to have one speed.
    pub slices: Vec<Slice>,
    /// The same slices on the wall clock, as measured.
    pub measured: Vec<Slice>,
    /// Every `metrics::reference_ms` sample taken between the window's ops.
    pub reference_ms: Vec<f64>,
    /// `VmHWM` of the process when the window ended (for `serve-mixed`:
    /// when it reached a fixed op count, see there).
    pub peak_rss_mb: f64,
    /// Spans of a traced window.
    pub recorder: Option<Recorder>,
    pub probe: Probe,
}

impl Window {
    pub fn new(recorder: Option<Recorder>) -> Self {
        Window {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            slices: Vec::new(),
            measured: Vec::new(),
            reference_ms: Vec::new(),
            peak_rss_mb: 0.0,
            recorder,
            probe: Probe::default(),
        }
    }

    pub fn fail(&mut self, reason: String) {
        self.absorb_failures(1, vec![reason]);
    }

    /// Adds failures counted elsewhere (another thread, a later check).
    pub fn absorb_failures(&mut self, failed: u64, reasons: Vec<String>) {
        self.failed += failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(reasons.into_iter().take(room));
    }

    /// (`ops_per_s`, `latency_p50_ms`, `latency_p99_ms`) in reference
    /// time: what the window reports.
    pub fn timings(&self) -> Option<[f64; 3]> {
        medians(&self.slices)
    }

    /// The same three on the wall clock, for the reader.
    pub fn as_measured(&self) -> Option<[f64; 3]> {
        medians(&self.measured)
    }

    /// Latency samples behind the numbers above.
    pub fn samples(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }
}

/// A workload as the runner sees it. Set-up is the type's constructor.
pub trait Workload {
    /// Load-generating threads (and connections) in use.
    fn threads(&self) -> usize;

    /// Runs the closed loop for `dur`, then whatever checks can only run
    /// once it is over. A traced window runs the decomposed ops under the
    /// span recorder.
    fn window(&mut self, dur: Duration, traced: bool) -> Result<Window, String>;

    /// Geomean simulated (energy, PPW) of the answered tiles relative to
    /// `32^d`, over the distinct catalogue keys answered so far.
    fn sim_ratios(&self) -> Result<(f64, f64), String>;

    /// Stops anything the workload started and removes what it wrote.
    fn teardown(&mut self) {}
}

/// The op list of a single-threaded library workload.
pub trait LibraryOps {
    /// What one op produced, handed from the decomposition to its check.
    type Answer;

    fn len(&self) -> usize;

    /// The op as a user would run it: composite calls, no spans.
    fn run(&mut self, i: usize) -> Result<(), String>;

    /// The op with each composite call replaced by its decomposition,
    /// one span per layer call. Runs inside the op's root span.
    fn decomposed(
        &mut self,
        i: usize,
        rec: &mut Recorder,
        probe: &mut Probe,
    ) -> Result<Self::Answer, String>;

    /// Runs the composite path (in `check.*` spans, outside the op) and
    /// fails the op unless it equals the decomposition's answer.
    fn check(
        &mut self,
        i: usize,
        answer: Self::Answer,
        rec: &mut Recorder,
        probe: &mut Probe,
    ) -> Result<(), String>;
}

/// One untimed pass over every op — the last step of set-up, so lazy
/// initialisation and cold caches are not timed.
pub fn warmed_up<W: LibraryOps>(mut w: W) -> Result<W, String> {
    for i in 0..w.len() {
        w.run(i)?;
    }
    Ok(w)
}

/// One traced op: decomposition under a root span, then the check.
/// Returns the op's latency (its root span).
pub fn traced_op<W: LibraryOps>(
    w: &mut W,
    i: usize,
    op_id: u64,
    rec: &mut Recorder,
    probe: &mut Probe,
) -> Result<Duration, String> {
    let root = rec.begin_op(op_id);
    let started = Instant::now();
    let answer = w.decomposed(i, rec, probe);
    let latency = started.elapsed();
    rec.exit(root);
    answer
        .and_then(|a| w.check(i, a, rec, probe))
        .map(|()| latency)
}

/// Passes over the op list from its start, one op at a time, until `dur`
/// has elapsed. A slice is one pass; its wall time is the sum of its ops'
/// latencies, which leaves out the traced run's equality checks. Only
/// per-pass summaries are kept, so the harness's own memory does not grow
/// with the number of ops. Between ops — at the end of a pass and every
/// [`REFERENCE_EVERY`] — it samples the machine reference, and each op's
/// latency is stated against the samples before and after it.
///
/// A traced window also checks, as one more op per pass, that the pass
/// added exactly the layer counts the first pass did: the same inputs
/// must cost the same work.
pub fn closed_loop<W: LibraryOps>(
    w: &mut W,
    dur: Duration,
    traced: bool,
) -> Result<Window, String> {
    let mut win = Window::new(traced.then(|| Recorder::new(Instant::now())));
    let mut pass = Vec::with_capacity(w.len());
    let mut counts_at_pass_start = win.probe.counts.as_array();
    let mut first_pass_counts = None;
    let mut issued = 0usize;
    let started = Instant::now();
    // Every reference sample of the window; `pass` keeps with each latency
    // the index of the sample taken before its op.
    let mut reference = vec![reference_ms()];
    let mut sampled = Instant::now();
    while started.elapsed() < dur {
        let i = issued % w.len();
        let outcome = match &mut win.recorder {
            Some(rec) => traced_op(w, i, issued as u64, rec, &mut win.probe),
            None => {
                let op_started = Instant::now();
                w.run(i).map(|()| op_started.elapsed())
            }
        };
        issued += 1;
        win.attempted += 1;
        match outcome {
            Ok(latency) => pass.push((latency.as_nanos() as u64, reference.len() - 1)),
            Err(reason) => win.fail(reason),
        }
        let pass_done = issued.is_multiple_of(w.len());
        if pass_done || sampled.elapsed() >= REFERENCE_EVERY {
            reference.push(reference_ms());
            sampled = Instant::now();
        }
        if pass_done {
            close_pass(&mut win, &mut pass, &reference);
            if traced {
                let now = win.probe.counts.as_array();
                let added: Vec<u64> = now
                    .iter()
                    .zip(counts_at_pass_start)
                    .map(|(n, was)| n - was)
                    .collect();
                counts_at_pass_start = now;
                win.attempted += 1;
                if let Err(reason) =
                    same_as_first(&mut first_pass_counts, added, "layer counts of a pass")
                {
                    win.fail(reason);
                }
            }
        }
    }
    if win.slices.is_empty() {
        reference.push(reference_ms());
        close_pass(&mut win, &mut pass, &reference);
    }
    win.reference_ms = reference;
    win.peak_rss_mb = peak_rss_mb()?;
    Ok(win)
}

/// Turns a pass's (latency, index of the reference sample before the op)
/// pairs into its slice, once on the wall clock and once with each latency
/// stated against the samples before and after its op. The pass's last op
/// must have a sample after it.
fn close_pass(win: &mut Window, pass: &mut Vec<(u64, usize)>, reference: &[f64]) {
    let mut measured: Vec<u64> = pass.iter().map(|(ns, _)| *ns).collect();
    let mut scaled: Vec<u64> = pass
        .iter()
        .map(|(ns, before)| in_reference_time(*ns, slowdown(&reference[*before..*before + 2])))
        .collect();
    pass.clear();
    let wall_ns = measured.iter().sum();
    win.measured.extend(Slice::of(&mut measured, wall_ns));
    let wall_ns = scaled.iter().sum();
    win.slices.extend(Slice::of(&mut scaled, wall_ns));
}

/// Remembers the first answer and fails any later one that differs: the
/// program must be deterministic for its answers to be comparable at all.
pub fn same_as_first<A: PartialEq + std::fmt::Debug>(
    slot: &mut Option<A>,
    answer: A,
    what: &str,
) -> Result<(), String> {
    match slot {
        Some(first) if *first != answer => Err(format!(
            "{what}: answer changed between passes: {first:?} then {answer:?}"
        )),
        Some(_) => Ok(()),
        None => {
            *slot = Some(answer);
            Ok(())
        }
    }
}

/// Geomeans of per-key (energy, PPW) ratios; any key that cannot be
/// evaluated is an error, not a skipped row.
pub fn geomean_ratios(
    ratios: impl Iterator<Item = Result<(f64, f64), String>>,
) -> Result<(f64, f64), String> {
    let (energy, ppw): (Vec<f64>, Vec<f64>) =
        ratios.collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    if energy.is_empty() {
        return Err("no catalogue key was answered".to_string());
    }
    Ok((
        crate::metrics::geomean(&energy),
        crate::metrics::geomean(&ppw),
    ))
}
