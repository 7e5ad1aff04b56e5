//! One run of one workload: set-up, the timed window (or the traced run),
//! and the metrics drawn from it.

use crate::metrics::{median_f64, reference_ms, slowdown, Record, RunProvenance, Values};
use crate::spans::LAYERS;
use crate::tour;
use crate::workloads::select_cold::SelectCold;
use crate::workloads::serve_mixed::ServeMixed;
use crate::workloads::sweep_front::SweepFront;
use crate::workloads::verify_oracle::VerifyOracle;
use crate::workloads::{Window, Workload};
use crate::WorkloadDef;
use eatss_trace::Provenance;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up is repeated and its median reported, each against the machine
/// reference sampled around it, so `setup_s` is as steady as the other
/// timings. The last set-up is the one measured on.
const SETUP_REPEATS: usize = 3;
/// Machine-reference samples taken before and after each set-up.
const SETUP_REFERENCE_SAMPLES: usize = 5;
/// Load-generating threads never exceed this (nor `nproc`).
const MAX_THREADS: usize = 2;
/// `SweepOptions::jobs` of `sweep-front`. On the two shared vCPUs of the
/// reference box two jobs were 9% slower than one and their timings spread
/// four times as wide between runs, so the sweep runs on one.
const SWEEP_JOBS: usize = 1;
/// The traced run spends this share of `--seconds` in an untraced window
/// and the same again in the traced one; the tour takes the rest.
const TRACED_WINDOW_SHARE: f64 = 0.4;
/// The traced run's assertion that the layers sum to the total.
const MIN_COVERAGE: f64 = 0.90;

pub struct RunArgs<'a> {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where the journal directories and the trace file go.
    pub out_dir: &'a Path,
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_THREADS)
}

fn set_up(name: &str, seed: u64, out_dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "select-cold" => Box::new(SelectCold::seeded(seed)?),
        "verify-oracle" => Box::new(VerifyOracle::seeded(seed)?),
        "sweep-front" => Box::new(SweepFront::seeded(seed, SWEEP_JOBS)?),
        "serve-mixed" => Box::new(ServeMixed::seeded(seed, threads(), out_dir)?),
        other => return Err(format!("no workload named `{other}`")),
    })
}

pub fn run(args: &RunArgs) -> Result<Record, String> {
    std::fs::create_dir_all(args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    // Every machine-reference sample of the run; set-up's own come first.
    let mut reference = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None::<Box<dyn Workload>>;
    for _ in 0..SETUP_REPEATS {
        if let Some(mut previous) = workload.take() {
            previous.teardown();
        }
        let mut around: Vec<f64> = (0..SETUP_REFERENCE_SAMPLES)
            .map(|_| reference_ms())
            .collect();
        let started = Instant::now();
        workload = Some(set_up(args.workload.name, args.seed, args.out_dir)?);
        let elapsed = started.elapsed().as_secs_f64();
        around.extend((0..SETUP_REFERENCE_SAMPLES).map(|_| reference_ms()));
        setup_s.push(elapsed / slowdown(&around));
        reference.extend(around);
    }
    let mut workload = workload.expect("set up at least once");

    let mut record = Record {
        workload: args.workload.name,
        traced: args.traced,
        attempted: 0,
        failed: 0,
        samples: 0,
        values: Values::default(),
        provenance: RunProvenance {
            build: Provenance::collect(None),
            threads_used: workload.threads(),
            seed: args.seed,
            window_seconds: args.seconds,
            reference_ms: 0.0,
            as_measured: None,
        },
        failures: Vec::new(),
    };
    let outcome = if args.traced {
        traced_windows(args, workload.as_mut(), &mut record, &mut reference)
    } else {
        timed_run(args, workload.as_mut(), &mut record, &mut reference)
    };
    // Before the tour: its serve session must not share the process-wide
    // metrics registry with this workload's daemon.
    workload.teardown();
    let window_values = outcome?;
    if args.traced {
        let tour = tour::run(args.seed, threads(), args.out_dir)?;
        record.attempted += tour.attempted;
        record.failed += tour.failed;
        record.failures.extend(tour.failures);
        record.values = tour.values;
        record
            .values
            .set("machine.reference_ms", record.provenance.reference_ms);
    } else {
        record.values.set("setup_s", median_f64(&mut setup_s));
    }
    for (name, value) in window_values {
        record.values.set(name, value);
    }
    Ok(record)
}

fn absorb(record: &mut Record, window: &Window, reference: &mut Vec<f64>) {
    reference.extend(&window.reference_ms);
    record.provenance.reference_ms = median_f64(&mut reference.clone());
    record.attempted += window.attempted;
    record.failed += window.failed;
    record.failures.extend(window.failures.iter().cloned());
}

type Named = Vec<(&'static str, f64)>;

fn timed_run(
    args: &RunArgs,
    workload: &mut dyn Workload,
    record: &mut Record,
    reference: &mut Vec<f64>,
) -> Result<Named, String> {
    let window = workload.window(Duration::from_secs_f64(args.seconds), false)?;
    absorb(record, &window, reference);
    record.samples = window.samples();
    let [ops_per_s, p50_ms, p99_ms] = window
        .timings()
        .ok_or_else(|| format!("no op of the window was correct: {:?}", window.failures))?;
    record.provenance.as_measured = window.as_measured();
    let (energy, ppw) = workload.sim_ratios()?;
    Ok(vec![
        ("ops_per_s", ops_per_s),
        ("latency_p50_ms", p50_ms),
        ("latency_p99_ms", p99_ms),
        ("peak_rss_mb", window.peak_rss_mb),
        ("sim_energy_ratio", energy),
        ("sim_ppw_gain", ppw),
    ])
}

/// The untraced and the traced window of a traced run, and what only
/// they can say: the workload's layer shares and the tracing overhead.
fn traced_windows(
    args: &RunArgs,
    workload: &mut dyn Workload,
    record: &mut Record,
    reference: &mut Vec<f64>,
) -> Result<Named, String> {
    let share = Duration::from_secs_f64(args.seconds * TRACED_WINDOW_SHARE);
    let untraced = workload.window(share, false)?;
    absorb(record, &untraced, reference);
    let mut traced = workload.window(share, true)?;
    absorb(record, &traced, reference);
    record.samples = traced.samples();

    let recorder = traced
        .recorder
        .take()
        .expect("a traced window records spans");
    let summary = recorder.summary();
    let header = format!(
        "\"workload\":\"{}\",\"provenance\":{},\"by_name\":{}",
        args.workload.name,
        record.provenance.to_json(),
        summary.to_json()
    );
    let trace_path = args
        .out_dir
        .join(format!("{}.trace.json", args.workload.name));
    std::fs::write(&trace_path, recorder.to_json(&header))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let coverage = summary.coverage();
    record.attempted += 1;
    if coverage < MIN_COVERAGE {
        record.failed += 1;
        record.failures.push(format!("trace.coverage {coverage:.4} is below {MIN_COVERAGE}: the layer spans do not sum to the op wall"));
    }

    let mut values: Named = LAYERS
        .iter()
        .zip([
            "share.affine",
            "share.core",
            "share.smt",
            "share.ppcg",
            "share.gpusim",
            "share.serve",
        ])
        .map(|(layer, name)| (name, summary.share(layer)))
        .collect();
    values.push(("trace.spans", recorder.len() as f64));
    values.push(("trace.coverage", coverage));
    let rate = |w: &Window| {
        w.timings()
            .map(|[ops_per_s, ..]| ops_per_s)
            .ok_or_else(|| format!("no op of a window was correct: {:?}", w.failures))
    };
    values.push(("trace.overhead_ratio", rate(&traced)? / rate(&untraced)?));
    Ok(values)
}
