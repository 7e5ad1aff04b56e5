//! Every table and figure of the paper as a library function that writes
//! its report into a `String`, one module each. [`EXPERIMENTS`] lists
//! them in the order `run_all` regenerates `results/<name>.txt`, and each
//! has a test, named after it, that compares its report with the
//! committed file up to [`MEASURED_BELOW`](crate::MEASURED_BELOW).

// What the experiment modules share: each takes it with `use super::*`.
use crate::explore::{explore_space, summarize};
use crate::profiles;
use crate::table::{fmt_f, Table};
use eatss::sweep::{SweepOutcome, SweepPoint, PAPER_SPLITS, PAPER_WARP_FRACTIONS};
use eatss::{Eatss, EatssConfig};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::{stats, GpuArch};
use eatss_kernels::{Benchmark, Dataset};
use eatss_ppcg::{CompileOptions, TileSpace};
use std::fmt::{self, Write as _};

/// Why an experiment wrote no complete report.
#[derive(Debug)]
pub enum ExperimentError {
    /// It was asked for what it cannot do, such as a device list it does
    /// not take (`run_all` exits 2).
    Usage(String),
    /// A self-check failed or a pipeline stage returned an error
    /// (`run_all` exits 1).
    Failed(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Usage(m) | ExperimentError::Failed(m) => f.write_str(m),
        }
    }
}

/// Any pipeline error (a parse, a solve, an evaluation) fails the
/// experiment. `ExperimentError` is not itself a `std::error::Error`, so
/// this does not overlap `From<T> for T`.
impl<E: std::error::Error> From<E> for ExperimentError {
    fn from(e: E) -> Self {
        ExperimentError::Failed(e.to_string())
    }
}

/// How an experiment writes its report.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// A report that depends on nothing but the code.
    Fixed(fn(&mut String) -> Result<(), ExperimentError>),
    /// A report over a device list: the committed one is over `default`
    /// (builtin profile names), and `run_all --only NAME --profiles LIST`
    /// retargets it.
    Devices {
        /// Writes the report over the given devices.
        run: fn(&mut String, &[GpuArch]) -> Result<(), ExperimentError>,
        /// The devices of the committed report.
        default: &'static [&'static str],
    },
}

impl Run {
    /// Appends the report to `out`, over `devices` when given; devices
    /// given to a [`Run::Fixed`] experiment are a usage error. On an
    /// error `out` holds what was written before it.
    pub fn write(
        self,
        out: &mut String,
        devices: Option<&[GpuArch]>,
    ) -> Result<(), ExperimentError> {
        match (self, devices) {
            (Run::Fixed(run), None) => run(out),
            (Run::Fixed(_), Some(_)) => Err(ExperimentError::Usage(
                "--profiles: this experiment takes no devices".into(),
            )),
            (Run::Devices { run, .. }, Some(devices)) => run(out, devices),
            (Run::Devices { run, default }, None) => {
                run(out, &profiles::resolve(default.iter().copied())?)
            }
        }
    }
}

/// The [`Run`] of experiment module `$name`: `$name::run`, over the
/// listed devices if any.
macro_rules! run {
    ($name:ident) => {
        Run::Fixed($name::run)
    };
    ($name:ident $($device:literal)+) => {
        Run::Devices { run: $name::run, default: &[$($device),+] }
    };
}

/// Declares each experiment's module, its [`EXPERIMENTS`] entry and its
/// test, all under the experiment's name.
macro_rules! experiments {
    ($($name:ident $(on $($device:literal)+)?;)+) => {
        $(#[allow(non_snake_case)] mod $name;)+

        /// Every table/figure experiment, by name, in the order `run_all`
        /// regenerates `results/<name>.txt`. The last entry is the seeded
        /// differential-oracle sweep, whose report repeats exactly like
        /// the tables do.
        pub const EXPERIMENTS: &[(&str, Run)] = &[$((stringify!($name), run!($name $($($device)+)?))),+];

        #[cfg(test)]
        mod tests {
            use super::*;
            $(
                #[test]
                #[allow(non_snake_case)]
                fn $name() {
                    assert_regenerates(stringify!($name), run!($name $($($device)+)?));
                }
            )+
        }
    };
}

experiments! {
    tab01_arch_params;
    tab02_access_patterns;
    tab03_testbed;
    tab04_vendor_comparison;
    fig01_power_vs_size;
    fig02_tilespace_sorted;
    fig03_tilespace_scatter;
    fig07_polybench on "ga100" "xavier";
    fig08_shmem_splits on "ga100" "xavier";
    fig09_l2_power_correlation;
    fig10_nonpolybench_speedup on "ga100";
    fig11_nonpolybench_hist;
    fig12_size_sensitivity;
    fig13_size_sensitivity_np;
    fig14_vs_ytopt;
    secVg_solver_overhead;
    ablation_model_terms;
    ext_precision_study;
    ext_device_portfolio;
    oracle_sweep;
}

/// The registered benchmark `name` and its parsed program.
fn benchmark(name: &str) -> Result<(Benchmark, Program), ExperimentError> {
    let b = eatss_kernels::by_name(name)
        .ok_or_else(|| ExperimentError::Failed(format!("no benchmark `{name}` is registered")))?;
    let program = b.program()?;
    Ok((b, program))
}

/// The best point by PPW of a configuration sweep of benchmark `name`.
fn best_by_ppw<'a>(sweep: &'a SweepOutcome, name: &str) -> Result<&'a SweepPoint, ExperimentError> {
    sweep
        .best_by_ppw()
        .ok_or_else(|| ExperimentError::Failed(format!("{name}: no valid EATSS point")))
}

/// Figs. 12 and 13: default PPCG against `best`'s EATSS tiles, under its
/// configuration, at each `(N, sizes)`: GFLOP/s, average power and PPW,
/// `n/a` where a variant cannot run.
fn size_sensitivity(
    out: &mut String,
    eatss: &Eatss,
    (name, program): (&str, &Program),
    best: &SweepPoint,
    param: &str,
    sizes: impl IntoIterator<Item = (i64, ProblemSizes)>,
) -> Result<(), ExperimentError> {
    let default = TileConfig::ppcg_default(program.max_depth());
    let tiles = &best.solution.tiles;
    let mut t = Table::new([
        param,
        "def GF",
        "def W",
        "def PPW",
        "eatss GF",
        "eatss W",
        "eatss PPW",
    ]);
    for (n, sizes) in sizes {
        let mut row = vec![n.to_string()];
        for tiles in [&default, tiles] {
            let r = eatss.evaluate(program, tiles, &sizes, &best.config)?;
            for v in [r.gflops, r.avg_power_w, r.ppw] {
                row.push(if r.valid { fmt_f(v) } else { "n/a".into() });
            }
        }
        t.row(row);
    }
    writeln!(out, "--- {name} (EATSS tiles {tiles}) ---")?;
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// Regenerates a report in memory and compares it with
/// `results/<name>.txt` up to the marker.
#[cfg(test)]
fn assert_regenerates(name: &str, run: Run) {
    let mut report = String::new();
    if let Err(e) = run.write(&mut report, None) {
        panic!("{name}: {e}");
    }
    let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let deterministic = crate::deterministic_part;
    assert!(
        deterministic(&report) == deterministic(&committed),
        "results/{name}.txt is not what the code regenerates: \
         `run_all --only {name} | diff results/{name}.txt -` shows where"
    );
}
