//! **Extension study (device portfolio)** — the paper's configuration
//! sweep on every committed [`DeviceProfile`], reduced to per-device
//! energy-vs-performance Pareto fronts, then the GA100's tuning history
//! transferred to every other device through the RBF surrogate. Three
//! checks fail the experiment:
//!
//! 1. *Dominance* — every front point is re-checked against a brute-force
//!    dominance oracle over the whole sweep, and the front's deterministic
//!    ordering (ascending energy, strictly increasing throughput) is
//!    asserted, including across a recomputation.
//! 2. *Correctness* — every front point's tiles are verified bitwise
//!    against the reference interpreter through [`Eatss::verify`], each
//!    under the code its own configuration compiles to on that device.
//! 3. *Transfer* — the RBF surrogate fitted on the GA100's tuning history
//!    must reduce evals-to-best on more of the other devices than it
//!    slows down, compared to a cold search with the same budget and seed.
//!
//! A failed check is a `REGRESSION:` line in the returned
//! [`ExperimentError::Failed`]. The report repeats exactly and is
//! committed as `results/ext_device_portfolio.txt`.

use super::*;
use crate::profiles::dataset_for;
use eatss::VERIFY_SEED;
use eatss_autotune::{Autotuner, SurrogatePrior, TuneOptions, TuneResult};
use eatss_gpusim::DeviceProfile;

const KERNELS: [&str; 4] = ["gemm", "2mm", "mvt", "jacobi-2d"];
const WARP_FRACTIONS: [f64; 2] = [0.5, 0.25];
const TRANSFER_TARGETS: [&str; 4] = ["xavier", "h100", "orin", "nano"];

/// Transfer-experiment seeds: the prior is fitted under one seed and the
/// cold/warm comparison runs under another, so the reduction cannot come
/// from replaying the source trajectory.
const SOURCE_SEED: u64 = 7;
const TARGET_SEED: u64 = 9;
const TRANSFER_BUDGET: usize = 40;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let devices = DeviceProfile::builtin_names();
    writeln!(
        out,
        "Extension (device portfolio): Pareto fronts of the configuration sweep, \
         {} devices x {} kernels x {} warp fractions\n",
        devices.len(),
        KERNELS.len(),
        WARP_FRACTIONS.len()
    )?;

    let mut regressions: Vec<String> = Vec::new();
    let mut summary = Table::new(vec![
        "device",
        "kernel",
        "points",
        "front",
        "min E (J)",
        "max GF",
        "verified pts",
    ]);
    let mut fronts = Table::new(vec![
        "device",
        "kernel",
        "tiles",
        "split",
        "warp frac",
        "cap",
        "provenance",
        "J",
        "GFLOP/s",
        "PPW",
    ]);

    for device in &devices {
        let arch = builtin(device)?;
        let eatss = Eatss::new(arch.clone());
        for name in KERNELS {
            let (b, program) = benchmark(name)?;
            let sizes = b.sizes(dataset_for(&arch));
            let outcome = match eatss.sweep(&program, &sizes, &PAPER_SPLITS, &WARP_FRACTIONS) {
                Ok(o) => o,
                Err(e) => {
                    regressions.push(format!("{device}/{name}: sweep failed: {e}"));
                    continue;
                }
            };
            let front = outcome.pareto_front();
            check_front(device, name, &outcome, &front, &mut regressions);

            let verified_points = match verify_front(&eatss, &program, &sizes, &front) {
                Ok(points) => points,
                Err(e) => {
                    regressions.push(format!("{device}/{name}: oracle: {e}"));
                    0
                }
            };
            summary.row(vec![
                (*device).into(),
                name.into(),
                outcome.points.len().to_string(),
                front.len().to_string(),
                fmt_f(front.first().map_or(f64::NAN, |p| p.report.energy_j)),
                fmt_f(front.last().map_or(f64::NAN, |p| p.report.gflops)),
                verified_points.to_string(),
            ]);
            for p in &front {
                fronts.row(vec![
                    (*device).into(),
                    name.into(),
                    p.solution.tiles.to_string(),
                    format!("{:.2}", p.config.split_factor),
                    format!("{:.3}", p.config.warp_fraction),
                    format!("{:?}", p.config.cap),
                    p.solution.provenance.to_string(),
                    fmt_f(p.report.energy_j),
                    fmt_f(p.report.gflops),
                    fmt_f(p.report.ppw),
                ]);
            }
        }
    }
    writeln!(out, "{}", summary.render())?;
    writeln!(
        out,
        "Front points, ascending energy within each device x kernel:\n"
    )?;
    writeln!(out, "{}", fronts.render())?;

    // --- surrogate transfer: GA100 history seeds every other device ---
    writeln!(
        out,
        "Surrogate transfer: gemm tuned on GA100 (budget {TRANSFER_BUDGET}), its history \
         seeding the search on each other device:\n"
    )?;
    writeln!(out, "{}", run_transfer(&mut regressions)?.render())?;

    if !regressions.is_empty() {
        let lines: Vec<String> = regressions
            .iter()
            .map(|r| format!("REGRESSION: {r}"))
            .collect();
        return Err(ExperimentError::Failed(lines.join("\n")));
    }
    writeln!(
        out,
        "all fronts non-dominated, oracle-verified; transfer reduces evals-to-best"
    )?;
    Ok(())
}

fn builtin(device: &str) -> Result<GpuArch, ExperimentError> {
    DeviceProfile::builtin(device)
        .map(DeviceProfile::into_arch)
        .ok_or_else(|| ExperimentError::Failed(format!("no builtin profile `{device}`")))
}

/// The dominance gate: ordering, brute-force non-domination, and
/// recomputation determinism.
fn check_front(
    device: &str,
    kernel: &str,
    outcome: &SweepOutcome,
    front: &[&SweepPoint],
    regressions: &mut Vec<String>,
) {
    if front.is_empty() {
        regressions.push(format!("{device}/{kernel}: empty Pareto front"));
        return;
    }
    for pair in front.windows(2) {
        if pair[0].report.energy_j > pair[1].report.energy_j
            || pair[0].report.gflops >= pair[1].report.gflops
        {
            regressions.push(format!(
                "{device}/{kernel}: front ordering violated at E={} GF={}",
                pair[1].report.energy_j, pair[1].report.gflops
            ));
        }
    }
    for f in front {
        for p in &outcome.points {
            if !(p.report.valid && p.report.energy_j.is_finite() && p.report.gflops.is_finite()) {
                continue;
            }
            let dominates = p.report.energy_j <= f.report.energy_j
                && p.report.gflops >= f.report.gflops
                && (p.report.energy_j < f.report.energy_j || p.report.gflops > f.report.gflops);
            if dominates {
                regressions.push(format!(
                    "{device}/{kernel}: front point E={} GF={} is dominated",
                    f.report.energy_j, f.report.gflops
                ));
            }
        }
    }
    // Determinism: recomputing the front from the same outcome yields the
    // same bits in the same order.
    let again = outcome.pareto_front();
    let same = again.len() == front.len()
        && again.iter().zip(front).all(|(a, b)| {
            a.report.energy_j.to_bits() == b.report.energy_j.to_bits()
                && a.report.gflops.to_bits() == b.report.gflops.to_bits()
        });
    if !same {
        regressions.push(format!("{device}/{kernel}: front recomputation differs"));
    }
}

/// The correctness gate: every front point's tiles agree bitwise with the
/// reference interpreter, under its own configuration's codegen. Returns
/// the iteration points compared.
fn verify_front(
    eatss: &Eatss,
    program: &eatss_affine::Program,
    sizes: &eatss_affine::ProblemSizes,
    front: &[&SweepPoint],
) -> Result<u64, String> {
    let configs: Vec<_> = front
        .iter()
        .map(|p| (&p.config, &p.solution.tiles))
        .collect();
    let verdicts = eatss.verify(program, sizes, &configs, VERIFY_SEED);
    let mut points = 0u64;
    for (i, verdict) in verdicts.into_iter().enumerate() {
        match verdict {
            Ok(report) => points += report.points,
            Err(e) => return Err(format!("front point {i} ({}): {e}", configs[i].1)),
        }
    }
    Ok(points)
}

/// The transfer gate: tune gemm on the GA100, fit the surrogate prior
/// from that history, and require the prior-seeded search to reach its
/// best in strictly fewer evaluations than the cold search on more
/// targets than it slows down. Per-target outcomes (including honest
/// negatives — a datacenter prior can mislead an embedded part and vice
/// versa) are rows of the returned table rather than failures of their
/// own.
fn run_transfer(regressions: &mut Vec<String>) -> Result<Table, ExperimentError> {
    let mut table = Table::new(vec![
        "source",
        "target",
        "prior n",
        "cold evals-to-best",
        "warm evals-to-best",
        "cold best GF",
        "warm best GF",
    ]);
    let (b, program) = benchmark("gemm")?;
    let sizes = b.sizes_uniform(1024);
    let space = TileSpace::evaluation_grid(program.max_depth());
    let cfg = EatssConfig::default();

    let objective = |eatss: &Eatss| {
        let program = program.clone();
        let sizes = sizes.clone();
        let cfg = cfg.clone();
        let eatss = eatss.clone();
        move |tiles: &eatss_affine::tiling::TileConfig| {
            eatss
                .evaluate(&program, tiles, &sizes, &cfg)
                .ok()
                .filter(|r| r.valid && r.gflops.is_finite())
                .map(|r| r.gflops)
        }
    };

    let source = Eatss::new(builtin("ga100")?);
    let fitted: TuneResult = Autotuner::new(TuneOptions {
        budget: TRANSFER_BUDGET,
        seed: SOURCE_SEED,
        ..TuneOptions::default()
    })
    .tune(&space, objective(&source));
    let prior = SurrogatePrior::from_result(&fitted);
    if prior.is_empty() {
        regressions.push("transfer: empty GA100 prior (no successful evaluations)".into());
        return Ok(table);
    }

    let (mut faster, mut slower) = (0, 0);
    for target in TRANSFER_TARGETS {
        let eatss = Eatss::new(builtin(target)?);
        let opts = TuneOptions {
            budget: TRANSFER_BUDGET,
            seed: TARGET_SEED,
            ..TuneOptions::default()
        };
        let cold = Autotuner::new(opts.clone()).tune(&space, objective(&eatss));
        let warm = Autotuner::new(opts).tune_with_prior(&space, objective(&eatss), Some(&prior));
        let (Some(cold_evals), Some(warm_evals)) = (cold.evals_to_best(), warm.evals_to_best())
        else {
            regressions.push(format!(
                "transfer ga100->{target}: no successful evaluations"
            ));
            continue;
        };
        faster += usize::from(warm_evals < cold_evals);
        slower += usize::from(warm_evals > cold_evals);
        table.row(vec![
            "ga100".into(),
            target.into(),
            prior.len().to_string(),
            cold_evals.to_string(),
            warm_evals.to_string(),
            fmt_f(cold.best_value),
            fmt_f(warm.best_value),
        ]);
    }
    if !table.is_empty() && faster <= slower {
        regressions.push(format!(
            "transfer: warm start reduced evals-to-best on {faster} target(s) but slowed {slower}"
        ));
    }
    Ok(table)
}
