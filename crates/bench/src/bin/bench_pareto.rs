//! **bench_pareto** — device-portfolio fleet benchmark: the paper's
//! configuration sweep on every committed [`DeviceProfile`], reduced to
//! per-device energy-vs-performance Pareto fronts, with three acceptance
//! gates wired to the exit code:
//!
//! 1. *Dominance* — every front point is re-checked against a brute-force
//!    dominance oracle over the whole sweep, and the front's deterministic
//!    ordering (ascending energy, strictly increasing throughput) is
//!    asserted, including across a recomputation.
//! 2. *Correctness* — every front point's tiles are verified bitwise
//!    against the reference interpreter through [`Eatss::verify`], each
//!    under the code its own configuration compiles to on that device.
//! 3. *Transfer* — the RBF surrogate fitted on the GA100's tuning history
//!    must reduce evals-to-best on each other device compared to a cold
//!    search with the same budget and seed.
//!
//! Any gate failing is recorded in the report's `regressions`, printed as
//! a `REGRESSION` line, and makes the exit code non-zero, so CI can run
//! `--mode smoke` as a tripwire.
//!
//! Usage: `bench_pareto [--mode smoke|full] [--out PATH]`
//!   --mode smoke   2 kernels, uniform sizes, single warp fraction (CI)
//!   --mode full    4 kernels at per-device datasets, two warp fractions
//!   --out PATH     JSON report path (default BENCH_pareto.json)

use eatss::sweep::{SweepOutcome, SweepPoint, PAPER_SPLITS};
use eatss::{Eatss, EatssConfig, ThreadBlockCap, VERIFY_SEED};
use eatss_autotune::{Autotuner, SurrogatePrior, TuneOptions, TuneResult};
use eatss_bench::table::fmt_f;
use eatss_bench::Table;
use eatss_gpusim::DeviceProfile;
use eatss_kernels::Dataset;
use eatss_ppcg::TileSpace;
use eatss_trace::json::Json;
use eatss_trace::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Transfer-experiment seeds: the prior is fitted under one seed and the
/// cold/warm comparison runs under another, so the reduction cannot come
/// from replaying the source trajectory.
const SOURCE_SEED: u64 = 7;
const TARGET_SEED: u64 = 9;
const TRANSFER_BUDGET: usize = 40;

struct TransferRow {
    source: String,
    target: String,
    prior_samples: usize,
    cold_evals_to_best: usize,
    warm_evals_to_best: usize,
    cold_best: f64,
    warm_best: f64,
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_pareto.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().as_deref()) {
            ("--mode", Some("smoke")) => smoke = true,
            ("--mode", Some("full")) => smoke = false,
            ("--out", Some(path)) => out = PathBuf::from(path),
            _ => {
                eprintln!("usage: bench_pareto [--mode smoke|full] [--out PATH]");
                return ExitCode::from(2);
            }
        }
    }
    let mode = if smoke { "smoke" } else { "full" };

    let kernels: &[&str] = if smoke {
        &["gemm", "mvt"]
    } else {
        &["gemm", "2mm", "mvt", "jacobi-2d"]
    };
    let fractions: &[f64] = if smoke { &[0.5] } else { &[0.5, 0.25] };
    let devices = DeviceProfile::builtin_names();
    println!(
        "device-portfolio Pareto fronts: {} devices x {} kernels ({mode} mode)\n",
        devices.len(),
        kernels.len()
    );

    let mut regressions: Vec<String> = Vec::new();
    let mut runs: Vec<Json> = Vec::new();
    let mut t = Table::new(vec![
        "device",
        "kernel",
        "points",
        "front",
        "min E (J)",
        "max GF",
        "verified pts",
    ]);

    for device in &devices {
        let arch = DeviceProfile::builtin(device)
            .expect("builtin profile")
            .into_arch();
        let eatss = Eatss::new(arch.clone());
        for name in kernels {
            let b = eatss_kernels::by_name(name).expect("registered benchmark");
            let program = b.program().expect("benchmark parses");
            // Dataset heuristic: datacenter-class parts (>= 32 SMs) run
            // the EXTRALARGE sets, embedded parts the STANDARD ones —
            // the Fig 7 GA100/Xavier pairing generalized to the fleet.
            let sizes = if smoke {
                b.sizes_uniform(1024)
            } else if arch.sm_count >= 32 {
                b.sizes(Dataset::ExtraLarge)
            } else {
                b.sizes(Dataset::Standard)
            };
            let outcome = match eatss.sweep(&program, &sizes, &PAPER_SPLITS, fractions) {
                Ok(o) => o,
                Err(e) => {
                    regressions.push(format!("{device}/{name}: sweep failed: {e}"));
                    continue;
                }
            };
            let front = outcome.pareto_front();
            check_front(device, name, &outcome, &front, &mut regressions);

            let (vc, vp) = match verify_front(&eatss, &program, &sizes, &front) {
                Ok(pair) => pair,
                Err(e) => {
                    regressions.push(format!("{device}/{name}: oracle: {e}"));
                    (0, 0)
                }
            };
            t.row(vec![
                (*device).into(),
                (*name).into(),
                outcome.points.len().to_string(),
                front.len().to_string(),
                fmt_f(front.first().map_or(f64::NAN, |p| p.report.energy_j)),
                fmt_f(front.last().map_or(f64::NAN, |p| p.report.gflops)),
                vp.to_string(),
            ]);
            runs.push(Json::object([
                ("device", (*device).into()),
                ("kernel", (*name).into()),
                ("points", outcome.points.len().into()),
                ("infeasible", outcome.infeasible.len().into()),
                ("verified_configs", vc.into()),
                ("verified_points", vp.into()),
                ("front", front.iter().map(|p| front_row(p)).collect::<Vec<_>>().into()),
            ]));
        }
    }
    println!("{}", t.render());

    // --- surrogate transfer: GA100 history seeds every other device ---
    let transfer_targets: &[&str] = if smoke {
        &["xavier"]
    } else {
        &["xavier", "h100", "orin", "nano"]
    };
    let transfers = run_transfer(transfer_targets, &mut regressions);
    let mut tt = Table::new(vec![
        "source",
        "target",
        "prior n",
        "cold evals-to-best",
        "warm evals-to-best",
        "cold best GF",
        "warm best GF",
    ]);
    for r in &transfers {
        tt.row(vec![
            r.source.clone(),
            r.target.clone(),
            r.prior_samples.to_string(),
            r.cold_evals_to_best.to_string(),
            r.warm_evals_to_best.to_string(),
            fmt_f(r.cold_best),
            fmt_f(r.warm_best),
        ]);
    }
    println!("{}", tt.render());

    let mut report = Report::new("pareto", mode);
    report.sections.insert("devices".to_owned(), runs.into());
    report.sections.insert(
        "transfer".to_owned(),
        transfers.iter().map(TransferRow::to_json).collect::<Vec<_>>().into(),
    );
    report.regressions = regressions;
    if report.regressions.is_empty() {
        println!("all fronts non-dominated, oracle-verified; transfer reduces evals-to-best");
    }
    report.finish(&out)
}

fn front_row(p: &SweepPoint) -> Json {
    Json::object([
        ("tiles", p.solution.tiles.sizes().to_vec().into()),
        ("split", p.config.split_factor.into()),
        ("warp_frac", p.config.warp_fraction.into()),
        ("strict_cap", (p.config.cap == ThreadBlockCap::Strict).into()),
        ("provenance", p.solution.provenance.to_string().into()),
        ("energy_j", p.report.energy_j.into()),
        ("gflops", p.report.gflops.into()),
        ("ppw", p.report.ppw.into()),
    ])
}

impl TransferRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("source", self.source.as_str().into()),
            ("target", self.target.as_str().into()),
            ("prior_samples", self.prior_samples.into()),
            ("cold_evals_to_best", self.cold_evals_to_best.into()),
            ("warm_evals_to_best", self.warm_evals_to_best.into()),
            ("cold_best_gflops", self.cold_best.into()),
            ("warm_best_gflops", self.warm_best.into()),
        ])
    }
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
/// reference interpreter, under its own configuration's codegen.
fn verify_front(
    eatss: &Eatss,
    program: &eatss_affine::Program,
    sizes: &eatss_affine::ProblemSizes,
    front: &[&SweepPoint],
) -> Result<(u64, u64), String> {
    let configs: Vec<_> = front
        .iter()
        .map(|p| (&p.config, &p.solution.tiles))
        .collect();
    let verdicts = eatss.verify(program, sizes, &configs, VERIFY_SEED);
    let (mut vc, mut vp) = (0u64, 0u64);
    for (i, verdict) in verdicts.into_iter().enumerate() {
        match verdict {
            Ok(report) => {
                vc += 1;
                vp += report.points;
            }
            Err(e) => return Err(format!("front point {i} ({}): {e}", configs[i].1)),
        }
    }
    Ok((vc, vp))
}

/// The transfer gate: tune gemm on the GA100, fit the surrogate prior
/// from that history, and require the prior-seeded search to reach its
/// best in strictly fewer evaluations than the cold search on more
/// targets than it slows down. Per-target outcomes (including honest
/// negatives — a datacenter prior can mislead an embedded part and vice
/// versa) are recorded in the JSON rather than failing individually.
fn run_transfer(targets: &[&str], regressions: &mut Vec<String>) -> Vec<TransferRow> {
    let b = eatss_kernels::by_name("gemm").expect("gemm registered");
    let program = b.program().expect("gemm parses");
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

    let source_arch = DeviceProfile::builtin("ga100").expect("ga100").into_arch();
    let source = Eatss::new(source_arch);
    let fitted: TuneResult = Autotuner::new(TuneOptions {
        budget: TRANSFER_BUDGET,
        seed: SOURCE_SEED,
        ..TuneOptions::default()
    })
    .tune(&space, objective(&source));
    let prior = SurrogatePrior::from_result(&fitted);
    if prior.is_empty() {
        regressions.push("transfer: empty GA100 prior (no successful evaluations)".into());
        return Vec::new();
    }

    let mut rows = Vec::new();
    for target in targets {
        let arch = DeviceProfile::builtin(target).expect("builtin profile").into_arch();
        let eatss = Eatss::new(arch);
        let opts = TuneOptions {
            budget: TRANSFER_BUDGET,
            seed: TARGET_SEED,
            ..TuneOptions::default()
        };
        let cold = Autotuner::new(opts.clone()).tune(&space, objective(&eatss));
        let warm =
            Autotuner::new(opts).tune_with_prior(&space, objective(&eatss), Some(&prior));
        let (Some(cold_evals), Some(warm_evals)) = (cold.evals_to_best(), warm.evals_to_best())
        else {
            regressions.push(format!("transfer ga100->{target}: no successful evaluations"));
            continue;
        };
        rows.push(TransferRow {
            source: "ga100".to_string(),
            target: (*target).to_string(),
            prior_samples: prior.len(),
            cold_evals_to_best: cold_evals,
            warm_evals_to_best: warm_evals,
            cold_best: cold.best_value,
            warm_best: warm.best_value,
        });
    }
    let faster = rows.iter().filter(|r| r.warm_evals_to_best < r.cold_evals_to_best).count();
    let slower = rows.iter().filter(|r| r.warm_evals_to_best > r.cold_evals_to_best).count();
    if !rows.is_empty() && faster <= slower {
        regressions.push(format!(
            "transfer: warm start reduced evals-to-best on {faster} target(s) but slowed {slower}"
        ));
    }
    rows
}
