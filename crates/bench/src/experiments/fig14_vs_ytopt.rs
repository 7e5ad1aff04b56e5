//! **Figure 14** — EATSS against the *ytopt* Bayesian autotuner baseline
//! on the A100 (GA100): speedup (> 1 better) and normalized energy
//! (< 1 better) of EATSS relative to the ytopt-selected variant, plus the
//! tuning-time comparison of §V-H (ytopt: ~17 minutes for 3-deep nests;
//! EATSS+PPCG: seconds). Everything is a function of the models except
//! the EATSS solve seconds, which are printed last, below
//! [`MEASURED_BELOW`].

use super::*;
use crate::MEASURED_BELOW;
use eatss_autotune::{Autotuner, TuneOptions, OPENMP_OFFLOAD_PENALTY};

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    writeln!(
        out,
        "Figure 14: EATSS vs ytopt (Bayesian autotuner over OpenMP offload) on A100\n"
    )?;
    let mut t = Table::new(vec![
        "benchmark",
        "ytopt tiles",
        "ytopt GF (OpenMP)",
        "EATSS GF",
        "speedup",
        "norm. energy",
        "ytopt tuning (min)",
    ]);
    let mut measured = Table::new(vec!["benchmark", "EATSS solve (s)"]);
    for name in ["2mm", "gemm", "heat-3d", "mttkrp"] {
        let (b, program) = benchmark(name)?;
        let sizes = b.sizes(Dataset::ExtraLarge);

        // --- EATSS ----------------------------------------------------
        let fractions: &[f64] = if b.polybench {
            &[0.5]
        } else {
            &PAPER_WARP_FRACTIONS
        };
        let sweep = eatss.sweep(&program, &sizes, &PAPER_SPLITS, fractions)?;
        let best = best_by_ppw(&sweep, b.name)?;
        let solve_s: f64 = sweep
            .points
            .iter()
            .map(|p| p.solution.solve_time.as_secs_f64())
            .sum();

        // --- ytopt ----------------------------------------------------
        // The tuner maximizes measured GFLOP/s over the tile space; its
        // kernels run through OpenMP offload, which costs a constant
        // throughput factor relative to PPCG CUDA (§V-H).
        let config = best.config.clone();
        let space = TileSpace::evaluation_grid(program.max_depth());
        let mut tuner = Autotuner::new(TuneOptions {
            budget: 50,
            seed: 2024,
            seconds_per_eval: 20.0,
            ..TuneOptions::default()
        });
        let tuned = tuner.tune(&space, |tiles| {
            eatss
                .evaluate(&program, tiles, &sizes, &config)
                .ok()
                .filter(|r| r.valid)
                .map(|r| r.gflops)
        });
        let Some(ytiles) = tuned.best_tiles.clone() else {
            t.row(vec![name.into(), "no valid variant".into()]);
            continue;
        };
        let yreport = eatss.evaluate(&program, &ytiles, &sizes, &config)?;
        let ytopt_gflops = yreport.gflops * OPENMP_OFFLOAD_PENALTY;
        let ytopt_time = yreport.time_s / OPENMP_OFFLOAD_PENALTY;
        let ytopt_energy = yreport.avg_power_w * ytopt_time;

        t.row(vec![
            name.into(),
            ytiles.to_string(),
            fmt_f(ytopt_gflops),
            fmt_f(best.report.gflops),
            fmt_f(ytopt_time / best.report.time_s),
            fmt_f(best.report.energy_j / ytopt_energy),
            fmt_f(tuned.tuning_seconds / 60.0),
        ]);
        measured.row(vec![name.into(), fmt_f(solve_s)]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "Shape check (paper): EATSS beats the OpenMP-offload ytopt variants \
         in both speedup and energy, and the tuning time drops from ~17 \
         minutes to seconds."
    )?;
    writeln!(out, "\n{MEASURED_BELOW}\n")?;
    write!(out, "{}", measured.render())?;
    Ok(())
}
