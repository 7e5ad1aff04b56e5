//! **Figure 7 (a/b)** — Polybench results on the GA100 (EXTRALARGE) and
//! Jetson AGX Xavier (STANDARD): for each benchmark, the explored
//! tile-space statistics (median / default / best PPCG) and the EATSS
//! point (`U`), in performance, energy and performance-per-watt; plus the
//! paper's headline median PPW improvement.
//!
//! The device list replaces the GA100/Xavier pair with any builtin or
//! on-disk device profiles (datasets chosen by SM count).

use super::*;

pub(super) fn run(out: &mut String, devices: &[GpuArch]) -> Result<(), ExperimentError> {
    for (arch, panel) in devices.iter().zip(('a'..='z').cycle()) {
        let dataset = profiles::dataset_for(arch);
        let dataset_name = format!("{dataset:?}").to_uppercase();
        writeln!(
            out,
            "=== Figure 7{panel}: {} / {dataset_name} ===\n",
            arch.name
        )?;
        let eatss = Eatss::new(arch.clone());
        let mut t = Table::new(vec![
            "benchmark",
            "class",
            "Med PPCG GF",
            "Def PPCG GF",
            "Best PPCG GF",
            "EATSS GF",
            "Def PPW",
            "EATSS PPW",
            "PPW ratio",
            "space",
            "prov",
        ]);
        let mut ppw_ratios: Vec<f64> = Vec::new();
        for b in eatss_kernels::polybench() {
            let program = b.program()?;
            let sizes = b.sizes(dataset);
            // Half-warp alignment by default; the quarter-warp fallback
            // recovers kernels whose extents are too small on the Xavier
            // (§IV-B: "this constraint can be adapted to smaller values").
            let sweep = match eatss.sweep(&program, &sizes, &PAPER_SPLITS, &[0.5, 0.25]) {
                Ok(s) => s,
                Err(e) => {
                    t.row(vec![
                        b.name.into(),
                        b.class.to_string(),
                        format!("infeasible: {e}"),
                    ]);
                    continue;
                }
            };
            let Some(best) = sweep.best_by_ppw() else {
                continue;
            };
            let opts = best.config.compile_options(arch);
            // Depth of the space excludes nothing: time dims get tile 1 via
            // EATSS; for the baseline space we keep the shared triple shape.
            let space = TileSpace::evaluation_grid(program.max_depth());
            let variants = explore_space(arch, &program, &sizes, &space, &opts);
            let s = summarize(arch, &program, &sizes, &variants, &opts);
            let def_ppw = s.default.ppw;
            let ratio = if def_ppw > 0.0 {
                best.report.ppw / def_ppw
            } else {
                f64::NAN
            };
            if ratio.is_finite() {
                ppw_ratios.push(ratio);
            }
            t.row(vec![
                b.name.into(),
                b.class.to_string(),
                fmt_f(s.median_gflops),
                fmt_f(s.default.gflops),
                fmt_f(s.best_gflops),
                fmt_f(best.report.gflops),
                fmt_f(def_ppw),
                fmt_f(best.report.ppw),
                fmt_f(ratio),
                format!("{}/{}", s.valid, s.total),
                best.solution.provenance.to_string(),
            ]);
        }
        writeln!(out, "{}", t.render())?;
        writeln!(
            out,
            "median EATSS PPW improvement over default PPCG: {}x  (paper: \
             1.5x on GA100, 1.2x on Xavier)\n",
            fmt_f(stats::median(&ppw_ratios))
        )?;
    }
    Ok(())
}
