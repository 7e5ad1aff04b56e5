//! **Figure 7 (a/b)** — Polybench results on the GA100 (EXTRALARGE) and
//! Jetson AGX Xavier (STANDARD): for each benchmark, the explored
//! tile-space statistics (median / default / best PPCG) and the EATSS
//! point (`U`), in performance, energy and performance-per-watt; plus the
//! paper's headline median PPW improvement.
//!
//! `--profiles a,b,...` replaces the GA100/Xavier pair with any builtin
//! or on-disk device profiles (datasets chosen by SM count).

use eatss::sweep::PAPER_SPLITS;
use eatss::Eatss;
use eatss_bench::table::fmt_f;
use eatss_bench::{explore::summarize, explore_space, profiles, Table};
use eatss_gpusim::{stats, GpuArch};
use eatss_kernels::Dataset;
use eatss_ppcg::TileSpace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<(GpuArch, Dataset, String)> = match profiles::from_args(&args, "--profiles") {
        Some(archs) => archs
            .into_iter()
            .map(|arch| {
                let dataset = profiles::dataset_for(&arch);
                let label = format!("7: {} / {dataset:?}", arch.name);
                (arch, dataset, label)
            })
            .collect(),
        None => vec![
            (
                GpuArch::ga100(),
                Dataset::ExtraLarge,
                "7a: GA100 / EXTRALARGE".to_owned(),
            ),
            (
                GpuArch::xavier(),
                Dataset::Standard,
                "7b: Xavier / STANDARD".to_owned(),
            ),
        ],
    };
    for (arch, dataset, label) in targets {
        println!("=== Figure {label} ===\n");
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
            let program = b.program().expect("benchmark parses");
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
            let opts = best.config.compile_options(&arch);
            // Depth of the space excludes nothing: time dims get tile 1 via
            // EATSS; for the baseline space we keep the shared triple shape.
            let space = TileSpace::evaluation_grid(program.max_depth());
            let variants = explore_space(&arch, &program, &sizes, &space, &opts);
            let s = summarize(&arch, &program, &sizes, &variants, &opts);
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
        println!("{}", t.render());
        println!(
            "median EATSS PPW improvement over default PPCG: {}x  (paper: \
             1.5x on GA100, 1.2x on Xavier)\n",
            fmt_f(stats::median(&ppw_ratios))
        );
    }
}
