//! Internal calibration probe: prints EATSS vs PPCG-default headline
//! numbers for a few representative benchmarks so the simulator's
//! constants can be tuned until the paper's trends hold. Not part of the
//! figure index, but kept as a diagnostic tool.

use eatss::sweep::{PAPER_SPLITS, PAPER_WARP_FRACTIONS};
use eatss::Eatss;
use eatss_affine::tiling::TileConfig;
use eatss_bench::table::fmt_f;
use eatss_gpusim::GpuArch;
use eatss_kernels::Dataset;

fn main() {
    for (arch, dataset) in [
        (GpuArch::ga100(), Dataset::ExtraLarge),
        (GpuArch::xavier(), Dataset::Standard),
    ] {
        println!("=== {} ===", arch);
        let eatss = Eatss::new(arch.clone());
        for name in [
            "gemm",
            "2mm",
            "mvt",
            "jacobi-2d",
            "conv-2d",
            "heat-3d",
            "mttkrp",
        ] {
            let b = eatss_kernels::by_name(name).expect("registered benchmark");
            let program = b.program().expect("benchmark parses");
            let sizes = b.sizes(dataset);
            let fractions: &[f64] = if b.polybench {
                &[0.5]
            } else {
                &PAPER_WARP_FRACTIONS
            };
            let sweep = match eatss.sweep(&program, &sizes, &PAPER_SPLITS, fractions) {
                Ok(s) => s,
                Err(e) => {
                    println!("{name:12} EATSS infeasible: {e}");
                    continue;
                }
            };
            let Some(best) = sweep.best_by_ppw() else {
                println!("{name:12} no valid EATSS point");
                continue;
            };
            // Default PPCG with the same shared-memory level as our best.
            let cfg = &best.config;
            let default = eatss
                .evaluate(
                    &program,
                    &TileConfig::ppcg_default(program.max_depth()),
                    &sizes,
                    cfg,
                )
                .expect("default compiles");
            println!(
                "{name:12} tiles={:16} def: {:>8} GF {:>6} W {:>8} J | eatss: {:>8} GF {:>6} W {:>8} J | speedup {:>5} ppw-ratio {:>5} (split {:.2}, wf {:.3}, {} pts, {} calls)",
                best.solution.tiles.to_string(),
                fmt_f(default.gflops),
                fmt_f(default.avg_power_w),
                fmt_f(default.energy_j),
                fmt_f(best.report.gflops),
                fmt_f(best.report.avg_power_w),
                fmt_f(best.report.energy_j),
                fmt_f(best.report.gflops / default.gflops),
                fmt_f(best.report.ppw / default.ppw),
                cfg.split_factor,
                cfg.warp_fraction,
                sweep.points.len(),
                best.solution.solver_calls,
            );
        }
    }
}
