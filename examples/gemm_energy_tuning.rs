//! Energy tuning of gemm: sweep the paper's shared-memory split levels
//! and warp fractions, list every candidate, and pick the
//! performance-per-watt winner — the §V-B workflow.
//!
//! ```text
//! cargo run -p eatss-examples --bin gemm_energy_tuning [xavier]
//! ```

use eatss::sweep::PAPER_SPLITS;
use eatss::Eatss;
use eatss_gpusim::GpuArch;
use eatss_kernels::Dataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let xavier = std::env::args().any(|a| a == "xavier");
    let (arch, dataset) = if xavier {
        (GpuArch::xavier(), Dataset::Standard)
    } else {
        (GpuArch::ga100(), Dataset::ExtraLarge)
    };
    println!("tuning gemm on {arch}\n");

    let bench = eatss_kernels::by_name("gemm").expect("gemm is registered");
    let program = bench.program()?;
    let sizes = bench.sizes(dataset);

    let eatss = Eatss::new(arch);
    let sweep = eatss.sweep(&program, &sizes, &PAPER_SPLITS, &[0.5, 0.25])?;

    println!(
        "{:<8} {:<6} {:<8} {:<18} {:>9} {:>8} {:>9} {:>7}",
        "split", "wfrac", "cap", "tiles", "GFLOP/s", "W", "J", "PPW"
    );
    for p in &sweep.points {
        println!(
            "{:<8.2} {:<6.3} {:<8} {:<18} {:>9.0} {:>8.1} {:>9.2} {:>7.2}",
            p.config.split_factor,
            p.config.warp_fraction,
            format!("{:?}", p.config.cap),
            p.solution.tiles.to_string(),
            p.report.gflops,
            p.report.avg_power_w,
            p.report.energy_j,
            p.report.ppw,
        );
    }
    for (cfg, reason) in &sweep.infeasible {
        println!(
            "{:<8.2} {:<6.3} infeasible: {reason}",
            cfg.split_factor, cfg.warp_fraction
        );
    }

    let by_ppw = sweep.best_by_ppw().expect("at least one valid point");
    let by_perf = sweep.best_by_perf().expect("at least one valid point");
    let by_energy = sweep.best_by_energy().expect("at least one valid point");
    println!(
        "\nbest by PPW    : {} ({:.2} GFLOP/s/W)",
        by_ppw.solution.tiles, by_ppw.report.ppw
    );
    println!(
        "best by perf   : {} ({:.0} GFLOP/s)",
        by_perf.solution.tiles, by_perf.report.gflops
    );
    println!(
        "best by energy : {} ({:.2} J)",
        by_energy.solution.tiles, by_energy.report.energy_j
    );
    Ok(())
}
