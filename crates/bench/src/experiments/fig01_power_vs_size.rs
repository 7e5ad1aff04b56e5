//! **Figure 1** — power consumption of the GEMM kernel on the GA100
//! across increasing problem sizes, decomposed into constant, static and
//! dynamic components. At small sizes constant + static power dominates;
//! as the size grows, dynamic power takes over and the total saturates
//! towards the TDP.

use super::*;
use eatss::evaluate_program_with;
use eatss_affine::analysis::AnalysedProgram;
use eatss_gpusim::Gpu;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let gpu = Gpu::new(GpuArch::ga100());
    let (b, program) = benchmark("gemm")?;
    let analysed = AnalysedProgram::new(&program);
    let opts = CompileOptions::with_split(gpu.arch(), 0.5, 8);
    let mut t = Table::new(vec![
        "M=N=K",
        "const (W)",
        "static (W)",
        "dynamic (W)",
        "total (W)",
        "GFLOP/s",
        "throttled",
    ]);
    writeln!(
        out,
        "Figure 1: GEMM power vs problem size on GA100 (default 32^3 tiles)\n"
    )?;
    for n in (1000..=7000).step_by(1000) {
        let sizes = b.sizes_uniform(n);
        let tiles = TileConfig::ppcg_default(3);
        let r = evaluate_program_with(&gpu, &analysed, &tiles, &sizes, &opts, 1)?;
        t.row(vec![
            n.to_string(),
            fmt_f(r.constant_power_w),
            fmt_f(r.static_power_w),
            fmt_f(r.dynamic_power_w),
            fmt_f(r.avg_power_w),
            fmt_f(r.gflops),
            r.dvfs_throttled.to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "Shape check: dynamic power should grow with size and the total\n\
         should approach (and be capped at) the {:.0} W TDP.",
        gpu.arch().tdp_w
    )?;
    Ok(())
}
