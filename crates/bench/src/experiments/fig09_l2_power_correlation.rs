//! **Figure 9** — correlation between the number of L2 cache sectors
//! read by each tiled variant and its average power. BLAS3 kernels (2mm,
//! gemm) show a strong positive correlation; O(1)-reuse kernels
//! (jacobi-2d, mvt) do not. The paper reports Pearson's r of 0.85 and
//! 0.75 for 2mm and gemm.

use super::*;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let arch = GpuArch::ga100();
    let opts = CompileOptions::with_split(&arch, 0.5, 8);
    writeln!(
        out,
        "Figure 9: L2 sectors read vs average power across the tile space (GA100)\n"
    )?;
    let mut t = Table::new(vec![
        "benchmark",
        "variants",
        "Pearson r (sectors, power)",
        "sectors p10",
        "sectors p90",
        "power p10 (W)",
        "power p90 (W)",
    ]);
    for name in ["2mm", "gemm", "jacobi-2d", "mvt"] {
        let (b, program) = benchmark(name)?;
        let sizes = b.sizes(Dataset::ExtraLarge);
        let space = TileSpace::evaluation_grid(program.max_depth());
        let variants = explore_space(&arch, &program, &sizes, &space, &opts);
        let pairs: Vec<(f64, f64)> = variants
            .iter()
            .filter(|v| v.report.valid)
            .map(|v| (v.report.l2_sectors_read as f64, v.report.avg_power_w))
            .collect();
        let sectors: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let power: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = stats::pearson(&sectors, &power);
        t.row(vec![
            name.into(),
            pairs.len().to_string(),
            fmt_f(r),
            format!("{:.2e}", stats::percentile(&sectors, 10.0)),
            format!("{:.2e}", stats::percentile(&sectors, 90.0)),
            fmt_f(stats::percentile(&power, 10.0)),
            fmt_f(stats::percentile(&power, 90.0)),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "Shape check (paper): r(2mm) ≈ 0.85 and r(gemm) ≈ 0.75 (strong), \
         while jacobi-2d and mvt show substantially weaker correlation."
    )?;
    Ok(())
}
