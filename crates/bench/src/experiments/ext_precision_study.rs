//! **Extension study (§IV-I)** — the paper's model "enables one to
//! easily switch between single and double precision" via the
//! `FP_factor` scaling. This experiment selects tiles under both
//! precisions and shows how the selections and their measurements
//! diverge: FP32 halves the element width (doubling the capacity
//! constraints' element budgets) and halves the register pressure, so
//! FP32 selections use larger tiles and reach higher throughput.

use super::*;
use eatss::Precision;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    writeln!(
        out,
        "Extension (§IV-I): FP32 vs FP64 tile selection on GA100\n"
    )?;
    let mut t = Table::new(vec![
        "benchmark",
        "precision",
        "tiles",
        "GFLOP/s",
        "W",
        "J",
        "PPW",
    ]);
    for name in ["gemm", "covariance", "jacobi-2d", "mttkrp"] {
        let (b, program) = benchmark(name)?;
        let sizes = b.sizes(Dataset::ExtraLarge);
        for precision in [Precision::F64, Precision::F32] {
            let config = EatssConfig {
                precision,
                warp_fraction: if program.max_depth() > 3 { 0.125 } else { 0.5 },
                ..EatssConfig::default()
            };
            match eatss.select_tiles(&program, &sizes, &config) {
                Ok(solution) => {
                    let report = eatss.evaluate(&program, &solution.tiles, &sizes, &config)?;
                    t.row(vec![
                        name.into(),
                        format!("{precision:?}"),
                        solution.tiles.to_string(),
                        fmt_f(report.gflops),
                        fmt_f(report.avg_power_w),
                        fmt_f(report.energy_j),
                        fmt_f(report.ppw),
                    ]);
                }
                Err(e) => t.row(vec![
                    name.into(),
                    format!("{precision:?}"),
                    format!("infeasible: {e}"),
                ]),
            }
        }
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "Shape check: FP32 halves the per-element capacity and register \
         costs (FP_factor 1 vs 2), so its selections admit larger data \
         tiles and land at higher GFLOP/s and PPW (the FP32 peak is also \
         2x the FP64 peak)."
    )?;
    Ok(())
}
