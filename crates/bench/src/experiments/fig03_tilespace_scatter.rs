//! **Figure 3** — performance and energy distribution of the 2mm tile
//! space on both the GA100 and the Xavier, with the default-PPCG point
//! (`P`) marked. Printed as summary statistics plus a coarse ASCII
//! scatter (performance vs energy deciles).

use super::*;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    writeln!(
        out,
        "Figure 3: 2mm tile-space performance/energy on GA100 and Xavier\n"
    )?;
    for (arch, dataset) in [
        (GpuArch::ga100(), Dataset::ExtraLarge),
        (GpuArch::xavier(), Dataset::Standard),
    ] {
        let (b, program) = benchmark("2mm")?;
        let sizes = b.sizes(dataset);
        let opts = CompileOptions::with_split(&arch, 0.5, 8);
        let space = TileSpace::evaluation_grid(3);
        let variants = explore_space(&arch, &program, &sizes, &space, &opts);
        let s = summarize(&arch, &program, &sizes, &variants, &opts);
        writeln!(
            out,
            "--- {} ({} variants, {} valid) ---",
            arch.name, s.total, s.valid
        )?;
        let mut t = Table::new(vec!["metric", "min", "median", "max", "P (default)"]);
        let gf: Vec<f64> = variants
            .iter()
            .filter(|v| v.report.valid)
            .map(|v| v.report.gflops)
            .collect();
        let en: Vec<f64> = variants
            .iter()
            .filter(|v| v.report.valid)
            .map(|v| v.report.energy_j)
            .collect();
        t.row(vec![
            "GFLOP/s".into(),
            fmt_f(stats::percentile(&gf, 0.0)),
            fmt_f(stats::median(&gf)),
            fmt_f(stats::percentile(&gf, 100.0)),
            fmt_f(s.default.gflops),
        ]);
        t.row(vec![
            "energy (J)".into(),
            fmt_f(stats::percentile(&en, 0.0)),
            fmt_f(stats::median(&en)),
            fmt_f(stats::percentile(&en, 100.0)),
            fmt_f(s.default.energy_j),
        ]);
        writeln!(out, "{}", t.render())?;

        // ASCII scatter: normalized performance (x) vs energy (y), 2D
        // histogram of deciles; 'P' marks the default's cell.
        let (gmin, gmax) = (stats::percentile(&gf, 0.0), stats::percentile(&gf, 100.0));
        let (emin, emax) = (stats::percentile(&en, 0.0), stats::percentile(&en, 100.0));
        let bucket = |v: f64, lo: f64, hi: f64| -> usize {
            if hi <= lo {
                0
            } else {
                (((v - lo) / (hi - lo) * 10.0) as usize).min(9)
            }
        };
        let mut grid = [[0usize; 10]; 10];
        for v in variants.iter().filter(|v| v.report.valid) {
            grid[bucket(v.report.energy_j, emin, emax)][bucket(v.report.gflops, gmin, gmax)] += 1;
        }
        let p_cell = (
            bucket(s.default.energy_j, emin, emax),
            bucket(s.default.gflops, gmin, gmax),
        );
        writeln!(out, "energy ↓ / performance → (counts; P = default PPCG)")?;
        for (r, row) in grid.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, &n)| {
                    if (r, c) == p_cell {
                        format!("{:>4}P", n)
                    } else if n == 0 {
                        "    .".to_string()
                    } else {
                        format!("{n:>5}")
                    }
                })
                .collect();
            writeln!(out, "  {}", cells.join(""))?;
        }
        writeln!(out)?;
    }
    Ok(())
}
