//! **Figure 11** — performance and energy distribution of the
//! non-Polybench tile spaces as histograms with Freedman–Diaconis bin
//! widths, marking the default PPCG (`P`), the median (`M`) and the best
//! EATSS variant (`U`).

use super::*;

fn ascii_hist(out: &mut String, values: &[f64], marks: &[(char, f64)]) -> std::fmt::Result {
    let bins = stats::fd_histogram(values);
    let max = bins.iter().map(|b| b.count).max().unwrap_or(1).max(1);
    for (i, bin) in bins.iter().enumerate() {
        let bar_len = bin.count * 50 / max;
        let mut line = format!(
            "  [{:>9}, {:>9})  {:>4} {}",
            fmt_f(bin.lo),
            fmt_f(bin.hi),
            bin.count,
            "#".repeat(bar_len)
        );
        for &(c, v) in marks {
            if v >= bin.lo && (v < bin.hi || i + 1 == bins.len()) {
                line.push_str(&format!("  <-- {c}"));
            }
        }
        writeln!(out, "{line}")?;
    }
    Ok(())
}

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    writeln!(
        out,
        "Figure 11: non-Polybench tile-space histograms (GA100)\n"
    )?;
    for b in eatss_kernels::case_study() {
        let program = b.program()?;
        let sizes = b.sizes(Dataset::ExtraLarge);
        let sweep = eatss.sweep(&program, &sizes, &[0.0, 0.5], &PAPER_WARP_FRACTIONS)?;
        let best = sweep
            .best_by_perf()
            .ok_or_else(|| ExperimentError::Failed(format!("{}: no valid EATSS point", b.name)))?;
        let opts = best.config.compile_options(&arch);
        let space = TileSpace::evaluation_grid(program.max_depth());
        let variants = explore_space(&arch, &program, &sizes, &space, &opts);
        let s = summarize(&arch, &program, &sizes, &variants, &opts);
        let gflops: Vec<f64> = variants
            .iter()
            .filter(|v| v.report.valid)
            .map(|v| v.report.gflops)
            .collect();
        writeln!(
            out,
            "--- {} (n = {} of {} executable) ---",
            b.name,
            gflops.len(),
            s.total
        )?;
        writeln!(out, "performance histogram (GFLOP/s):")?;
        ascii_hist(
            out,
            &gflops,
            &[
                ('P', s.default.gflops),
                ('M', stats::median(&gflops)),
                ('U', best.report.gflops),
            ],
        )?;
        let energy: Vec<f64> = variants
            .iter()
            .filter(|v| v.report.valid)
            .map(|v| v.report.energy_j)
            .collect();
        writeln!(out, "energy histogram (J):")?;
        ascii_hist(
            out,
            &energy,
            &[
                ('P', s.default.energy_j),
                ('M', stats::median(&energy)),
                ('U', best.report.energy_j),
            ],
        )?;
        writeln!(
            out,
            "P = default PPCG, M = median of space, U = best EATSS; best \
             empirical variant: {} GFLOP/s\n",
            fmt_f(s.best_gflops)
        )?;
    }
    writeln!(
        out,
        "Shape check (paper): P and M sit in the poorly-performing mass of \
         the distribution; U lands near the high-performance / low-energy \
         corner at a small exploration cost."
    )?;
    Ok(())
}
