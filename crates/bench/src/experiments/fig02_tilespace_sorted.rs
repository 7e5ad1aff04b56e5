//! **Figure 2** — performance and energy distribution of the 3,375 tiled
//! 2mm variants on the GA100 at N = 4000, with the default-PPCG baseline
//! line. (a) sorted by performance; (b) sorted by energy. The text output
//! prints the sorted series as percentile samples plus the headline
//! statistic: only a small fraction of variants beats the default.

use super::*;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let arch = GpuArch::ga100();
    let (b, program) = benchmark("2mm")?;
    let sizes = b.sizes_uniform(4000);
    let opts = CompileOptions::with_split(&arch, 0.5, 8);
    // Tile dims of 2mm: both kernels are depth 3 → one shared triple.
    let space = TileSpace::motivation_grid(3);
    writeln!(
        out,
        "Figure 2: {} tiled 2mm variants on GA100, N=4000\n",
        space.len()
    )?;
    let variants = explore_space(&arch, &program, &sizes, &space, &opts);
    let summary = summarize(&arch, &program, &sizes, &variants, &opts);
    let default = &summary.default;

    let mut perf: Vec<(f64, f64, TileConfig)> = variants
        .iter()
        .filter(|v| v.report.valid)
        .map(|v| (v.report.gflops / 1000.0, v.report.energy_j, v.tiles.clone()))
        .collect();

    // (a) sorted by performance.
    perf.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut ta = Table::new(vec!["percentile", "TFLOP/s", "energy (J)", "tiles"]);
    for pct in [0, 10, 25, 50, 75, 90, 95, 99, 100] {
        let idx = (pct * (perf.len() - 1)) / 100;
        let (tf, e, tiles) = &perf[idx];
        ta.row(vec![
            format!("p{pct}"),
            fmt_f(*tf),
            fmt_f(*e),
            tiles.to_string(),
        ]);
    }
    writeln!(out, "(a) variants sorted by performance:\n{}", ta.render())?;

    // (b) sorted by energy.
    perf.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut tb = Table::new(vec!["percentile", "energy (J)", "TFLOP/s", "tiles"]);
    for pct in [0, 10, 25, 50, 75, 90, 100] {
        let idx = (pct * (perf.len() - 1)) / 100;
        let (tf, e, tiles) = &perf[idx];
        tb.row(vec![
            format!("p{pct}"),
            fmt_f(*e),
            fmt_f(*tf),
            tiles.to_string(),
        ]);
    }
    writeln!(out, "(b) variants sorted by energy:\n{}", tb.render())?;

    let beat_perf = perf
        .iter()
        .filter(|v| v.0 * 1000.0 > default.gflops)
        .count();
    let beat_energy = perf.iter().filter(|v| v.1 < default.energy_j).count();
    writeln!(
        out,
        "baseline (default PPCG 32^3): {} TFLOP/s, {} J",
        fmt_f(default.gflops / 1000.0),
        fmt_f(default.energy_j)
    )?;
    writeln!(
        out,
        "variants beating the default: {:.1}% by performance, {:.1}% by energy",
        100.0 * beat_perf as f64 / perf.len() as f64,
        100.0 * beat_energy as f64 / perf.len() as f64
    )?;
    writeln!(
        out,
        "({} of {} variants executable; paper observes only ~12% of 2mm \
         variants beat the default on a GA100)",
        summary.valid, summary.total
    )?;
    // Variants that match default performance but differ in energy
    // (the paper's key §II observation).
    let near_default: Vec<&(f64, f64, TileConfig)> = perf
        .iter()
        .filter(|v| (v.0 * 1000.0 - default.gflops).abs() / default.gflops < 0.05)
        .collect();
    if near_default.len() >= 2 {
        let e_min = near_default
            .iter()
            .map(|v| v.1)
            .fold(f64::INFINITY, f64::min);
        let e_max = near_default
            .iter()
            .map(|v| v.1)
            .fold(f64::NEG_INFINITY, f64::max);
        writeln!(
            out,
            "among {} variants within ±5% of default performance, energy \
             spans {} J to {} J ({}x) — equal-performance variants differ \
             in energy (§II insight)",
            near_default.len(),
            fmt_f(e_min),
            fmt_f(e_max),
            fmt_f(e_max / e_min)
        )?;
    }
    Ok(())
}
