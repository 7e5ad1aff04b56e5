//! **§V-G** — compile-time overhead of the solver: end-to-end iterative
//! selection time and per-call statistics, grouped by maximum kernel loop
//! depth (2-D, 3-D, 4-D), across benchmarks, architectures and
//! configurations. The paper reports ~1.3 s end-to-end on average with
//! 4–7 solver calls of ~0.29 s each for Z3; the stand-in solver should be
//! in a comparable (or faster) regime. Counts (calls, nodes, prunes) come
//! first — the per-depth means, then the ten longest formulations of the
//! 32-point sweep grid by name, so a regression in the tail says which
//! kernel it is; the seconds follow [`MEASURED_BELOW`].

use super::*;
use crate::MEASURED_BELOW;
use eatss::sweep::grid;
use eatss::ModelGenerator;
use std::collections::BTreeMap;

/// One solved formulation's overhead sample.
struct Sample {
    time_s: f64,
    calls: u32,
    nodes: u64,
    bound_prunes: u64,
    propagation_s: f64,
    search_s: f64,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    sum / n.max(1) as f64
}

/// The ten formulations with the most search nodes over the sweep grid
/// the ruler's `sweep-front` runs — every kernel on the paper's two
/// testbeds (§V-A datasets), 4 splits × 4 warp fractions × 2 thread-block
/// caps — each solved cold, so the counts repeat exactly.
fn longest_formulations() -> Result<Table, ExperimentError> {
    let mut solved = Vec::new();
    for b in eatss_kernels::all() {
        let program = b.program()?;
        for (device, arch, dataset) in [
            ("ga100", GpuArch::ga100(), Dataset::ExtraLarge),
            ("xavier", GpuArch::xavier(), Dataset::Standard),
        ] {
            let sizes = b.sizes(dataset);
            for config in grid(&[0.0, 0.5, 0.67, 1.0], &PAPER_WARP_FRACTIONS) {
                let solution = ModelGenerator::new(&arch, config.clone())
                    .build(&program, Some(&sizes))
                    .and_then(|model| model.solve());
                if let Ok(solution) = solution {
                    solved.push((b.name, device, config, solution));
                }
            }
        }
    }
    // Stable sort: ties keep the grid order above.
    solved.sort_by_key(|(.., solution)| std::cmp::Reverse(solution.stats.nodes));
    let mut table = Table::new(vec![
        "kernel",
        "device",
        "split",
        "warp frac",
        "cap",
        "solver calls",
        "nodes",
        "bound prunes",
        "tiles",
    ]);
    for (kernel, device, config, solution) in solved.into_iter().take(10) {
        table.row(vec![
            kernel.to_owned(),
            device.to_owned(),
            format!("{:.2}", config.split_factor),
            format!("{:.3}", config.warp_fraction),
            format!("{:?}", config.cap),
            solution.solver_calls.to_string(),
            solution.stats.nodes.to_string(),
            solution.stats.bound_prunes.to_string(),
            solution.tiles.to_string(),
        ]);
    }
    Ok(table)
}

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    writeln!(
        out,
        "Section V-G: solver overhead by kernel dimensionality\n"
    )?;
    let mut groups: BTreeMap<usize, Vec<Sample>> = BTreeMap::new();
    let mut configs_run = 0;
    for b in eatss_kernels::all() {
        let program = b.program()?;
        let depth = program.max_depth();
        for arch in [GpuArch::ga100(), GpuArch::xavier()] {
            for split in [0.0, 0.5, 0.67] {
                for frac in [0.25, 0.5] {
                    let config = EatssConfig {
                        split_factor: split,
                        warp_fraction: frac,
                        ..EatssConfig::default()
                    };
                    let sizes = b.sizes(Dataset::ExtraLarge);
                    let model =
                        match ModelGenerator::new(&arch, config).build(&program, Some(&sizes)) {
                            Ok(m) => m,
                            Err(_) => continue,
                        };
                    configs_run += 1;
                    if let Ok(solution) = model.solve() {
                        groups.entry(depth).or_default().push(Sample {
                            time_s: solution.solve_time.as_secs_f64(),
                            calls: solution.solver_calls,
                            nodes: solution.stats.nodes,
                            bound_prunes: solution.stats.bound_prunes,
                            propagation_s: solution.stats.propagation_time.as_secs_f64(),
                            search_s: solution.stats.search_time.as_secs_f64(),
                        });
                    }
                }
            }
        }
    }
    // What the solver did repeats exactly; how long it took does not.
    let mut counts = Table::new(vec![
        "loop depth",
        "formulations",
        "mean solver calls",
        "mean nodes",
        "mean bound prunes",
    ]);
    let mut seconds = Table::new(vec![
        "loop depth",
        "mean end-to-end (s)",
        "mean per-call (s)",
        "propagation (s)",
        "search (s)",
    ]);
    for (depth, samples) in &groups {
        let mean_t = mean(samples.iter().map(|s| s.time_s));
        let mean_c = mean(samples.iter().map(|s| s.calls as f64));
        counts.row(vec![
            format!("{depth}D"),
            samples.len().to_string(),
            fmt_f(mean_c),
            fmt_f(mean(samples.iter().map(|s| s.nodes as f64))),
            fmt_f(mean(samples.iter().map(|s| s.bound_prunes as f64))),
        ]);
        seconds.row(vec![
            format!("{depth}D"),
            fmt_f(mean_t),
            fmt_f(mean_t / mean_c.max(1.0)),
            fmt_f(mean(samples.iter().map(|s| s.propagation_s))),
            fmt_f(mean(samples.iter().map(|s| s.search_s))),
        ]);
    }
    let mean_t = mean(groups.values().flatten().map(|s| s.time_s));
    let mean_c = mean(groups.values().flatten().map(|s| s.calls as f64));
    writeln!(out, "{}", counts.render())?;
    writeln!(
        out,
        "{configs_run} configurations solved; overall mean {} solver calls",
        fmt_f(mean_c)
    )?;
    writeln!(
        out,
        "\nTen longest formulations of the 32-point sweep grid (cold solves, by nodes):\n"
    )?;
    writeln!(out, "{}", longest_formulations()?.render())?;
    writeln!(
        out,
        "Shape check (paper, with Z3): 1.1 s (2D), 1.4 s (3D/4D), 2.2 s \
         (5D) end-to-end; 0.29 s per call; 4-7 calls per formulation."
    )?;
    writeln!(out, "\n{MEASURED_BELOW}\n")?;
    writeln!(out, "{}", seconds.render())?;
    writeln!(
        out,
        "overall mean end-to-end {} s, {} s per call",
        fmt_f(mean_t),
        fmt_f(mean_t / mean_c.max(1.0)),
    )?;
    Ok(())
}
