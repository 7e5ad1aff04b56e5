//! **Figure 8** — performance and energy achieved by EATSS under
//! different splits of shared memory and L1 cache (0%, 50%, 67%, 100%),
//! normalized to default PPCG under the same shared-memory quota.
//! Speedup > 1 is better; normalized energy < 1 is better.
//!
//! The device list replaces the GA100/Xavier pair with any builtin or
//! on-disk device profiles (datasets chosen by SM count).

use super::*;

const SPLITS: [f64; 4] = [0.0, 0.5, 0.67, 1.0];
const BENCHMARKS: [&str; 4] = ["gemm", "2mm", "mvt", "jacobi-2d"];

pub(super) fn run(out: &mut String, devices: &[GpuArch]) -> Result<(), ExperimentError> {
    writeln!(
        out,
        "Figure 8: EATSS under shared-memory/L1 splits (vs default PPCG, same quota)\n"
    )?;
    for arch in devices {
        let dataset = profiles::dataset_for(arch);
        writeln!(out, "--- {} ---", arch.name)?;
        let eatss = Eatss::new(arch.clone());
        let mut t = Table::new(vec![
            "benchmark",
            "SM split",
            "EATSS tiles",
            "speedup",
            "norm. energy",
        ]);
        for name in BENCHMARKS {
            let (b, program) = benchmark(name)?;
            let sizes = b.sizes(dataset);
            for split in SPLITS {
                // Solve under both §IV-F cap interpretations and keep the
                // faster measured one (the sweep's behaviour).
                let candidates = [
                    eatss::ThreadBlockCap::Virtual,
                    eatss::ThreadBlockCap::Strict,
                ]
                .into_iter()
                .filter_map(|cap| {
                    let config = EatssConfig {
                        cap,
                        ..EatssConfig::with_split(split)
                    };
                    let solution = eatss.select_tiles(&program, &sizes, &config).ok()?;
                    let report = eatss
                        .evaluate(&program, &solution.tiles, &sizes, &config)
                        .ok()?;
                    report.valid.then_some((config, solution, report))
                })
                .collect::<Vec<_>>();
                let Some((config, solution, ours)) = candidates
                    .into_iter()
                    .max_by(|a, b| a.2.gflops.total_cmp(&b.2.gflops))
                else {
                    t.row(vec![
                        name.into(),
                        format!("{:.0}%", split * 100.0),
                        "infeasible".into(),
                        String::new(),
                        String::new(),
                    ]);
                    continue;
                };
                let default = eatss.evaluate(
                    &program,
                    &TileConfig::ppcg_default(program.max_depth()),
                    &sizes,
                    &config,
                )?;
                let (speedup, energy) = if ours.valid && default.valid {
                    (
                        default.time_s / ours.time_s,
                        ours.energy_j / default.energy_j,
                    )
                } else {
                    (f64::NAN, f64::NAN)
                };
                t.row(vec![
                    name.into(),
                    format!("{:.0}%", split * 100.0),
                    solution.tiles.to_string(),
                    fmt_f(speedup),
                    fmt_f(energy),
                ]);
            }
        }
        writeln!(out, "{}", t.render())?;
    }
    writeln!(
        out,
        "Shape check (paper): 100% shared memory is not always best; BLAS3 \
         favors more shared memory, low-dimensional kernels (mvt) often \
         favor 0%/50%."
    )?;
    Ok(())
}
