//! **Figure 8** — performance and energy achieved by EATSS under
//! different splits of shared memory and L1 cache (0%, 50%, 67%, 100%),
//! normalized to default PPCG under the same shared-memory quota.
//! Speedup > 1 is better; normalized energy < 1 is better.
//!
//! `--profiles a,b,...` replaces the GA100/Xavier pair with any builtin
//! or on-disk device profiles (datasets chosen by SM count).

use eatss::{Eatss, EatssConfig};
use eatss_affine::tiling::TileConfig;
use eatss_bench::table::fmt_f;
use eatss_bench::{profiles, Table};
use eatss_gpusim::GpuArch;
use eatss_kernels::Dataset;

const SPLITS: [f64; 4] = [0.0, 0.5, 0.67, 1.0];
const BENCHMARKS: [&str; 4] = ["gemm", "2mm", "mvt", "jacobi-2d"];

fn main() {
    println!("Figure 8: EATSS under shared-memory/L1 splits (vs default PPCG, same quota)\n");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<(GpuArch, Dataset)> = match profiles::from_args(&args, "--profiles") {
        Some(archs) => archs
            .into_iter()
            .map(|arch| {
                let dataset = profiles::dataset_for(&arch);
                (arch, dataset)
            })
            .collect(),
        None => vec![
            (GpuArch::ga100(), Dataset::ExtraLarge),
            (GpuArch::xavier(), Dataset::Standard),
        ],
    };
    for (arch, dataset) in targets {
        println!("--- {} ---", arch.name);
        let eatss = Eatss::new(arch.clone());
        let mut t = Table::new(vec![
            "benchmark",
            "SM split",
            "EATSS tiles",
            "speedup",
            "norm. energy",
        ]);
        for name in BENCHMARKS {
            let b = eatss_kernels::by_name(name).expect("registered benchmark");
            let program = b.program().expect("benchmark parses");
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
                    .max_by(|a, b| a.2.gflops.partial_cmp(&b.2.gflops).expect("finite"))
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
                let default = eatss
                    .evaluate(
                        &program,
                        &TileConfig::ppcg_default(program.max_depth()),
                        &sizes,
                        &config,
                    )
                    .expect("default tiles compile");
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
        println!("{}", t.render());
    }
    println!(
        "Shape check (paper): 100% shared memory is not always best; BLAS3 \
         favors more shared memory, low-dimensional kernels (mvt) often \
         favor 0%/50%."
    );
}
