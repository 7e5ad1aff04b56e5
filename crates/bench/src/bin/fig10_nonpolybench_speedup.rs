//! **Figure 10** — speedup and normalized energy of EATSS on the
//! non-Polybench kernels (conv-2d, heat-3d, mttkrp) on the GA100,
//! relative to default PPCG with the same shared-memory quota, across
//! warp fractions {0.125, 0.25, 0.5, 1.0} and shared-memory levels
//! {0%, 50%}. Missing configurations are infeasible (all tile sizes
//! would need to be multiples of the full alignment factor). The paper
//! reports up to 4.8x (conv-2d), 6.3x (heat-3d) and 2.0x (mttkrp).
//!
//! `--profile NAME|PATH` retargets the study from the GA100 to any
//! builtin or on-disk device profile (dataset chosen by SM count).

use eatss::{Eatss, EatssConfig};
use eatss_affine::tiling::TileConfig;
use eatss_bench::table::fmt_f;
use eatss_bench::{profiles, Table};
use eatss_gpusim::GpuArch;
use eatss_kernels::Dataset;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (arch, dataset) = match profiles::from_args(&args, "--profile") {
        Some(mut archs) => {
            if archs.len() != 1 {
                eprintln!("--profile takes exactly one device");
                std::process::exit(2);
            }
            let arch = archs.remove(0);
            let dataset = profiles::dataset_for(&arch);
            (arch, dataset)
        }
        None => (GpuArch::ga100(), Dataset::ExtraLarge),
    };
    let eatss = Eatss::new(arch.clone());
    println!(
        "Figure 10: non-Polybench kernels on {} (vs default PPCG, same quota)\n",
        arch.name
    );
    println!(
        "note: PPCG ignores the innermost tile when depth > 3 (that \
         dimension runs untiled, the paper's overline)\n"
    );
    for b in eatss_kernels::case_study() {
        let program = b.program().expect("benchmark parses");
        let sizes = b.sizes(dataset);
        let mut t = Table::new(vec![
            "warp frac",
            "SM split",
            "tiles",
            "speedup",
            "norm. energy",
        ]);
        let mut best: Option<(f64, f64, TileConfig)> = None;
        let mut evaluated = 0;
        for split in [0.0, 0.5] {
            for frac in [0.125, 0.25, 0.5, 1.0] {
                for cap in [
                    eatss::ThreadBlockCap::Virtual,
                    eatss::ThreadBlockCap::Strict,
                ] {
                    let config = EatssConfig {
                        split_factor: split,
                        warp_fraction: frac,
                        cap,
                        ..EatssConfig::default()
                    };
                    match eatss.select_tiles(&program, &sizes, &config) {
                        Ok(solution) => {
                            let ours = eatss
                                .evaluate(&program, &solution.tiles, &sizes, &config)
                                .expect("EATSS tiles compile");
                            let default = eatss
                                .evaluate(
                                    &program,
                                    &TileConfig::ppcg_default(program.max_depth()),
                                    &sizes,
                                    &config,
                                )
                                .expect("default compiles");
                            if !ours.valid || !default.valid {
                                t.row(vec![
                                    format!("{frac}"),
                                    format!("{:.0}%", split * 100.0),
                                    solution.tiles.to_string(),
                                    "unexecutable".into(),
                                    String::new(),
                                ]);
                                continue;
                            }
                            evaluated += 1;
                            let speedup = default.time_s / ours.time_s;
                            let energy = ours.energy_j / default.energy_j;
                            if best.as_ref().map(|b| speedup > b.0).unwrap_or(true) {
                                best = Some((speedup, energy, solution.tiles.clone()));
                            }
                            t.row(vec![
                                format!("{frac} ({cap:?})"),
                                format!("{:.0}%", split * 100.0),
                                solution.tiles.to_string(),
                                fmt_f(speedup),
                                fmt_f(energy),
                            ]);
                        }
                        Err(_) => {
                            t.row(vec![
                                format!("{frac} ({cap:?})"),
                                format!("{:.0}%", split * 100.0),
                                "infeasible".into(),
                                String::new(),
                                String::new(),
                            ]);
                        }
                    }
                }
            }
        }
        println!("--- {} ({} feasible configurations) ---", b.name, evaluated);
        println!("{}", t.render());
        if let Some((speedup, energy, tiles)) = best {
            println!(
                "best: {}x speedup, {} normalized energy, tiles {}\n",
                fmt_f(speedup),
                fmt_f(energy),
                tiles
            );
        }
    }
    println!(
        "Shape check (paper): overall speedups of 4.8x (conv-2d), 6.3x \
         (heat-3d), 2.0x (mttkrp), with matching energy improvements."
    );
}
