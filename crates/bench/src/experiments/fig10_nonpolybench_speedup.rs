//! **Figure 10** — speedup and normalized energy of EATSS on the
//! non-Polybench kernels (conv-2d, heat-3d, mttkrp) on the GA100,
//! relative to default PPCG with the same shared-memory quota, across
//! warp fractions {0.125, 0.25, 0.5, 1.0} and shared-memory levels
//! {0%, 50%}. Missing configurations are infeasible (all tile sizes
//! would need to be multiples of the full alignment factor). The paper
//! reports up to 4.8x (conv-2d), 6.3x (heat-3d) and 2.0x (mttkrp).
//!
//! A one-device list retargets the study from the GA100 to any builtin
//! or on-disk device profile (dataset chosen by SM count).

use super::*;

pub(super) fn run(out: &mut String, devices: &[GpuArch]) -> Result<(), ExperimentError> {
    let [arch] = devices else {
        return Err(ExperimentError::Usage(format!(
            "Figure 10 takes exactly one device, not {}",
            devices.len()
        )));
    };
    let dataset = profiles::dataset_for(arch);
    let eatss = Eatss::new(arch.clone());
    writeln!(
        out,
        "Figure 10: non-Polybench kernels on {} (vs default PPCG, same quota)\n",
        arch.name
    )?;
    writeln!(
        out,
        "note: PPCG ignores the innermost tile when depth > 3 (that \
         dimension runs untiled, the paper's overline)\n"
    )?;
    for b in eatss_kernels::case_study() {
        let program = b.program()?;
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
                            let ours =
                                eatss.evaluate(&program, &solution.tiles, &sizes, &config)?;
                            let default = eatss.evaluate(
                                &program,
                                &TileConfig::ppcg_default(program.max_depth()),
                                &sizes,
                                &config,
                            )?;
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
        writeln!(
            out,
            "--- {} ({} feasible configurations) ---",
            b.name, evaluated
        )?;
        writeln!(out, "{}", t.render())?;
        if let Some((speedup, energy, tiles)) = best {
            writeln!(
                out,
                "best: {}x speedup, {} normalized energy, tiles {}\n",
                fmt_f(speedup),
                fmt_f(energy),
                tiles
            )?;
        }
    }
    writeln!(
        out,
        "Shape check (paper): overall speedups of 4.8x (conv-2d), 6.3x \
         (heat-3d), 2.0x (mttkrp), with matching energy improvements."
    )?;
    Ok(())
}
