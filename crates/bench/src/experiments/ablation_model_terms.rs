//! **Ablation study** (beyond the paper's figures): disable each
//! component of the §IV formulation in turn and measure what the
//! selected tiles lose on the GPU model. Quantifies the design choices
//! DESIGN.md calls out:
//!
//! * warp alignment (§IV-B),
//! * the register-per-SM constraint (§IV-G),
//! * the L1/shared capacity constraints (§IV-E/J),
//! * the spatial-locality objective term (§IV-K),
//! * the parallelism objective term (§IV-K).
//!
//! A row marked `(tie)` is not a finding about its tiles: some other
//! tiling attains the same `OBJ`, so the variant's formulation does not
//! determine the selection and the measured columns belong to whichever
//! optimum the search met first.

use super::*;
use eatss::{Ablation, ModelGenerator};

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let arch = GpuArch::ga100();
    let eatss = Eatss::new(arch.clone());
    let variants: [(&str, Ablation); 6] = [
        ("full model", Ablation::default()),
        (
            "- warp alignment",
            Ablation {
                no_warp_alignment: true,
                ..Ablation::default()
            },
        ),
        (
            "- register constraint",
            Ablation {
                no_register_constraint: true,
                ..Ablation::default()
            },
        ),
        (
            "- memory constraints",
            Ablation {
                no_memory_constraints: true,
                ..Ablation::default()
            },
        ),
        (
            "- spatial term",
            Ablation {
                no_spatial_term: true,
                ..Ablation::default()
            },
        ),
        (
            "- parallelism term",
            Ablation {
                no_parallel_term: true,
                ..Ablation::default()
            },
        ),
    ];
    writeln!(
        out,
        "Ablation: contribution of each formulation component (GA100)\n"
    )?;
    for name in ["gemm", "mttkrp", "jacobi-2d"] {
        let (b, program) = benchmark(name)?;
        let sizes = b.sizes(Dataset::ExtraLarge);
        let config = EatssConfig {
            warp_fraction: if program.max_depth() > 3 { 0.125 } else { 0.5 },
            ..EatssConfig::default()
        };
        let mut t = Table::new(vec![
            "variant",
            "tiles",
            "OBJ",
            "GFLOP/s",
            "energy (J)",
            "PPW",
            "vs full",
        ]);
        let mut full_ppw = None;
        for (label, ablation) in variants {
            let generator = ModelGenerator::new(&arch, config.clone()).with_ablation(ablation);
            let build = || generator.build(&program, Some(&sizes));
            let row = match build()?.solve() {
                Ok(solution) => {
                    let tied = build()?.has_other_optimum(&solution)?;
                    let tiles = if tied {
                        format!("{} (tie)", solution.tiles)
                    } else {
                        solution.tiles.to_string()
                    };
                    let report = eatss.evaluate(&program, &solution.tiles, &sizes, &config)?;
                    if label == "full model" {
                        full_ppw = Some(report.ppw);
                    }
                    let rel = full_ppw.map(|f| report.ppw / f).unwrap_or(f64::NAN);
                    if report.valid {
                        vec![
                            label.into(),
                            tiles,
                            solution.objective.to_string(),
                            fmt_f(report.gflops),
                            fmt_f(report.energy_j),
                            fmt_f(report.ppw),
                            fmt_f(rel),
                        ]
                    } else {
                        vec![
                            label.into(),
                            tiles,
                            solution.objective.to_string(),
                            "unexecutable".into(),
                        ]
                    }
                }
                Err(e) => vec![label.into(), format!("infeasible: {e}")],
            };
            t.row(row);
        }
        writeln!(out, "--- {name} ---")?;
        writeln!(out, "{}", t.render())?;
    }
    Ok(())
}
