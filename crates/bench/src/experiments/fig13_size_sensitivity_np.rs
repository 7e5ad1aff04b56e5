//! **Figure 13** — performance and average power as a function of input
//! size for the non-Polybench kernels on the GA100, comparing EATSS with
//! the PPCG baseline; PPW highlighted.

use super::*;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let eatss = Eatss::new(GpuArch::ga100());
    writeln!(
        out,
        "Figure 13: non-Polybench performance & power vs input size (GA100)\n"
    )?;
    for (name, param, ns) in [
        ("conv-2d", "spatial", vec![96, 128, 192, 256, 384]),
        ("heat-3d", "N", vec![96, 128, 160, 200, 256]),
        ("mttkrp", "order", vec![128, 192, 256, 320]),
    ] {
        let (b, program) = benchmark(name)?;
        let ref_sizes = b.sizes(Dataset::ExtraLarge);
        let sweep = eatss.sweep(&program, &ref_sizes, &[0.0, 0.5], &PAPER_WARP_FRACTIONS)?;
        // Scale only the spatial/problem-order parameters; filter sizes
        // and time steps stay at their reference values.
        let scaled: &[&str] = match name {
            "conv-2d" => &["H", "W"],
            "heat-3d" => &["N"],
            _ => &["I", "J", "K", "L"],
        };
        let sizes = ns.into_iter().map(|n| {
            let mut sizes = ref_sizes.clone();
            for &p in scaled {
                sizes.set(p, n);
            }
            (n, sizes)
        });
        let best = best_by_ppw(&sweep, name)?;
        size_sensitivity(out, &eatss, (name, &program), best, param, sizes)?;
    }
    writeln!(
        out,
        "Shape check (paper): for conv-2d the EATSS PPW stays above the \
         PPCG baseline across input sizes."
    )?;
    Ok(())
}
