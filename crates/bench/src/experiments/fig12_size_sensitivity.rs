//! **Figure 12** — relationship of performance and average power with
//! input size for Polybench kernels (2mm, gemm, mvt, fdtd-2d) on the
//! GA100: EATSS best tiles vs default PPCG, with PPW highlighted.

use super::*;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let eatss = Eatss::new(GpuArch::ga100());
    writeln!(
        out,
        "Figure 12: performance & average power vs input size (GA100)\n"
    )?;
    for (name, ns) in [
        ("2mm", vec![1000, 2000, 3000, 4000, 5000, 6000]),
        ("gemm", vec![1000, 2000, 3000, 4000, 5000, 6000, 7000]),
        ("mvt", vec![4000, 8000, 12000, 16000, 20000]),
        ("fdtd-2d", vec![1000, 1500, 2000, 2500, 3000]),
    ] {
        let (b, program) = benchmark(name)?;
        // EATSS tiles selected once at the reference (EXTRALARGE) size,
        // then reused across the sweep (the paper does not re-tune per
        // size; default PPCG likewise uses 32^d everywhere).
        let ref_sizes = b.sizes(Dataset::ExtraLarge);
        let sweep = eatss.sweep(&program, &ref_sizes, &PAPER_SPLITS, &[0.5])?;
        let sizes = ns.into_iter().map(|n| (n, b.sizes_uniform(n)));
        let best = best_by_ppw(&sweep, name)?;
        size_sensitivity(out, &eatss, (name, &program), best, "N", sizes)?;
    }
    writeln!(
        out,
        "Shape check (paper): 2mm/gemm power saturates as the GPU fills; \
         mvt and fdtd-2d do not computationally saturate the GPU and stay \
         dominated by static power."
    )?;
    Ok(())
}
