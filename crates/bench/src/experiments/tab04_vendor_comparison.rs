//! **Table IV** — comparison against the vendor libraries: cuBLAS gemm
//! (GA100 and Xavier) and cuDNN conv-2d (GA100). Vendor numbers come from
//! the roofline models in `eatss-vendor` (tensor cores enabled); PPCG
//! median and EATSS numbers come from the simulated tile spaces.

use super::*;
use eatss_affine::analysis::AnalysedProgram;
use eatss_gpusim::Gpu;
use eatss_vendor::{measure, VendorOp};

struct Column {
    label: String,
    vendor_ppw: f64,
    ppcg_median_ppw: f64,
    our_ppw: f64,
    vendor_energy: f64,
    ppcg_median_energy: f64,
    our_energy: f64,
    vendor_gflops: f64,
    ppcg_median_gflops: f64,
    our_gflops: f64,
}

fn column(
    label: &str,
    arch: GpuArch,
    dataset: Dataset,
    bench: &str,
    op: VendorOp,
    fractions: &[f64],
) -> Result<Column, ExperimentError> {
    let (b, program) = benchmark(bench)?;
    let sizes = b.sizes(dataset);
    let eatss = Eatss::new(arch.clone());
    let sweep = eatss.sweep(&program, &sizes, &PAPER_SPLITS, fractions)?;
    let best = best_by_ppw(&sweep, b.name)?;
    let opts = best.config.compile_options(&arch);
    // Table IV measurements follow the paper's methodology: every variant
    // is looped 100 times, so power is sampled at steady state (the
    // vendor model assumes the same looped benchmark).
    let gpu = Gpu::new(arch.clone());
    let tiles = &best.solution.tiles;
    let analysed = AnalysedProgram::new(&program);
    let ours = eatss::evaluate_program_with(&gpu, &analysed, tiles, &sizes, &opts, 100)?;
    let space = TileSpace::evaluation_grid(program.max_depth());
    let measured: Vec<_> = space
        .iter()
        .filter_map(|tiles| {
            eatss::evaluate_program_with(&gpu, &analysed, &tiles, &sizes, &opts, 100)
                .ok()
                .filter(|r| r.valid)
        })
        .collect();
    let median = |f: &dyn Fn(&eatss_gpusim::SimReport) -> f64| -> f64 {
        let vals: Vec<f64> = measured.iter().map(f).collect();
        eatss_gpusim::stats::median(&vals)
    };
    let vendor = measure(&arch, &op, 8);
    Ok(Column {
        label: label.to_string(),
        vendor_ppw: vendor.ppw,
        ppcg_median_ppw: median(&|r| r.ppw),
        our_ppw: ours.ppw,
        vendor_energy: vendor.energy_j,
        ppcg_median_energy: median(&|r| r.energy_j),
        our_energy: ours.energy_j,
        vendor_gflops: vendor.gflops,
        ppcg_median_gflops: median(&|r| r.gflops),
        our_gflops: ours.gflops,
    })
}

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    writeln!(
        out,
        "Table IV: comparison against cuBLAS / cuDNN (vendor roofline models)\n"
    )?;
    let cols = vec![
        column(
            "cuBLAS gemm GA100",
            GpuArch::ga100(),
            Dataset::ExtraLarge,
            "gemm",
            VendorOp::Gemm { n: 4000 },
            &[0.5],
        )?,
        column(
            "cuBLAS gemm Xavier",
            GpuArch::xavier(),
            Dataset::Standard,
            "gemm",
            VendorOp::Gemm { n: 1024 },
            &[0.5],
        )?,
        column(
            "cuDNN conv-2d GA100",
            GpuArch::ga100(),
            Dataset::ExtraLarge,
            "conv-2d",
            VendorOp::Conv2d {
                h: 192,
                w: 192,
                r: 32,
                s: 32,
            },
            &PAPER_WARP_FRACTIONS,
        )?,
    ];
    let mut t = Table::new(
        std::iter::once("Description".to_string())
            .chain(cols.iter().map(|c| c.label.clone()))
            .collect::<Vec<_>>(),
    );
    let row = |label: &str, f: &dyn Fn(&Column) -> f64| {
        std::iter::once(label.to_string())
            .chain(cols.iter().map(|c| fmt_f(f(c))))
            .collect::<Vec<_>>()
    };
    t.row(row("cuXXX Perf/Watt", &|c| c.vendor_ppw));
    t.row(row("PPCG Median Perf/Watt", &|c| c.ppcg_median_ppw));
    t.row(row("Our Perf/Watt", &|c| c.our_ppw));
    t.row(row("cuXXX Energy (J)", &|c| c.vendor_energy));
    t.row(row("PPCG Median Energy (J)", &|c| c.ppcg_median_energy));
    t.row(row("Our Energy (J)", &|c| c.our_energy));
    t.row(row("cuXXX GFLOP/s", &|c| c.vendor_gflops));
    t.row(row("PPCG Median GFLOP/s", &|c| c.ppcg_median_gflops));
    t.row(row("Our GFLOP/s", &|c| c.our_gflops));
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "Shape check (paper): on the GA100, EATSS reaches a large fraction \
         of the tensor-core cuBLAS PPW (paper: 75%) and clearly beats the \
         PPCG median; on the Xavier EATSS exceeds the cuBLAS PPW \
         (paper: >2.1x)."
    )?;
    for c in &cols {
        writeln!(
            out,
            "  {}: our/vendor PPW = {}",
            c.label,
            fmt_f(c.our_ppw / c.vendor_ppw)
        )?;
    }
    Ok(())
}
