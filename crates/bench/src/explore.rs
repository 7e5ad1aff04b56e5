//! Tile-space exploration shared by the figure experiments.

use eatss_affine::analysis::AnalysedProgram;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::{stats, Gpu, GpuArch, SimReport};
use eatss_ppcg::{CompileOptions, TileSpace};

/// One measured variant of the exploration space.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Its tile configuration.
    pub tiles: TileConfig,
    /// Its simulated measurement.
    pub report: SimReport,
}

/// Summary statistics of a space relative to the default configuration
/// (the "Med PPCG / Def PPCG / Best PPCG" rows of Fig. 7).
#[derive(Debug, Clone)]
pub struct BaselineSummary {
    /// Measurement of the default `32^d` tiling.
    pub default: SimReport,
    /// Median GFLOP/s across valid variants.
    pub median_gflops: f64,
    /// Best GFLOP/s in the space.
    pub best_gflops: f64,
    /// Number of valid variants.
    pub valid: usize,
    /// Number of enumerated variants.
    pub total: usize,
}

/// Measures every variant of `space`; invalid/unmappable variants are
/// kept with `report.valid == false` so exploration counts match the
/// paper's space sizes.
pub fn explore_space(
    arch: &GpuArch,
    program: &Program,
    sizes: &ProblemSizes,
    space: &TileSpace,
    options: &CompileOptions,
) -> Vec<Variant> {
    let gpu = Gpu::new(arch.clone());
    let analysed = AnalysedProgram::new(program);
    space
        .iter()
        .map(|tiles| {
            let report = eatss::evaluate_program_with(&gpu, &analysed, &tiles, sizes, options, 1)
                .unwrap_or_else(|_| SimReport::invalid(&program.name));
            Variant { tiles, report }
        })
        .collect()
}

/// Summarizes a measured space against the `32^d` default.
pub fn summarize(
    arch: &GpuArch,
    program: &Program,
    sizes: &ProblemSizes,
    variants: &[Variant],
    options: &CompileOptions,
) -> BaselineSummary {
    let default = eatss::evaluate_program_with(
        &Gpu::new(arch.clone()),
        &AnalysedProgram::new(program),
        &TileConfig::ppcg_default(program.max_depth()),
        sizes,
        options,
        1,
    )
    .unwrap_or_else(|_| SimReport::invalid(&program.name));
    let valid: Vec<&SimReport> = variants
        .iter()
        .map(|v| &v.report)
        .filter(|r| r.valid)
        .collect();
    let gflops: Vec<f64> = valid.iter().map(|r| r.gflops).collect();
    BaselineSummary {
        default,
        median_gflops: stats::median(&gflops),
        best_gflops: gflops.iter().cloned().fold(0.0, f64::max),
        valid: valid.len(),
        total: variants.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_affine::parser::parse_program;

    fn mm() -> Program {
        parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        )
        .unwrap()
    }

    #[test]
    fn explore_and_summarize_small_space() {
        let arch = GpuArch::ga100();
        let sizes = ProblemSizes::new([("M", 512), ("N", 512), ("P", 512)]);
        let space = TileSpace::new(3, vec![16, 32, 64]);
        let opts = CompileOptions::default();
        let variants = explore_space(&arch, &mm(), &sizes, &space, &opts);
        assert_eq!(variants.len(), 27);
        let summary = summarize(&arch, &mm(), &sizes, &variants, &opts);
        assert!(summary.valid > 0);
        assert!(summary.default.valid);
        assert!(summary.best_gflops >= summary.median_gflops);
        // The default 32^3 is inside the space, so best >= default.
        assert!(summary.best_gflops * 1.03 >= summary.default.gflops);
    }
}
