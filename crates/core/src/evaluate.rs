//! End-to-end evaluation: PPCG mapping + GPU-model measurement.

use eatss_affine::analysis::AnalysedProgram;
use eatss_affine::tiling::TileConfig;
use eatss_affine::ProblemSizes;
use eatss_gpusim::{Gpu, SimFault, SimReport};
use eatss_ppcg::{CompileError, CompileOptions, Ppcg};
use std::error::Error;
use std::fmt;

/// Evaluation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvaluateError {
    /// The PPCG stand-in rejected the configuration.
    Compile(CompileError),
    /// A kernel launch failed during measurement (only reachable when
    /// the device carries an injected fault plan).
    Simulation(SimFault),
}

impl fmt::Display for EvaluateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluateError::Compile(e) => write!(f, "compilation failed: {e}"),
            EvaluateError::Simulation(e) => write!(f, "measurement failed: {e}"),
        }
    }
}

impl Error for EvaluateError {}

impl From<CompileError> for EvaluateError {
    fn from(e: CompileError) -> Self {
        EvaluateError::Compile(e)
    }
}

impl From<SimFault> for EvaluateError {
    fn from(e: SimFault) -> Self {
        EvaluateError::Simulation(e)
    }
}

/// Maps the analysed program with `tiles` ([`Ppcg::map`] — the CUDA text
/// [`Ppcg::compile`] would add is never read here, so it is not emitted)
/// and measures it on `gpu`, a device that may carry an injected
/// [`FaultPlan`](eatss_gpusim::FaultPlan). A caller measuring many tilings
/// of one program builds its [`AnalysedProgram`] once.
///
/// Stencil time loops multiply the single-launch measurement by the
/// launch count, and multi-kernel programs aggregate as a sequence —
/// exactly how the paper's per-benchmark numbers combine kernel runs.
/// `repeats` models a measurement that loops the whole program that many
/// times back-to-back (the paper's §V-A methodology runs each variant 100
/// times; 1 is a single run): the clock-boost power ramp is computed over
/// the looped duration, so long sessions report steady-state power, while
/// the returned time/energy stay per-call.
///
/// # Errors
///
/// [`EvaluateError::Compile`] when compilation fails and
/// [`EvaluateError::Simulation`] when an injected fault aborts a launch.
/// An *unexecutable* configuration (block too large for an SM) is not an
/// error: it yields an invalid [`SimReport`] (`valid == false`),
/// mirroring a failed launch on real hardware.
pub fn evaluate_program_with(
    gpu: &Gpu,
    analysed: &AnalysedProgram,
    tiles: &TileConfig,
    sizes: &ProblemSizes,
    options: &CompileOptions,
    repeats: i64,
) -> Result<SimReport, EvaluateError> {
    let arch = gpu.arch();
    let program = analysed.program();
    let mappings = {
        let mut stage = eatss_trace::span("pipeline", "map");
        if stage.is_active() {
            stage.arg("program", program.name.as_str());
            stage.arg("tiles", tiles.to_string());
        }
        Ppcg::map(arch, analysed, tiles, sizes, options)?
    };
    let mut stage = eatss_trace::span("pipeline", "simulate");
    if stage.is_active() {
        stage.arg("program", program.name.as_str());
        stage.arg("launches", mappings.len());
    }
    let reports: Vec<SimReport> = mappings
        .iter()
        .map(|m| {
            gpu.try_simulate(m.exec_spec())
                .map(|r| r.repeated(m.launch_count))
        })
        .collect::<Result<_, SimFault>>()?;
    drop(stage);
    let mut combined = SimReport::sequence(&reports);
    // Into the buffer of the launch name it replaces, which usually fits.
    combined.name.clone_from(&program.name);
    // The measurement-level power ramp (§II / Fig. 1): short measurement
    // sessions are sampled mostly during clock boost and average near
    // idle power. The ramp is driven by the looped session length; it
    // reads no name, so the session is a copy without one.
    let name = std::mem::take(&mut combined.name);
    let mut ramped = combined.clone().repeated(repeats.max(1));
    combined.name = name;
    ramped.apply_power_ramp(arch.idle_power_w(), arch.power_ramp_tau_s);
    combined.avg_power_w = ramped.avg_power_w;
    combined.dynamic_power_w = ramped.dynamic_power_w;
    combined.static_power_w = ramped.static_power_w;
    if combined.valid {
        combined.energy_j = combined.avg_power_w * combined.time_s;
        combined.ppw = if combined.avg_power_w > 0.0 {
            combined.gflops / combined.avg_power_w
        } else {
            0.0
        };
    }
    Ok(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_affine::parser::parse_program;
    use eatss_affine::Program;
    use eatss_gpusim::GpuArch;

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
    fn matmul_evaluates_to_sane_numbers() {
        let gpu = Gpu::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
        let r = evaluate_program_with(
            &gpu,
            &AnalysedProgram::new(&mm()),
            &TileConfig::ppcg_default(3),
            &sizes,
            &CompileOptions::default(),
            1,
        )
        .unwrap();
        assert!(r.valid);
        // 2*2000^3 = 1.6e10 FLOPs at GA100 scale: milliseconds to seconds.
        assert!(r.time_s > 1e-5 && r.time_s < 60.0, "time {}", r.time_s);
        assert!(r.gflops > 50.0, "gflops {}", r.gflops);
        assert!(r.avg_power_w > 50.0 && r.avg_power_w <= 251.0);
    }

    #[test]
    fn launch_count_scales_stencils() {
        let gpu = Gpu::new(GpuArch::ga100());
        let p = parse_program(
            "kernel jac(T, N) {
               for seq (t: T) for (i: N) for (j: N)
                 B[i][j] = A[i][j-1] + A[i][j+1] + A[i][j];
             }",
        )
        .unwrap();
        let tiles = TileConfig::new(vec![1, 32, 32]);
        let small = ProblemSizes::new([("T", 10), ("N", 1000)]);
        let large = ProblemSizes::new([("T", 100), ("N", 1000)]);
        let opts = CompileOptions::default();
        let p = AnalysedProgram::new(&p);
        let r_small = evaluate_program_with(&gpu, &p, &tiles, &small, &opts, 1).unwrap();
        let r_large = evaluate_program_with(&gpu, &p, &tiles, &large, &opts, 1).unwrap();
        let ratio = r_large.time_s / r_small.time_s;
        assert!((9.0..11.0).contains(&ratio), "ratio {ratio}");
        // Rates are launch-invariant.
        assert!((r_large.gflops - r_small.gflops).abs() / r_small.gflops < 1e-6);
    }

    #[test]
    fn unmappable_kernel_is_a_compile_error() {
        let gpu = Gpu::new(GpuArch::ga100());
        let p = parse_program("kernel s(N) { for (i: N) A[i] = A[i-1] + 1.0; }").unwrap();
        let e = evaluate_program_with(
            &gpu,
            &AnalysedProgram::new(&p),
            &TileConfig::ppcg_default(1),
            &ProblemSizes::new([("N", 100)]),
            &CompileOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(e, EvaluateError::Compile(_)));
        assert!(e.to_string().contains("compilation failed"));
    }

    #[test]
    fn oversized_shared_is_invalid_not_error() {
        // A huge staged tile exceeds the per-SM shared memory: the launch
        // is reported invalid rather than failing compilation.
        let gpu = Gpu::new(GpuArch::ga100());
        let sizes = ProblemSizes::new([("M", 4000), ("N", 4000), ("P", 4000)]);
        let opts = CompileOptions {
            shared_budget_bytes: 4 * 1024 * 1024, // permissive budget
            ..CompileOptions::default()
        };
        let r = evaluate_program_with(
            &gpu,
            &AnalysedProgram::new(&mm()),
            &TileConfig::new(vec![512, 4, 512]), // A-tile = 512*512*8 = 2 MiB
            &sizes,
            &opts,
            1,
        )
        .unwrap();
        assert!(!r.valid);
    }
}
