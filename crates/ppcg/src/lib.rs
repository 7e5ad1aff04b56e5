//! A PPCG stand-in: tiling-driven GPU mapping and CUDA code generation
//! for affine programs.
//!
//! The EATSS paper uses the *Polyhedral Parallel Code Generator* \[24\] in
//! three roles, all reproduced here:
//!
//! 1. **baseline tiling** — the `32^d` default configuration
//!    ([`eatss_affine::tiling::TileConfig::ppcg_default`]) and exhaustive
//!    tile-space enumeration for the exploratory studies ([`space`]);
//! 2. **GPU mapping** ([`mapping`]) — assigning parallel tile dimensions
//!    to the grid/block, capping threads at `T_P_B` with point-loop
//!    multiplicity, deciding shared-memory staging under a budget, and
//!    lowering the result to an [`eatss_gpusim::KernelExecSpec`];
//! 3. **code generation** ([`codegen`]) — emitting the tiled CUDA-C text
//!    (tile loops, `min` guards, `__shared__` staging, `__syncthreads`).
//!
//! [`Ppcg::map`] is role 2 alone and is what measurement and the
//! [`oracle`] consume: the GPU model simulates a mapping's exec spec and
//! the emulator executes the mapping itself, so neither reads the text.
//! [`Ppcg::compile`] is `map` + role 3, for whoever wants the CUDA source
//! (`eatss --emit-cuda`, the examples); `tests/golden_codegen.rs` pins
//! that text byte for byte and `tests/pipeline.rs` its shape over the
//! whole registry.
//!
//! # Examples
//!
//! ```
//! use eatss_affine::{parser::parse_program, tiling::TileConfig, ProblemSizes};
//! use eatss_gpusim::GpuArch;
//! use eatss_ppcg::{CompileOptions, Ppcg};
//!
//! let program = parse_program(
//!     "kernel mm(M, N, P) {
//!        for (i: M) for (j: N) for (k: P)
//!          C[i][j] += A[i][k] * B[k][j];
//!      }")?;
//! let ppcg = Ppcg::new(GpuArch::ga100());
//! let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
//! let compiled = ppcg.compile(
//!     &program,
//!     &TileConfig::ppcg_default(3),
//!     &sizes,
//!     &CompileOptions::default(),
//! )?;
//! assert_eq!(compiled.mappings.len(), 1);
//! assert!(compiled.cuda_source.contains("__global__"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codegen;
pub mod exec;
pub mod hostgen;
pub mod mapping;
pub mod oracle;
pub mod space;

pub use exec::{execute_compiled, BarrierFidelity, ExecEngine, ExecError, ExecOptions, ExecStats};
pub use mapping::{CompileError, CompileOptions, GpuMapping};
pub use oracle::{
    seed_store, verify, verify_batch, verify_sizes, OracleError, OracleOptions, OracleReport,
};
pub use space::TileSpace;

use eatss_affine::analysis::AnalysedProgram;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use std::borrow::Cow;

/// The PPCG stand-in compiler.
#[derive(Debug, Clone)]
pub struct Ppcg {
    arch: GpuArch,
}

/// A compiled program: one GPU mapping per kernel plus the generated
/// CUDA source.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// One GPU mapping per kernel, in program order.
    pub mappings: Vec<GpuMapping>,
    /// Generated CUDA-C source for the whole program.
    pub cuda_source: String,
}

impl Ppcg {
    /// Creates a compiler targeting `arch`.
    pub fn new(arch: GpuArch) -> Self {
        Ppcg { arch }
    }

    /// The target architecture.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Maps every kernel of an analysed program under a (program-wide)
    /// tile configuration: one [`GpuMapping`] per kernel, in program order.
    /// The kernels' access analyses are borrowed from `analysed`, so a
    /// caller mapping many tilings of one program analyses it once.
    ///
    /// This is what measurement (`eatss::evaluate_program_with`) and the
    /// [`oracle`] consume — a mapping lowers to a simulator spec
    /// ([`GpuMapping::exec_spec`]) and is what the emulator executes —
    /// so neither pays for CUDA text. It needs only the architecture, hence
    /// no `self`.
    ///
    /// Kernels shallower than the configuration use its prefix, mirroring
    /// how the paper applies one tile tuple to multi-kernel programs such
    /// as 2mm.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the tiling is malformed, a problem
    /// size is unbound, or a kernel cannot be mapped.
    pub fn map(
        arch: &GpuArch,
        analysed: &AnalysedProgram,
        tiles: &TileConfig,
        sizes: &ProblemSizes,
        options: &CompileOptions,
    ) -> Result<Vec<GpuMapping>, CompileError> {
        let mut mappings = Vec::with_capacity(analysed.program().kernels.len());
        for (kernel, analysis) in analysed.kernels() {
            if kernel.depth() > tiles.len() {
                return Err(CompileError::NotEnoughTileSizes {
                    kernel: kernel.name.clone(),
                    depth: kernel.depth(),
                    got: tiles.len(),
                });
            }
            let ktiles = if tiles.len() == kernel.depth() {
                Cow::Borrowed(tiles)
            } else {
                Cow::Owned(tiles.truncated(kernel.depth()))
            };
            let mut stage = eatss_trace::span("ppcg", "map");
            if stage.is_active() {
                stage.arg("kernel", kernel.name.as_str());
            }
            mappings.push(GpuMapping::compute(
                kernel, analysis, &ktiles, arch, sizes, options,
            )?);
        }
        Ok(mappings)
    }

    /// Compiles a program: [`Ppcg::map`] of its analysis, then the CUDA-C
    /// text emitted over the mappings it returned (one `__global__` per
    /// kernel, then the host driver).
    ///
    /// # Errors
    ///
    /// Those of [`Ppcg::map`]; emission itself cannot fail.
    pub fn compile(
        &self,
        program: &Program,
        tiles: &TileConfig,
        sizes: &ProblemSizes,
        options: &CompileOptions,
    ) -> Result<CompiledProgram, CompileError> {
        let mut span = eatss_trace::span("ppcg", "compile");
        if span.is_active() {
            span.arg("program", program.name.as_str());
            span.arg("tiles", tiles.to_string());
            span.arg("kernels", program.kernels.len());
        }
        let analysed = AnalysedProgram::new(program);
        let mappings = Ppcg::map(&self.arch, &analysed, tiles, sizes, options)?;
        let mut cuda = codegen::program_header(&program.name, tiles);
        for ((kernel, analysis), mapping) in analysed.kernels().zip(&mappings) {
            let mut stage = eatss_trace::span("ppcg", "codegen");
            if stage.is_active() {
                stage.arg("kernel", kernel.name.as_str());
            }
            cuda.push_str(&codegen::emit_kernel(kernel, analysis, mapping));
        }
        {
            let _stage = eatss_trace::span("ppcg", "hostgen");
            cuda.push_str(&hostgen::emit_host(program, &mappings, sizes));
        }
        if span.is_active() {
            span.arg("cuda_bytes", cuda.len());
        }
        Ok(CompiledProgram {
            mappings,
            cuda_source: cuda,
        })
    }
}
