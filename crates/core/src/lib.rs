//! **EATSS** — the Energy-Aware Tile Size Selection Scheme of
//! *"Energy-Aware Tile Size Selection for Affine Programs on GPUs"*
//! (Jayaweera, Kong, Wang, Kaeli — CGO 2024), reproduced in Rust.
//!
//! EATSS derives, per affine kernel, a non-linear integer formulation
//! whose variables are the tile sizes of the loop nest:
//!
//! * tile sizes are bounded and warp-aligned (§IV-B),
//! * per-reference data-tile volumes `V^f` (§IV-C) populate L1 /
//!   shared-memory / L2 capacity constraints under a *split factor*
//!   (§IV-E, §IV-H, §IV-J),
//! * thread-block size and register-per-SM constraints encode the GPU
//!   execution model (§IV-F, §IV-G) with FP32/FP64 awareness (§IV-I),
//! * the objective `OBJ = Π_{i par} T_i + Σ H_i·T_i` trades intra-thread
//!   locality for inter-thread sharing (§IV-K),
//! * the formulation is maximized by iteratively asserting
//!   `OBJ_{n+1} > OBJ_n` (§IV-L) with the `eatss-smt` solver.
//!
//! The selected tiles are handed to the PPCG stand-in (`eatss-ppcg`) and
//! evaluated on the GPU model (`eatss-gpusim`), mirroring the paper's
//! EATSS → PPCG → hardware pipeline.
//!
//! # Examples
//!
//! ```
//! use eatss::{Eatss, EatssConfig};
//! use eatss_affine::{parser::parse_program, ProblemSizes};
//! use eatss_gpusim::GpuArch;
//!
//! let program = parse_program(
//!     "kernel mm(M, N, P) {
//!        for (i: M) for (j: N) for (k: P)
//!          C[i][j] += A[i][k] * B[k][j];
//!      }")?;
//! let eatss = Eatss::new(GpuArch::ga100());
//! let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
//! let solution = eatss.select_tiles(&program, &sizes, &EatssConfig::default())?;
//! assert_eq!(solution.tiles.sizes().len(), 3);
//! // Tile sizes respect the warp-alignment factor.
//! assert!(solution.tiles.sizes().iter().all(|t| t % 16 == 0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod error;
pub mod evaluate;
pub mod journal;
pub mod model;
pub mod persist;
pub mod sweep;

pub use cache::{TileCache, TileCacheStats};
/// The name `benchmark/src/tour.rs` (the ruler, which a product PR may not
/// edit) still uses for a journaled [`TileCache`]. The next `[benchmark]`
/// PR switches it to `TileCache` and deletes this line.
pub use cache::TileCache as PersistentTileCache;
pub use journal::{Journal, JournalConfig, RecoveryStats, ReplayedEntries, SyncPolicy};
pub use config::{ConfigRangeError, EatssConfig, Precision, ThreadBlockCap};
pub use error::{PipelineError, PipelineStage};
pub use evaluate::{
    evaluate_program, evaluate_program_repeated, evaluate_program_with, EvaluateError,
};
pub use model::{Ablation, EatssError, EatssModel, EatssSolution, ModelGenerator, SolutionProvenance};
pub use sweep::{pareto_front, SweepOptions, SweepOutcome, SweepPoint};

use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::{Gpu, GpuArch, SimReport};
use eatss_ppcg::{verify_batch, verify_sizes, OracleError, OracleOptions, OracleReport};

/// Shrink caps of [`Eatss::verify`] for spatial and time-loop
/// parameters: small enough that an exhaustive interpretation stays
/// interactive, large enough for ragged tiles and multi-step launches.
const VERIFY_SPACE_CAP: i64 = 17;
const VERIFY_TIME_CAP: i64 = 3;

/// The oracle input seed front ends pass to [`Eatss::verify`] unless the
/// user names one.
pub const VERIFY_SEED: u64 = 0xEA75_50AC;

/// The EATSS pipeline: model generation → iterative solving → PPCG
/// compilation → simulated measurement.
#[derive(Debug, Clone)]
pub struct Eatss {
    gpu: Gpu,
}

impl Eatss {
    /// Creates the scheme for a target architecture.
    pub fn new(arch: GpuArch) -> Self {
        Eatss {
            gpu: Gpu::new(arch),
        }
    }

    /// Creates the scheme around an explicit device — the entry point for
    /// measuring on a [`Gpu`] that carries an injected
    /// [`FaultPlan`](eatss_gpusim::FaultPlan).
    pub fn with_gpu(gpu: Gpu) -> Self {
        Eatss { gpu }
    }

    /// The target architecture.
    pub fn arch(&self) -> &GpuArch {
        self.gpu.arch()
    }

    /// The measurement device.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Selects tile sizes for `program` under one configuration
    /// (split factor, warp fraction, precision).
    ///
    /// # Errors
    ///
    /// Returns [`EatssError`] when the formulation is unsatisfiable
    /// (e.g. the warp-alignment factor leaves no feasible tile) or the
    /// solver fails.
    pub fn select_tiles(
        &self,
        program: &Program,
        sizes: &ProblemSizes,
        config: &EatssConfig,
    ) -> Result<EatssSolution, EatssError> {
        ModelGenerator::new(self.arch(), config.clone())
            .build(program, Some(sizes))?
            .solve()
    }

    /// Evaluates a tile configuration end-to-end: PPCG compilation plus
    /// GPU-model measurement (time, power, energy, PPW).
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateError`] if compilation fails or an injected
    /// fault aborts a launch.
    pub fn evaluate(
        &self,
        program: &Program,
        tiles: &TileConfig,
        sizes: &ProblemSizes,
        config: &EatssConfig,
    ) -> Result<SimReport, EvaluateError> {
        let options = config.compile_options(self.arch());
        evaluate_program_with(&self.gpu, program, tiles, sizes, &options, 1)
    }

    /// Checks tile configurations with the execution oracle: each is
    /// compiled the way *its* configuration compiles it for this device
    /// (split, precision, shared-memory budget — the code an answer
    /// stands for), emulated at shrunk sizes and compared bitwise with
    /// the interpreter on stores seeded from `seed`. Configurations that
    /// compile alike share one [`verify_batch`], so the reference
    /// interpretation and the emulator plans are paid once per group.
    ///
    /// Returns one verdict per entry of `configs`, in order.
    pub fn verify(
        &self,
        program: &Program,
        sizes: &ProblemSizes,
        configs: &[(&EatssConfig, &TileConfig)],
        seed: u64,
    ) -> Vec<Result<OracleReport, OracleError>> {
        let shrunk = verify_sizes(program, sizes, VERIFY_SPACE_CAP, VERIFY_TIME_CAP);
        let compile: Vec<_> = configs
            .iter()
            .map(|(config, _)| config.compile_options(self.arch()))
            .collect();
        let mut verdicts = vec![None; configs.len()];
        while let Some(first) = verdicts.iter().position(Option::is_none) {
            let group: Vec<usize> = (first..configs.len())
                .filter(|&i| compile[i] == compile[first])
                .collect();
            let tiles: Vec<TileConfig> = group.iter().map(|&i| configs[i].1.clone()).collect();
            let options = OracleOptions {
                compile: compile[first].clone(),
                ..OracleOptions::default()
            };
            let batch = verify_batch(program, &tiles, self.arch(), &shrunk, &options, seed);
            for (i, verdict) in group.into_iter().zip(batch) {
                verdicts[i] = Some(verdict);
            }
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every configuration is in one group"))
            .collect()
    }

    /// Runs the paper's configuration sweep (§V-B generates three
    /// shared-memory levels per benchmark; §V-D adds warp fractions) and
    /// returns every point plus the PPW-best one, under the default
    /// degradation policy. Unsolvable points degrade to PPCG's default
    /// `32^d` tiling (see [`SweepOptions`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Eatss::sweep_with`].
    pub fn sweep(
        &self,
        program: &Program,
        sizes: &ProblemSizes,
        splits: &[f64],
        warp_fractions: &[f64],
    ) -> Result<SweepOutcome, PipelineError> {
        self.sweep_with(program, sizes, splits, warp_fractions, &SweepOptions::default())
    }

    /// Like [`Eatss::sweep`], but under an explicit degradation policy.
    ///
    /// With [`SweepOptions::jobs`] > 1 the configurations are distributed
    /// over a scoped worker pool; results are merged back in the canonical
    /// configuration order, so the outcome — points, bookkeeping, and even
    /// which systemic error aborts the sweep — is identical to a sequential
    /// run.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoMeasurablePoint`] when no configuration —
    /// including the `32^d` fallbacks — yields a measurement;
    /// [`PipelineError`] with stage attribution on systemic failures
    /// (solver errors, unbound parameters — conditions no retry or
    /// fallback can repair).
    pub fn sweep_with(
        &self,
        program: &Program,
        sizes: &ProblemSizes,
        splits: &[f64],
        warp_fractions: &[f64],
        options: &SweepOptions,
    ) -> Result<SweepOutcome, PipelineError> {
        sweep::run_with(self, program, sizes, splits, warp_fractions, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_compiles_each_config_the_way_it_is_configured() {
        let bench = eatss_kernels::by_name("gemm").expect("registered");
        let program = bench.program().expect("parses");
        let sizes = bench.sizes(eatss_kernels::Dataset::Standard);
        let tiles = TileConfig::ppcg_default(program.max_depth());
        let (unstaged, staged) = (EatssConfig::with_split(0.0), EatssConfig::with_split(0.5));
        // Mixed splits in one call: verdicts come back in input order,
        // each from its own split's codegen.
        let verdicts = Eatss::new(GpuArch::ga100()).verify(
            &program,
            &sizes,
            &[(&staged, &tiles), (&unstaged, &tiles), (&staged, &tiles)],
            VERIFY_SEED,
        );
        let staged_elems: Vec<u64> = verdicts
            .iter()
            .map(|v| v.as_ref().expect("32^d verifies").staged_elems)
            .collect();
        // No shared memory under a 0.0 split: nothing may be staged.
        assert_eq!(staged_elems[1], 0);
        assert!(staged_elems[0] > 0 && staged_elems[2] == staged_elems[0]);
    }
}
