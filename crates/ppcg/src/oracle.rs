//! Differential execution oracle: the emulated GPU execution of a
//! compiled program must agree element-wise (bitwise, see [`crate::exec`])
//! with the affine interpreter's untiled lexicographic execution.
//!
//! The oracle is the end-to-end semantic check of the whole pipeline:
//! solve → map → codegen semantics → emulate, compared against the
//! reference interpreter on the same deterministically seeded inputs.

use crate::exec::{
    execute_with_caches, kernel_plan_caches, ExecError, ExecOptions, KernelPlanCache,
};
use crate::mapping::{CompileError, CompileOptions, GpuMapping};
use crate::Ppcg;
use eatss_affine::analysis::AnalysedProgram;
use eatss_affine::interp::{compare_stores, run_program, Array, InterpError, Store, StoreMismatch};
use eatss_affine::plan::{for_each_point, Loop};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::fmt;
use std::sync::OnceLock;

/// Oracle knobs.
#[derive(Debug, Clone, Default)]
pub struct OracleOptions {
    /// Compile options forwarded to the PPCG stand-in.
    pub compile: CompileOptions,
    /// Emulator options (barrier fidelity).
    pub exec: ExecOptions,
}

/// Mismatches kept in a failure report (the total is still counted).
const MAX_MISMATCHES: usize = 8;

/// What a successful verification covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Kernels executed.
    pub kernels: u64,
    /// Grid launches emulated.
    pub launches: u64,
    /// Blocks emulated.
    pub blocks: u64,
    /// Iteration points executed (per execution; the interpreter runs the
    /// same number).
    pub points: u64,
    /// Barriers honored.
    pub barriers: u64,
    /// Elements staged through emulated shared memory.
    pub staged_elems: u64,
    /// Arrays compared element-wise.
    pub arrays_compared: u64,
}

/// Verification failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// The PPCG stand-in rejected the configuration.
    Compile(CompileError),
    /// The emulator faulted (staging/guard bug).
    Exec(ExecError),
    /// The reference interpreter failed (unbound size).
    Interp(InterpError),
    /// Emulated and reference results disagree.
    Mismatch {
        /// Tile configuration under test, for the failure message.
        tiles: String,
        /// First few disagreements.
        mismatches: Vec<StoreMismatch>,
        /// Total number of disagreeing elements.
        total: usize,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Compile(e) => write!(f, "compile: {e}"),
            OracleError::Exec(e) => write!(f, "emulation: {e}"),
            OracleError::Interp(e) => write!(f, "interpreter: {e}"),
            OracleError::Mismatch {
                tiles,
                mismatches,
                total,
            } => {
                writeln!(f, "tiles {tiles}: {total} element(s) disagree:")?;
                for m in mismatches {
                    writeln!(f, "  {m}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for OracleError {}

impl From<CompileError> for OracleError {
    fn from(e: CompileError) -> Self {
        OracleError::Compile(e)
    }
}

impl From<ExecError> for OracleError {
    fn from(e: ExecError) -> Self {
        OracleError::Exec(e)
    }
}

impl From<InterpError> for OracleError {
    fn from(e: InterpError) -> Self {
        OracleError::Interp(e)
    }
}

/// Allocates every array the program touches and fills it with small
/// deterministic integers in `[-3, 3]` — exactly representable, so any
/// divergence between executions is a real ordering/coverage bug, never
/// floating-point noise. The pattern depends on the array name, the
/// element index, and `seed`: the name's hash, then one hash step per
/// subscript, outermost first. Arrays fill one row (last subscript) at a
/// time, the outer subscripts hashed once per row.
///
/// # Errors
///
/// Returns [`InterpError::UnboundParameter`] on unbound sizes.
pub fn seed_store(
    program: &Program,
    sizes: &ProblemSizes,
    seed: u64,
) -> Result<Store, InterpError> {
    let mut store = Store::new();
    store.allocate_for(program, sizes)?;
    reseed(&mut store, seed, |_| true);
    Ok(store)
}

/// Fills the arrays of `store` that `pick` names with their
/// [`seed_store`] values again, in place.
fn reseed(store: &mut Store, seed: u64, pick: impl Fn(&str) -> bool) {
    for (name, array) in store.arrays_mut() {
        if pick(name) {
            let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
            for b in name.bytes() {
                h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
            }
            seed_rows(array, h);
        }
    }
}

/// One step of the seed hash: folds subscript value `i` into `h`.
fn hash_step(h: u64, i: i64) -> u64 {
    let h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(i as u64);
    h ^ (h >> 29)
}

/// Fills `array` from the hash `base` of its name, row by row.
fn seed_rows(array: &mut Array, base: u64) {
    let value = |h: u64| ((h % 7) as i64 - 3) as f64;
    let Some((&row_len, outer)) = array.extents().split_last() else {
        array.data_mut().fill(value(base));
        return;
    };
    let rows: Vec<Loop> = (outer.iter().enumerate())
        .map(|(dim, &count)| Loop {
            dim,
            start: 0,
            count,
            step: 1,
        })
        .collect();
    let mut data = array.data_mut().chunks_exact_mut(row_len as usize);
    let Ok(()) = for_each_point(&mut vec![0; rows.len()], &rows, |idx| {
        let h = idx.iter().fold(base, |h, &i| hash_step(h, i));
        if let Some(row) = data.next() {
            for (i, v) in (0..).zip(row) {
                *v = value(hash_step(h, i));
            }
        }
        Ok::<(), Infallible>(())
    });
}

/// Verifies one tile configuration: a [`verify_batch`] of one.
///
/// # Errors
///
/// See [`OracleError`]; [`OracleError::Mismatch`] is the oracle firing.
pub fn verify(
    program: &Program,
    tiles: &TileConfig,
    arch: &GpuArch,
    sizes: &ProblemSizes,
    options: &OracleOptions,
    seed: u64,
) -> Result<OracleReport, OracleError> {
    #[allow(clippy::expect_used)] // `verify_batch` answers each configuration once.
    verify_batch(
        program,
        std::slice::from_ref(tiles),
        arch,
        sizes,
        options,
        seed,
    )
    .pop()
    .expect("one verdict per configuration")
}

/// Runs one program under each tile configuration through map
/// ([`Ppcg::map`] — no CUDA text is emitted) → emulate and compares
/// against the reference interpreter on identically seeded stores. The
/// expensive invariants are shared across the batch: the program is
/// analysed once ([`AnalysedProgram`]) for every configuration's mapping,
/// and the reference interpretation runs once, on a [`seed_store`] store
/// (it does not depend on tiles).
///
/// The mappable configurations are dealt round-robin into one group per
/// available core, at most one per configuration, and the groups run at
/// once through [`eatss_trace::par_map_ordered`]: the calling thread runs
/// one, so a two-way batch spawns one thread. The batch runs inline as
/// one group on one core, inside an item of a pool that split (the pool
/// does not nest), and when it has fewer than 10 000 emulated points,
/// which would not repay a thread. Each group has its own freshly seeded working store and
/// its own plan caches, so each distinct per-kernel route signature
/// compiles once per group. Between a group's configurations the arrays
/// a statement writes are seeded again in place; after a verdict that is
/// not `Ok`, every array is. So each configuration starts from the
/// seeded values, and a two-way batch holds three stores: the reference
/// and two working stores.
///
/// Returns one verdict per configuration, in order; a configuration's
/// verdict, report and trace counters do not depend on what else is in
/// the batch, nor on how many cores ran it.
pub fn verify_batch(
    program: &Program,
    configs: &[TileConfig],
    arch: &GpuArch,
    sizes: &ProblemSizes,
    options: &OracleOptions,
    seed: u64,
) -> Vec<Result<OracleReport, OracleError>> {
    // Asked once: on Linux the answer reads the process's cgroup files.
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    verify_batch_on(program, configs, arch, sizes, options, seed, cores)
}

type Verdict = Result<OracleReport, OracleError>;

/// Emulated points (reference points times mappable configurations)
/// below which a batch runs as one group. The emulator runs about 60
/// points a microsecond, so a second group saves at most ~80 µs of such a
/// batch, against ~45 µs to spawn and join its thread on a 2-vCPU host,
/// where a busy sibling also slows the caller. On that host the
/// `verify-oracle` ops of at most 6 498 points ran slower split, and every
/// op of 12 996 or more ran faster.
const SPLIT_POINTS: u64 = 10_000;

/// [`verify_batch`] over at most `jobs` groups — one when the batch has
/// fewer than `SPLIT_POINTS` emulated points. Public only so that the
/// integration tests can check that the group count changes no answer.
#[doc(hidden)]
pub fn verify_batch_on(
    program: &Program,
    configs: &[TileConfig],
    arch: &GpuArch,
    sizes: &ProblemSizes,
    options: &OracleOptions,
    seed: u64,
    jobs: usize,
) -> Vec<Result<OracleReport, OracleError>> {
    let mut span = eatss_trace::span("oracle", "verify");
    if span.is_active() {
        span.arg("program", program.name.as_str());
        span.arg("configs", configs.len() as u64);
        span.arg("seed", seed);
    }
    // Map every config first; only mappable ones enter the batch.
    let mut results: Vec<Verdict> = Vec::with_capacity(configs.len());
    let mut mappable = Vec::new();
    let analysed = AnalysedProgram::new(program);
    for (i, tiles) in configs.iter().enumerate() {
        match Ppcg::map(arch, &analysed, tiles, sizes, &options.compile) {
            Ok(mapped) => {
                mappable.push((i, mapped));
                results.push(Ok(OracleReport::default()));
            }
            Err(e) => results.push(Err(e.into())),
        }
    }

    if mappable.is_empty() {
        return results;
    }

    // The reference interpretation; an interpreter failure (unbound
    // size) is every mappable config's.
    let interpreted = seed_store(program, sizes, seed).and_then(|mut reference| {
        run_program(program, sizes, &mut reference)?;
        Ok(reference)
    });
    let reference = match interpreted {
        Ok(reference) => reference,
        Err(e) => {
            for (i, _) in &mappable {
                results[*i] = Err(e.clone().into());
            }
            return results;
        }
    };

    let batch = Batch {
        analysed: &analysed,
        configs,
        sizes,
        options,
        seed,
        written: (program.kernels.iter())
            .flat_map(|k| &k.stmts)
            .map(|s| &*s.write.array)
            .collect(),
        arrays_compared: reference.arrays().count() as u64,
        reference: &reference,
    };
    let points = (program.kernels.iter())
        .map(|k| k.iteration_space_size(sizes).map_or(0, |n| n as u64))
        .sum::<u64>()
        .saturating_mul(mappable.len() as u64);
    let groups = if points < SPLIT_POINTS {
        1
    } else {
        jobs.clamp(1, mappable.len())
    };
    let dealt: Vec<Vec<&Mapped>> = (0..groups)
        .map(|g| mappable.iter().skip(g).step_by(groups).collect())
        .collect();
    for group in eatss_trace::par_map_ordered(&dealt, groups, |group| batch.run(group)) {
        for (i, verdict) in group {
            results[i] = verdict;
        }
    }
    results
}

/// A mappable configuration: its index in the batch and its mapping.
type Mapped = (usize, Vec<GpuMapping>);

/// What every group of one batch shares.
struct Batch<'a> {
    analysed: &'a AnalysedProgram<'a>,
    configs: &'a [TileConfig],
    sizes: &'a ProblemSizes,
    options: &'a OracleOptions,
    seed: u64,
    /// The arrays a statement writes.
    written: BTreeSet<&'a str>,
    arrays_compared: u64,
    reference: &'a Store,
}

impl Batch<'_> {
    /// Runs one group's configurations in order on its own working store
    /// and plan caches, and returns their verdicts by batch index.
    fn run(&self, group: &[&Mapped]) -> Vec<(usize, Verdict)> {
        let program = self.analysed.program();
        let mut store = match seed_store(program, self.sizes, self.seed) {
            Ok(store) => store,
            // The reference's store was seeded from the same program and
            // sizes, so this does not happen.
            Err(e) => {
                return (group.iter())
                    .map(|(i, _)| (*i, Err(e.clone().into())))
                    .collect()
            }
        };
        let mut caches = kernel_plan_caches(program);
        let mut verdicts: Vec<(usize, Verdict)> = Vec::with_capacity(group.len());
        for (i, mappings) in group {
            if let Some((_, last)) = verdicts.last() {
                let every = last.is_err();
                reseed(&mut store, self.seed, |name| {
                    every || self.written.contains(name)
                });
            }
            let verdict = self.verify(*i, mappings, &mut store, &mut caches);
            verdicts.push((*i, verdict));
        }
        verdicts
    }

    /// Emulates configuration `i` on `store` and compares the result with
    /// the reference.
    fn verify(
        &self,
        i: usize,
        mappings: &[GpuMapping],
        store: &mut Store,
        caches: &mut [KernelPlanCache],
    ) -> Verdict {
        let program = self.analysed.program();
        let opts = &self.options.exec;
        let stats = execute_with_caches(self.analysed, mappings, self.sizes, store, opts, caches)?;
        let mut mismatches = compare_stores(store, self.reference);
        eatss_trace::counter_add("oracle.points", stats.points);
        eatss_trace::counter_add("oracle.configs", 1);
        if mismatches.is_empty() {
            return Ok(OracleReport {
                kernels: program.kernels.len() as u64,
                launches: stats.launches,
                blocks: stats.blocks,
                points: stats.points,
                barriers: stats.barriers,
                staged_elems: stats.staged_elems,
                arrays_compared: self.arrays_compared,
            });
        }
        let total = mismatches.len();
        eatss_trace::counter_add("oracle.mismatches", total as u64);
        eatss_trace::error!(
            "oracle: {}: tiles {} disagree on {} element(s)",
            program.name,
            self.configs[i],
            total
        );
        mismatches.truncate(MAX_MISMATCHES);
        Err(OracleError::Mismatch {
            tiles: self.configs[i].to_string(),
            mismatches,
            total,
        })
    }
}

/// Shrinks problem sizes so exhaustive interpretation stays fast: spatial
/// parameters are capped at `space_cap` and explicit-serial (time-loop)
/// parameters at `time_cap`.
pub fn verify_sizes(
    program: &Program,
    sizes: &ProblemSizes,
    space_cap: i64,
    time_cap: i64,
) -> ProblemSizes {
    let mut time_params: Vec<&str> = Vec::new();
    for kernel in &program.kernels {
        for dim in &kernel.dims {
            if let (true, eatss_affine::ir::Extent::Param(p)) = (dim.explicit_serial, &dim.extent) {
                time_params.push(p.as_str());
            }
        }
    }
    let mut shrunk = ProblemSizes::default();
    for (name, v) in sizes.iter() {
        let cap = if time_params.contains(&name) {
            time_cap
        } else {
            space_cap
        };
        shrunk.set(name, v.min(cap));
    }
    shrunk
}

/// Draws a random tile configuration of the given depth from a pool
/// biased toward the places guard bugs live: non-divisible boundaries,
/// single-element tiles, tiles crossing the trip count, and primes.
pub fn sample_tile_config<R: Rng>(rng: &mut R, trips: &[i64]) -> TileConfig {
    let mut sizes = Vec::with_capacity(trips.len());
    for &trip in trips {
        let trip = trip.max(1);
        let mut pool = vec![1, 2, 3, 5, 7, 8, 13, 16, 31, 32, 33, 64];
        pool.push((trip - 1).max(1));
        pool.push(trip);
        pool.push(trip + 1);
        let pick = pool[rng.gen_range(0..pool.len())];
        sizes.push(pick.max(1));
    }
    TileConfig::new(sizes)
}

/// Convenience: a fresh deterministic RNG for a sweep seed.
pub fn sweep_rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_affine::parser::parse_program;

    #[test]
    fn a_dependence_carried_inside_the_thread_maps_no_racing_dim() {
        // Distance (1, −1): k runs inside each thread, so mapping i to
        // threads would race; one launch per `seq` k carries it instead.
        let verdict = |k_loop: &str| {
            let program = parse_program(&format!(
                "kernel skewm(N) {{
                   {k_loop} for (i: N) A[i][k] = A[i+1][k-1] + 1.0;
                 }}"
            ))
            .unwrap();
            verify(
                &program,
                &TileConfig::new(vec![32, 32]),
                &GpuArch::ga100(),
                &ProblemSizes::new([("N", 40)]),
                &OracleOptions::default(),
                7,
            )
        };
        assert!(matches!(
            verdict("for (k: N)"),
            Err(OracleError::Compile(CompileError::NoParallelDim(_)))
        ));
        assert!(verdict("for seq (k: N)").is_ok());
    }
}
