//! Differential execution oracle: the emulated GPU execution of a
//! compiled program must agree element-wise (bitwise, see [`crate::exec`])
//! with the affine interpreter's untiled lexicographic execution.
//!
//! The oracle is the end-to-end semantic check of the whole pipeline:
//! solve → map → codegen semantics → emulate, compared against the
//! reference interpreter on the same deterministically seeded inputs.

use crate::exec::{execute_with_caches, kernel_plan_caches, ExecError, ExecOptions};
use crate::mapping::{CompileError, CompileOptions};
use crate::Ppcg;
use eatss_affine::analysis::AnalysedProgram;
use eatss_affine::interp::{compare_stores, run_program, Array, InterpError, Store, StoreMismatch};
use eatss_affine::plan::{for_each_point, Loop};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;
use std::fmt;

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
#[derive(Debug, Clone, Copy, Default)]
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
    for (name, array) in store.arrays_mut() {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in name.bytes() {
            h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
        }
        seed_rows(array, h);
    }
    Ok(store)
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
/// the store is seeded once, the reference interpretation runs once on a
/// clone of it (it does not depend on tiles), and the mappable
/// configurations run in order on one more clone, the working store,
/// against one set of plan caches — each distinct per-kernel route
/// signature compiles once per batch. Before each configuration after the
/// first, the arrays a statement writes are copied back in place from the
/// seeded store; after a configuration whose verdict is not `Ok`, every
/// array is. So each configuration starts from the seeded values.
///
/// Returns one verdict per configuration, in order; a configuration's
/// verdict, report and trace counters do not depend on what else is in
/// the batch.
pub fn verify_batch(
    program: &Program,
    configs: &[TileConfig],
    arch: &GpuArch,
    sizes: &ProblemSizes,
    options: &OracleOptions,
    seed: u64,
) -> Vec<Result<OracleReport, OracleError>> {
    let mut span = eatss_trace::span("oracle", "verify");
    if span.is_active() {
        span.arg("program", program.name.as_str());
        span.arg("configs", configs.len() as u64);
        span.arg("seed", seed);
    }
    // Map every config first; only mappable ones enter the batch.
    let mut results: Vec<Result<OracleReport, OracleError>> = Vec::with_capacity(configs.len());
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

    // One seeded store and its reference interpretation; an interpreter
    // failure (unbound size) is every mappable config's.
    let seeded_and_interpreted = || -> Result<(Store, Store), InterpError> {
        let seeded = seed_store(program, sizes, seed)?;
        let mut reference = seeded.clone();
        run_program(program, sizes, &mut reference)?;
        Ok((seeded, reference))
    };
    let (seeded, reference) = match seeded_and_interpreted() {
        Ok(ready) => ready,
        Err(e) => {
            for (i, _) in &mappable {
                results[*i] = Err(e.clone().into());
            }
            return results;
        }
    };

    let every: Vec<usize> = (seeded.arrays())
        .filter_map(|(name, _)| seeded.slot(name))
        .collect();
    let mut written: Vec<usize> = (program.kernels.iter())
        .flat_map(|k| &k.stmts)
        .filter_map(|s| seeded.slot(&s.write.array))
        .collect();
    written.sort_unstable();
    written.dedup();
    let mut store = seeded.clone();
    let mut caches = kernel_plan_caches(program);
    let arrays_compared = reference.arrays().count() as u64;
    // The slots the last configuration may have changed.
    let mut dirty: &[usize] = &[];
    for (i, mappings) in &mappable {
        for &slot in dirty {
            (store.slot_array_mut(slot).data_mut()).copy_from_slice(seeded.slot_array(slot).data());
        }
        let stats = execute_with_caches(
            &analysed,
            mappings,
            sizes,
            &mut store,
            &options.exec,
            &mut caches,
        );
        let verdict = stats.map_err(OracleError::from).and_then(|stats| {
            let mut mismatches = compare_stores(&store, &reference);
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
                    arrays_compared,
                });
            }
            let total = mismatches.len();
            eatss_trace::counter_add("oracle.mismatches", total as u64);
            eatss_trace::error!(
                "oracle: {}: tiles {} disagree on {} element(s)",
                program.name,
                configs[*i],
                total
            );
            mismatches.truncate(MAX_MISMATCHES);
            Err(OracleError::Mismatch {
                tiles: configs[*i].to_string(),
                mismatches,
                total,
            })
        });
        dirty = if verdict.is_ok() { &written } else { &every };
        results[*i] = verdict;
    }
    results
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
