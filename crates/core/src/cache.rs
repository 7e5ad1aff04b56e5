//! A memoizing tile-selection cache for JIT-style integration.
//!
//! §IV-M(iii) of the paper notes that the model generator "can be
//! integrated into toolchains that perform JIT compilation, which is
//! commonplace in deep learning frameworks". Such toolchains see the same
//! kernels repeatedly (often with the same shapes); [`TileCache`] keys
//! solved selections by the full structural key of
//! (program, sizes, architecture, configuration) — see [`encode_key`] —
//! so two requests share an entry iff they are interchangeable.

use crate::config::EatssConfig;
use crate::model::{EatssError, EatssSolution, ModelGenerator};
use eatss_affine::ir::{ArrayRef, Extent, RhsExpr};
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use std::collections::hash_map::{Entry as Slot, HashMap};

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that ran the solver.
    pub misses: u64,
    /// Requests whose formulation was *proven* unsatisfiable
    /// ([`EatssError::Unsatisfiable`]; also cached).
    pub infeasible: u64,
    /// Requests that failed for any other reason — budget exhaustion,
    /// solver faults, unbound parameters (also cached).
    pub errors: u64,
}

/// What a selection request resolves to (failures are memoized too).
pub type SelectResult = Result<EatssSolution, EatssError>;

/// One memoized selection.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) result: SelectResult,
    /// On-disk size of the journal record currently backing this entry
    /// (0 when it lives in memory only) — maintained by
    /// [`PersistentTileCache`](crate::persist::PersistentTileCache).
    pub(crate) disk_bytes: u64,
}

/// A memoizing front end over the EATSS pipeline for JIT-style use.
///
/// # Examples
///
/// ```
/// use eatss::{EatssConfig, TileCache};
/// use eatss_affine::{parser::parse_program, ProblemSizes};
/// use eatss_gpusim::GpuArch;
///
/// let mut cache = TileCache::new(GpuArch::ga100());
/// let program = parse_program(
///     "kernel mm(M, N, P) {
///        for (i: M) for (j: N) for (k: P)
///          C[i][j] += A[i][k] * B[k][j];
///      }",
/// ).expect("valid source");
/// let sizes = ProblemSizes::new([("M", 2000), ("N", 2000), ("P", 2000)]);
/// let first = cache.select(&program, &sizes, &EatssConfig::default())?.clone();
/// let second = cache.select(&program, &sizes, &EatssConfig::default())?.clone();
/// assert_eq!(first.tiles, second.tiles);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok::<(), eatss::EatssError>(())
/// ```
#[derive(Debug)]
pub struct TileCache {
    arch: GpuArch,
    /// Memoized selections by full structural key ([`encode_key`]).
    entries: HashMap<Vec<u8>, Entry>,
    stats: TileCacheStats,
}

impl TileCache {
    /// Creates an empty cache for one target architecture.
    pub fn new(arch: GpuArch) -> Self {
        TileCache {
            arch,
            entries: HashMap::new(),
            stats: TileCacheStats::default(),
        }
    }

    /// The architecture this cache solves for.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Number of memoized formulations (feasible or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> TileCacheStats {
        self.stats
    }

    /// Drops all memoized selections.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stats = TileCacheStats::default();
    }

    /// Selects tiles, serving repeats from the cache. Failures are
    /// memoized too, so a JIT does not retry hopeless configurations.
    ///
    /// # Errors
    ///
    /// Returns the same (possibly cached) [`EatssError`] the solver
    /// produced.
    pub fn select(
        &mut self,
        program: &Program,
        sizes: &ProblemSizes,
        config: &EatssConfig,
    ) -> Result<&EatssSolution, EatssError> {
        let key = encode_key(&self.arch, program, sizes, config);
        let entry = match self.entries.entry(key) {
            Slot::Occupied(slot) => {
                self.stats.hits += 1;
                slot.into_mut()
            }
            Slot::Vacant(slot) => {
                let result = solve(&self.arch, program, sizes, config);
                count_miss(&mut self.stats, &result);
                slot.insert(Entry {
                    result,
                    disk_bytes: 0,
                })
            }
        };
        match &entry.result {
            Ok(solution) => Ok(solution),
            Err(e) => Err(e.clone()),
        }
    }

    /// Looks up a pre-encoded key (see [`encode_key`]), counting a hit
    /// when present. Absence counts nothing — the caller decides whether
    /// it becomes a miss (via `insert_key`) or is abandoned.
    pub fn lookup_key(&mut self, key: &[u8]) -> Option<SelectResult> {
        let entry = self.entries.get(key)?;
        self.stats.hits += 1;
        Some(entry.result.clone())
    }

    /// Memoizes an externally computed result, counting a miss plus the
    /// infeasible/error classification — the counterpart to a
    /// [`TileCache::lookup_key`] that came back empty. `disk_bytes` and
    /// the return value are as in `replay_key`.
    pub(crate) fn insert_key(&mut self, key: Vec<u8>, result: SelectResult, disk_bytes: u64) -> u64 {
        count_miss(&mut self.stats, &result);
        self.replay_key(key, result, disk_bytes)
    }

    /// Memoizes a result without touching any statistics (journal replay:
    /// entries were counted by the process that first solved them),
    /// recording the size of the journal record that backs it. Returns
    /// the size of the record it supersedes (0 when the key was new or
    /// memory-only).
    pub(crate) fn replay_key(&mut self, key: Vec<u8>, result: SelectResult, disk_bytes: u64) -> u64 {
        self.entries
            .insert(key, Entry { result, disk_bytes })
            .map_or(0, |old| old.disk_bytes)
    }

    /// Iterates every memoized `(key, entry)` pair, in no particular
    /// order — the source set for journal compaction.
    pub(crate) fn entries_mut(&mut self) -> impl Iterator<Item = (&[u8], &mut Entry)> {
        self.entries.iter_mut().map(|(k, e)| (k.as_slice(), e))
    }
}

/// Runs the pipeline for one request without consulting any cache — the
/// solve half of [`TileCache::select`].
pub(crate) fn solve(
    arch: &GpuArch,
    program: &Program,
    sizes: &ProblemSizes,
    config: &EatssConfig,
) -> SelectResult {
    ModelGenerator::new(arch, config.clone())
        .build(program, Some(sizes))
        .and_then(|model| model.solve())
}

fn count_miss(stats: &mut TileCacheStats, result: &SelectResult) {
    stats.misses += 1;
    match result {
        Err(EatssError::Unsatisfiable { .. }) => stats.infeasible += 1,
        Err(_) => stats.errors += 1,
        Ok(_) => {}
    }
}

/// Format byte opening every key [`encode_key`] writes. Keys from before
/// it existed open with the low byte of the architecture name's length
/// (4–6 for the builtin profiles); the high bit keeps the two apart, so a
/// journal record keyed under an older encoding can never answer a
/// lookup. Bump it whenever the encoding below changes meaning.
const KEY_FORMAT: u8 = 0x81;

/// Whether `key` was written by this build's [`encode_key`] — journal
/// replay drops records for which it was not.
pub(crate) fn is_current_key(key: &[u8]) -> bool {
    key.first() == Some(&KEY_FORMAT)
}

/// Canonical byte encoding of a selection request: kernel shapes, access
/// functions, bound sizes, architecture resources and configuration
/// knobs. Kernel, iterator, parameter and array *names* are deliberately
/// excluded — JITs generate fresh names for structurally identical
/// kernels — but array *identity* is not: every reference carries its
/// array's number in order of first occurrence in the program, because
/// which references share an array decides cache-line sharing and hence
/// the formulation. Two requests are interchangeable iff their encodings
/// are equal; this is the full key the cache compares on lookup.
pub fn encode_key(
    arch: &GpuArch,
    program: &Program,
    sizes: &ProblemSizes,
    config: &EatssConfig,
) -> Vec<u8> {
    let mut k = Vec::with_capacity(256);
    k.push(KEY_FORMAT);
    put(&mut k, arch.name.len() as u64);
    k.extend_from_slice(arch.name.as_bytes());
    put(&mut k, arch.l1_shared_bytes);
    put(&mut k, arch.l2_bytes);
    put(&mut k, arch.regs_per_sm as u64);
    put(&mut k, arch.sm_count as u64);
    put(&mut k, arch.max_threads_per_block as u64);
    put(&mut k, arch.max_shared_per_block);
    put(&mut k, config.split_factor.to_bits());
    put(&mut k, config.warp_fraction.to_bits());
    put(&mut k, config.precision.elem_bytes() as u64);
    put(
        &mut k,
        (config.cap == crate::config::ThreadBlockCap::Strict) as u64,
    );
    put(&mut k, program.kernels.len() as u64);
    // Arrays in order of first occurrence; programs name a handful, so a
    // linear scan beats hashing.
    let mut arrays: Vec<&str> = Vec::new();
    for kernel in &program.kernels {
        put(&mut k, kernel.depth() as u64);
        for dim in &kernel.dims {
            put(&mut k, dim.explicit_serial as u64);
            match &dim.extent {
                Extent::Const(c) => {
                    put(&mut k, 0);
                    put(&mut k, *c as u64);
                }
                Extent::Param(p) => {
                    put(&mut k, 1);
                    put(&mut k, sizes.get(p).map_or(u64::MAX, |v| v as u64));
                }
            }
        }
        put(&mut k, kernel.stmts.len() as u64);
        for stmt in &kernel.stmts {
            encode_ref(&stmt.write, &mut arrays, &mut k);
            put(&mut k, stmt.is_accumulation as u64);
            put(&mut k, stmt.reads.len() as u64);
            for r in &stmt.reads {
                encode_ref(r, &mut arrays, &mut k);
            }
            encode_rhs(&stmt.rhs, &mut k);
        }
    }
    k
}

fn put(k: &mut Vec<u8>, v: u64) {
    k.extend_from_slice(&v.to_le_bytes());
}

fn encode_ref<'p>(r: &'p ArrayRef, arrays: &mut Vec<&'p str>, k: &mut Vec<u8>) {
    let id = arrays
        .iter()
        .position(|&a| a == r.array)
        .unwrap_or_else(|| {
            arrays.push(&r.array);
            arrays.len() - 1
        });
    put(k, id as u64);
    put(k, r.subscripts.len() as u64);
    for s in &r.subscripts {
        put(k, s.terms().len() as u64);
        for &(d, c) in s.terms() {
            put(k, d as u64);
            put(k, c as u64);
        }
        put(k, s.offset() as u64);
    }
}

fn encode_rhs(e: &RhsExpr, k: &mut Vec<u8>) {
    match e {
        RhsExpr::Num(v) => {
            k.push(0);
            k.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        RhsExpr::Ref(i) => {
            k.push(1);
            k.extend_from_slice(&(*i as u64).to_le_bytes());
        }
        RhsExpr::Bin(op, a, b) => {
            k.push(2);
            let mut buf = [0u8; 4];
            k.extend_from_slice(op.encode_utf8(&mut buf).as_bytes());
            encode_rhs(a, k);
            encode_rhs(b, k);
        }
        RhsExpr::Neg(a) => {
            k.push(3);
            encode_rhs(a, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_affine::parser::parse_program;

    fn mm(names: (&str, &str, &str)) -> Program {
        parse_program(&format!(
            "kernel k(M, N, P) {{
               for (i: M) for (j: N) for (k: P)
                 {}[i][j] += {}[i][k] * {}[k][j];
             }}",
            names.0, names.1, names.2
        ))
        .expect("valid source")
    }

    fn sizes(n: i64) -> ProblemSizes {
        ProblemSizes::new([("M", n), ("N", n), ("P", n)])
    }

    #[test]
    fn repeated_requests_hit() {
        let mut cache = TileCache::new(GpuArch::ga100());
        let program = mm(("C", "A", "B"));
        let cfg = EatssConfig::default();
        let a = cache.select(&program, &sizes(2000), &cfg).unwrap().clone();
        for _ in 0..5 {
            let b = cache.select(&program, &sizes(2000), &cfg).unwrap();
            assert_eq!(a.tiles, b.tiles);
        }
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn jit_fresh_names_share_an_entry() {
        let mut cache = TileCache::new(GpuArch::ga100());
        let cfg = EatssConfig::default();
        let a = cache
            .select(&mm(("Out0", "In0", "Ker0")), &sizes(2000), &cfg)
            .unwrap()
            .clone();
        let b = cache
            .select(&mm(("Out1", "In1", "Ker1")), &sizes(2000), &cfg)
            .unwrap()
            .clone();
        assert_eq!(a.tiles, b.tiles);
        assert_eq!(cache.stats().hits, 1, "same structure must hit");
    }

    #[test]
    fn different_sizes_and_configs_miss() {
        let mut cache = TileCache::new(GpuArch::ga100());
        let program = mm(("C", "A", "B"));
        let cfg = EatssConfig::default();
        let _ = cache.select(&program, &sizes(2000), &cfg).unwrap();
        let _ = cache.select(&program, &sizes(1000), &cfg).unwrap();
        let _ = cache
            .select(&program, &sizes(2000), &EatssConfig::with_split(0.0))
            .unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn infeasibility_is_memoized() {
        let mut cache = TileCache::new(GpuArch::ga100());
        let program = mm(("C", "A", "B"));
        let cfg = EatssConfig::default(); // WAF 16 > extents of 8
        assert!(cache.select(&program, &sizes(8), &cfg).is_err());
        assert!(cache.select(&program, &sizes(8), &cfg).is_err());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.infeasible, 1);
        assert_eq!(stats.errors, 0, "unsatisfiable is not a pipeline error");
    }

    #[test]
    fn pipeline_errors_are_counted_separately() {
        let mut cache = TileCache::new(GpuArch::ga100());
        let empty = Program {
            name: "empty".into(),
            kernels: vec![],
        };
        let e = cache
            .select(&empty, &sizes(100), &EatssConfig::default())
            .unwrap_err();
        assert!(matches!(e, EatssError::EmptyProgram));
        let stats = cache.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.infeasible, 0, "EmptyProgram is not infeasibility");
    }

    #[test]
    fn clear_resets() {
        let mut cache = TileCache::new(GpuArch::xavier());
        let program = mm(("C", "A", "B"));
        let _ = cache.select(&program, &sizes(512), &EatssConfig::default());
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), TileCacheStats::default());
    }

    #[test]
    fn distinct_architectures_do_not_alias() {
        // ga100 and a hypothetical variant differing only in sm_count or
        // the threads/block cap must produce different keys.
        let program = mm(("C", "A", "B"));
        let cfg = EatssConfig::default();
        let base = GpuArch::ga100();
        let mut fewer_sms = base.clone();
        fewer_sms.sm_count = 1;
        let mut smaller_blocks = base.clone();
        smaller_blocks.max_threads_per_block = 128;
        let k0 = encode_key(&base, &program, &sizes(2000), &cfg);
        assert_ne!(k0, encode_key(&fewer_sms, &program, &sizes(2000), &cfg));
        assert_ne!(k0, encode_key(&smaller_blocks, &program, &sizes(2000), &cfg));
    }
}
