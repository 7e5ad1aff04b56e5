//! The memoizing tile-selection cache for JIT-style integration — in
//! memory, or over a journal that survives restarts and `kill -9`.
//!
//! §IV-M(iii) of the paper notes that the model generator "can be
//! integrated into toolchains that perform JIT compilation, which is
//! commonplace in deep learning frameworks". Such toolchains see the same
//! kernels repeatedly (often with the same shapes); [`TileCache`] keys
//! solved selections by the full structural key of
//! (program, sizes, architecture, configuration) — see [`encode_key`] —
//! so two requests share an entry iff they are interchangeable.
//!
//! Durability is a property of how the cache was built, not a second
//! type: [`TileCache::new`] keeps everything in memory, and
//! [`TileCache::open`] puts the append-only [`Journal`] under the
//! same map. With a journal every *committed* result (a proved-optimal
//! solution or a proved infeasibility — see
//! [`is_committed`](crate::persist::is_committed)) is appended to disk
//! when it is memoized, and opening the cache replays the journal to
//! warm-start the map. Anytime (budget-limited) and fallback selections
//! are served but never persisted — a later request with a larger budget
//! must be able to improve on them. Replay skips, and counts, any record
//! whose value does not decode or whose *key* is not in this build's
//! [`encode_key`] format: no lookup could name it, and a key written
//! under an older encoding may describe a different kernel than the same
//! bytes would today.

use crate::config::EatssConfig;
use crate::journal::{Journal, JournalConfig, RecoveryStats, RECORD_PREFIX_BYTES};
use crate::model::{EatssError, EatssSolution, ModelGenerator};
use crate::persist::{decode_result, encode_result};
use eatss_affine::ir::{ArrayRef, Extent, RhsExpr};
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use std::collections::hash_map::{Entry as Slot, HashMap};
use std::io;
use std::path::Path;

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
struct Entry {
    result: SelectResult,
    /// On-disk size of the journal record currently backing this entry
    /// (0 when it lives in memory only).
    disk_bytes: u64,
}

/// A memoizing front end over the EATSS pipeline for JIT-style use.
///
/// With a journal ([`TileCache::open`]) the same semantics hold — full
/// structural keys, hit/miss/infeasible statistics — plus:
///
/// * committed results are appended to the on-disk journal *before*
///   [`TileCache::insert_key`] memoizes them, so an `Ok` from it implies
///   durability (under [`SyncPolicy::Always`](crate::SyncPolicy::Always));
/// * opening the cache replays the journal, warm-starting the map across
///   restarts and hard kills;
/// * [`TileCache::compact`] rewrites the journal to the live entry set,
///   atomically.
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
    /// Where committed entries are made durable; `None` keeps the cache
    /// in memory only.
    journal: Option<Journal>,
    /// Journal records that decoded to valid results on open.
    replayed: u64,
    /// Journal records dropped on open: the value failed to decode, or
    /// the key is not in this build's format.
    undecodable: u64,
    /// Entries appended to the journal over this cache's lifetime.
    persisted: u64,
    /// On-disk bytes of the *latest* record per key — the sum of the
    /// entries' `disk_bytes`, maintained incrementally. Superseded
    /// records, undecodable values and corrupt skipped bytes are the
    /// complement: garbage.
    live_bytes: u64,
}

impl TileCache {
    /// Creates an empty in-memory cache for one target architecture.
    pub fn new(arch: GpuArch) -> Self {
        TileCache {
            arch,
            entries: HashMap::new(),
            stats: TileCacheStats::default(),
            journal: None,
            replayed: 0,
            undecodable: 0,
            persisted: 0,
            live_bytes: 0,
        }
    }

    /// Opens (or creates) a journaled cache in `dir`, replaying every
    /// committed entry.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O and format errors — see [`Journal::open`].
    pub fn open(dir: &Path, arch: GpuArch, config: JournalConfig) -> io::Result<Self> {
        let (journal, records) = Journal::open(dir, config)?;
        let mut cache = TileCache::new(arch);
        cache.journal = Some(journal);
        for (key, value) in records {
            match decode_result(&value).filter(|_| is_current_key(&key)) {
                // Later records supersede earlier ones for the same key
                // (compaction leaves one; a crashed compaction may leave
                // the append-order duplicates, which replay idempotently).
                // Replay touches no statistics: entries were counted by
                // the process that first solved them.
                Some(result) => {
                    let disk_bytes = record_size(&key, &value);
                    cache.memoize(key, result, disk_bytes);
                    cache.replayed += 1;
                }
                None => cache.undecodable += 1,
            }
        }
        Ok(cache)
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

    /// Hit/miss counters (replay does not count).
    pub fn stats(&self) -> TileCacheStats {
        self.stats
    }

    /// Whether a journal backs this cache.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// What journal recovery found on open (all zeros without a journal).
    pub fn recovery(&self) -> RecoveryStats {
        self.journal
            .as_ref()
            .map(Journal::recovery)
            .unwrap_or_default()
    }

    /// Journal records replayed into the map on open.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Journal records dropped on open because their value no longer
    /// decodes or their key predates this build's key format.
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Entries appended to the journal by this process.
    pub fn persisted(&self) -> u64 {
        self.persisted
    }

    /// Selects tiles, serving repeats from the cache. Failures are
    /// memoized too, so a JIT does not retry hopeless configurations.
    /// A newly solved committed result is journaled when a journal backs
    /// the cache; `select` has no way to report durability, so after a
    /// failed append (counted in the `journal.append_errors` trace
    /// counter) it still answers and memoizes, in memory only.
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
                let result = ModelGenerator::new(&self.arch, config.clone())
                    .build(program, Some(sizes))
                    .and_then(|model| model.solve());
                count_miss(&mut self.stats, &result);
                let disk_bytes =
                    append(&mut self.journal, &mut self.persisted, slot.key(), &result)
                        .unwrap_or(0);
                self.live_bytes += disk_bytes;
                slot.insert(Entry { result, disk_bytes })
            }
        };
        match &entry.result {
            Ok(solution) => Ok(solution),
            Err(e) => Err(e.clone()),
        }
    }

    /// Looks up a pre-encoded key (see [`encode_key`]), counting a hit
    /// when present. Absence counts nothing — the caller decides whether
    /// it becomes a miss (via [`TileCache::insert_key`]) or is abandoned.
    pub fn lookup_key(&mut self, key: &[u8]) -> Option<SelectResult> {
        let entry = self.entries.get(key)?;
        self.stats.hits += 1;
        Some(entry.result.clone())
    }

    /// Memoizes an externally computed result, counting a miss plus the
    /// infeasible/error classification — the counterpart to a
    /// [`TileCache::lookup_key`] that came back empty — and journaling it
    /// when it is a committed result and a journal backs the cache. The
    /// journal append happens *first*: if it fails, the entry is not
    /// served from memory either, so the cache never claims durability
    /// it does not have.
    ///
    /// # Errors
    ///
    /// Journal I/O failures (the map and the statistics are left
    /// unchanged); each one also bumps the `journal.append_errors` trace
    /// counter.
    pub fn insert_key(&mut self, key: Vec<u8>, result: SelectResult) -> io::Result<()> {
        let disk_bytes = append(&mut self.journal, &mut self.persisted, &key, &result)?;
        count_miss(&mut self.stats, &result);
        self.memoize(key, result, disk_bytes);
        Ok(())
    }

    /// Puts `result` in the map as the live entry for `key`, backed by a
    /// journal record of `disk_bytes`; the record it supersedes (if any)
    /// becomes garbage.
    fn memoize(&mut self, key: Vec<u8>, result: SelectResult, disk_bytes: u64) {
        let superseded = self
            .entries
            .insert(key, Entry { result, disk_bytes })
            .map_or(0, |old| old.disk_bytes);
        self.live_bytes = self.live_bytes + disk_bytes - superseded;
    }

    /// Rewrites the journal to exactly the live committed entries,
    /// dropping superseded duplicates, unreadable values and skipped
    /// corrupt regions. Does nothing without a journal.
    ///
    /// # Errors
    ///
    /// Journal I/O failures; the previous journal remains authoritative.
    pub fn compact(&mut self) -> io::Result<()> {
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        // The journal then holds exactly one record per committed entry:
        // re-anchor the accounting on what is written, so the garbage
        // ratio returns to 0.
        let mut live_bytes = 0;
        journal.compact(self.entries.iter_mut().filter_map(|(key, entry)| {
            let value = encode_result(&entry.result)?;
            entry.disk_bytes = record_size(key, &value);
            live_bytes += entry.disk_bytes;
            Some((key.as_slice(), value))
        }))?;
        self.live_bytes = live_bytes;
        Ok(())
    }

    /// Flushes OS buffers (meaningful under
    /// [`SyncPolicy::Never`](crate::SyncPolicy::Never)).
    ///
    /// # Errors
    ///
    /// Propagates fsync failures.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.journal {
            Some(journal) => journal.flush(),
            None => Ok(()),
        }
    }

    /// Total journal bytes on disk (0 without a journal).
    pub fn journal_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::bytes)
    }

    /// Bytes of the journal occupied by the latest record of each live
    /// key (0 without a journal).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Fraction of journal record bytes that a
    /// [`compact`](TileCache::compact) would reclaim: superseded records,
    /// undecodable values, old-format keys and checksum-skipped regions.
    /// 0 without a journal, or for an empty one.
    pub fn garbage_ratio(&self) -> f64 {
        let data = self.journal.as_ref().map_or(0, Journal::data_bytes);
        if data == 0 {
            return 0.0;
        }
        1.0 - self.live_bytes.min(data) as f64 / data as f64
    }
}

fn count_miss(stats: &mut TileCacheStats, result: &SelectResult) {
    stats.misses += 1;
    match result {
        Err(EatssError::Unsatisfiable { .. }) => stats.infeasible += 1,
        Err(_) => stats.errors += 1,
        Ok(_) => {}
    }
}

/// On-disk footprint of one journal record: prefix + key-length field +
/// key + value (see the record layout in [`crate::journal`]).
fn record_size(key: &[u8], value: &[u8]) -> u64 {
    RECORD_PREFIX_BYTES + 4 + key.len() as u64 + value.len() as u64
}

/// Appends `result` under `key` when there is a journal and the result
/// is committed, counting the record in `persisted`. Returns the size of
/// the record written — 0 when none was, because there is no journal or
/// nothing to persist.
fn append(
    journal: &mut Option<Journal>,
    persisted: &mut u64,
    key: &[u8],
    result: &SelectResult,
) -> io::Result<u64> {
    let Some(journal) = journal else {
        return Ok(0);
    };
    let Some(value) = encode_result(result) else {
        return Ok(0);
    };
    if let Err(e) = journal.append(key, &value) {
        eatss_trace::counter_add("journal.append_errors", 1);
        return Err(e);
    }
    *persisted += 1;
    Ok(record_size(key, &value))
}

/// Format byte opening every key [`encode_key`] writes. Keys from before
/// it existed open with the low byte of the architecture name's length
/// (4–6 for the builtin profiles); the high bit keeps the two apart, so a
/// journal record keyed under an older encoding can never answer a
/// lookup. Bump it whenever the encoding below changes meaning.
const KEY_FORMAT: u8 = 0x81;

/// Whether `key` was written by this build's [`encode_key`] — journal
/// replay drops records for which it was not.
fn is_current_key(key: &[u8]) -> bool {
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
        .position(|&a| a == &*r.array)
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
    use crate::journal::HEADER_BYTES;
    use eatss_affine::parser::parse_program;
    use std::path::PathBuf;

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

    fn gemm() -> Program {
        mm(("C", "A", "B"))
    }

    fn sizes(n: i64) -> ProblemSizes {
        ProblemSizes::new([("M", n), ("N", n), ("P", n)])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eatss-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> TileCache {
        TileCache::open(dir, GpuArch::ga100(), JournalConfig::default()).unwrap()
    }

    /// Runs `body` over both constructions, in memory and over a journal
    /// in a fresh directory: what a cache answers and counts must not
    /// depend on whether it is durable.
    fn both_constructions(tag: &str, body: impl Fn(&mut TileCache)) {
        let mut in_memory = TileCache::new(GpuArch::ga100());
        body(&mut in_memory);
        assert!(!in_memory.is_durable());
        assert_eq!((in_memory.persisted(), in_memory.journal_bytes()), (0, 0));
        assert_eq!(
            (in_memory.live_bytes(), in_memory.garbage_ratio()),
            (0, 0.0)
        );
        in_memory.flush().unwrap();
        in_memory.compact().unwrap();

        let dir = temp_dir(tag);
        let mut journaled = open(&dir);
        body(&mut journaled);
        assert!(journaled.is_durable());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_requests_hit() {
        both_constructions("repeat", |cache| {
            let cfg = EatssConfig::default();
            let a = cache.select(&gemm(), &sizes(2000), &cfg).unwrap().clone();
            for _ in 0..5 {
                let b = cache.select(&gemm(), &sizes(2000), &cfg).unwrap();
                assert_eq!(a.tiles, b.tiles);
            }
            assert_eq!(cache.stats().misses, 1);
            assert_eq!(cache.stats().hits, 5);
            assert_eq!(cache.len(), 1);
        });
    }

    #[test]
    fn jit_fresh_names_share_an_entry() {
        both_constructions("fresh-names", |cache| {
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
        });
    }

    #[test]
    fn different_sizes_and_configs_miss() {
        both_constructions("distinct", |cache| {
            let cfg = EatssConfig::default();
            let _ = cache.select(&gemm(), &sizes(2000), &cfg).unwrap();
            let _ = cache.select(&gemm(), &sizes(1000), &cfg).unwrap();
            let _ = cache
                .select(&gemm(), &sizes(2000), &EatssConfig::with_split(0.0))
                .unwrap();
            assert_eq!(cache.stats().misses, 3);
            assert_eq!(cache.stats().hits, 0);
        });
    }

    #[test]
    fn infeasibility_is_memoized() {
        both_constructions("infeasible", |cache| {
            let cfg = EatssConfig::default(); // WAF 16 > extents of 8
            assert!(cache.select(&gemm(), &sizes(8), &cfg).is_err());
            assert!(cache.select(&gemm(), &sizes(8), &cfg).is_err());
            let stats = cache.stats();
            assert_eq!(stats.misses, 1);
            assert_eq!(stats.hits, 1);
            assert_eq!(stats.infeasible, 1);
            assert_eq!(stats.errors, 0, "unsatisfiable is not a pipeline error");
        });
    }

    #[test]
    fn pipeline_errors_are_counted_separately() {
        both_constructions("errors", |cache| {
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
            assert_eq!(cache.persisted(), 0, "transient errors are never journaled");
        });
    }

    #[test]
    fn distinct_architectures_do_not_alias() {
        // ga100 and a hypothetical variant differing only in sm_count or
        // the threads/block cap must produce different keys.
        let cfg = EatssConfig::default();
        let base = GpuArch::ga100();
        let mut fewer_sms = base.clone();
        fewer_sms.sm_count = 1;
        let mut smaller_blocks = base.clone();
        smaller_blocks.max_threads_per_block = 128;
        let k0 = encode_key(&base, &gemm(), &sizes(2000), &cfg);
        assert_ne!(k0, encode_key(&fewer_sms, &gemm(), &sizes(2000), &cfg));
        assert_ne!(k0, encode_key(&smaller_blocks, &gemm(), &sizes(2000), &cfg));
    }

    #[test]
    fn warm_start_across_reopen() {
        let dir = temp_dir("warm");
        let cfg = EatssConfig::default();
        let first = {
            let mut cache = open(&dir);
            let s = cache.select(&gemm(), &sizes(2000), &cfg).unwrap().clone();
            assert_eq!(cache.stats().misses, 1);
            assert_eq!(cache.persisted(), 1);
            s
        };
        let mut cache = open(&dir);
        assert_eq!(cache.replayed(), 1);
        assert_eq!(cache.len(), 1);
        let again = cache.select(&gemm(), &sizes(2000), &cfg).unwrap().clone();
        // Warm start: a hit, not a re-solve, and bitwise-identical tiles.
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
        assert_eq!(again.tiles.sizes(), first.tiles.sizes());
        assert_eq!(again.objective, first.objective);
        // Durations persist at microsecond granularity; the *encoded*
        // forms must match bitwise.
        assert_eq!(
            encode_result(&Ok(again)).unwrap(),
            encode_result(&Ok(first)).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn infeasibility_is_persisted_and_warm_hits() {
        let dir = temp_dir("warm-infeasible");
        let cfg = EatssConfig::default(); // WAF 16 > extents of 8
        {
            let mut cache = open(&dir);
            let e = cache.select(&gemm(), &sizes(8), &cfg).unwrap_err();
            assert!(matches!(e, EatssError::Unsatisfiable { .. }));
            assert_eq!(cache.stats().infeasible, 1);
        }
        let mut cache = open(&dir);
        let e = cache.select(&gemm(), &sizes(8), &cfg).unwrap_err();
        assert!(matches!(e, EatssError::Unsatisfiable { .. }));
        // Served from the warm map: a hit, no solver run.
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_ratio_tracks_superseded_records_and_compaction() {
        let dir = temp_dir("garbage");
        let cfg = EatssConfig::default();
        let mut cache = open(&dir);
        assert_eq!(cache.garbage_ratio(), 0.0);
        let s = cache.select(&gemm(), &sizes(2000), &cfg).unwrap().clone();
        // One live record, zero garbage; accounting matches the disk.
        assert_eq!(cache.garbage_ratio(), 0.0);
        assert!(cache.live_bytes() > 0);
        assert_eq!(cache.journal_bytes(), HEADER_BYTES + cache.live_bytes());

        // Re-journaling the same key supersedes the first record: the
        // two equal-size records make the ratio exactly 1/2.
        let key = encode_key(&GpuArch::ga100(), &gemm(), &sizes(2000), &cfg);
        cache.insert_key(key, Ok(s)).unwrap();
        assert!(
            (cache.garbage_ratio() - 0.5).abs() < 1e-9,
            "{}",
            cache.garbage_ratio()
        );

        // Reopen sees the same ratio (replay keeps only the latest).
        drop(cache);
        let mut cache = open(&dir);
        assert_eq!(cache.replayed(), 2);
        assert_eq!(cache.len(), 1);
        assert!((cache.garbage_ratio() - 0.5).abs() < 1e-9);

        // Compaction reclaims the superseded record.
        cache.compact().unwrap();
        assert_eq!(cache.garbage_ratio(), 0.0);
        assert!(cache.live_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_keys_are_skipped_at_replay_and_reclaimed_by_compact() {
        let dir = temp_dir("old-key");
        let cfg = EatssConfig::default();
        let key = encode_key(&GpuArch::ga100(), &gemm(), &sizes(2000), &cfg);
        // What a build before the key-format byte left behind: a valid
        // record under a key that opens with the arch-name length.
        let old_key = &key[1..];
        {
            let mut cache = open(&dir);
            let s = cache.select(&gemm(), &sizes(2000), &cfg).unwrap().clone();
            cache.insert_key(old_key.to_vec(), Ok(s)).unwrap();
        }
        let mut cache = open(&dir);
        assert_eq!(
            (cache.replayed(), cache.undecodable(), cache.len()),
            (1, 1, 1)
        );
        assert!(cache.lookup_key(old_key).is_none(), "never served");
        assert!(cache.lookup_key(&key).is_some());
        assert!(cache.garbage_ratio() > 0.4, "{}", cache.garbage_ratio());
        cache.compact().unwrap();
        assert_eq!(cache.garbage_ratio(), 0.0);
        drop(cache);
        let cache = open(&dir);
        assert_eq!((cache.replayed(), cache.undecodable()), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_fails_insert_key_and_leaves_select_in_memory_only() {
        let dir = temp_dir("append-error");
        let tiny = JournalConfig {
            max_record_bytes: 8,
            ..JournalConfig::default()
        };
        let mut cache = TileCache::open(&dir, GpuArch::ga100(), tiny).unwrap();
        let cfg = EatssConfig::default();
        // Durability before visibility: `insert_key` reports the failed
        // append and memoizes nothing.
        let key = encode_key(&GpuArch::ga100(), &gemm(), &sizes(8), &cfg);
        let infeasible = Err(EatssError::Unsatisfiable { reason: "r".into() });
        let err = cache.insert_key(key, infeasible).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!((cache.len(), cache.stats().misses), (0, 0));
        // `select` cannot report durability: it answers, keeps the
        // answer in memory, and the repeat is a hit rather than a re-solve.
        cache.select(&gemm(), &sizes(2000), &cfg).unwrap();
        assert_eq!((cache.persisted(), cache.len()), (0, 1));
        cache.select(&gemm(), &sizes(2000), &cfg).unwrap();
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
        assert_eq!((cache.live_bytes(), cache.garbage_ratio()), (0, 0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
