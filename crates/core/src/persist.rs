//! A [`TileCache`] that survives restarts — and `kill -9`.
//!
//! [`PersistentTileCache`] pairs the in-memory cache with the sharded
//! append-only [`Journal`]: every
//! *committed* result (a proved-optimal solution or a proved
//! infeasibility) is appended to disk before it is served, and opening
//! the cache replays the journal to warm-start the index. Anytime
//! (budget-limited) and fallback selections are served but never
//! persisted — a later request with a larger budget must be able to
//! improve on them.
//!
//! The value encoding is deliberately dumb: fixed-width little-endian
//! fields, no varints, one format version byte. A value that fails to
//! decode (a corrupt record that slipped past the journal checksum, or a
//! future format) is counted and skipped, never trusted — and so is a
//! record whose *key* is not in this build's [`encode_key`] format: no
//! lookup could name it, and a key written under an older encoding may
//! describe a different kernel than the same bytes would today.

use crate::cache::{encode_key, is_current_key, solve, SelectResult, TileCache, TileCacheStats};
use crate::config::EatssConfig;
use crate::journal::{fnv1a64, Journal, JournalConfig, RecoveryStats, RECORD_PREFIX_BYTES};
use crate::model::{EatssError, EatssSolution, SolutionProvenance};
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_smt::SolverStats;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Version byte opening every encoded value. Bumped to 2 when the
/// warm-start counters joined [`SolverStats`]; version-1 journal entries
/// decode to `None` and are re-solved on the next miss.
const VALUE_VERSION: u8 = 2;
/// Value tags.
const TAG_SOLUTION: u8 = 0;
const TAG_INFEASIBLE: u8 = 1;

/// Whether a result is *committed* — a fully solved selection or a
/// proved infeasibility — and therefore worth keeping. Anytime/fallback
/// solutions (a bigger budget could beat them) and transient errors
/// (faults, exhaustion — retrying may succeed) are not.
pub fn is_committed(result: &SelectResult) -> bool {
    match result {
        Ok(s) => s.provenance == SolutionProvenance::Solved,
        Err(e) => matches!(e, EatssError::Unsatisfiable { .. }),
    }
}

/// Encodes a cache result for the journal. Returns `None` for results
/// that are not [committed](is_committed) and so must not be persisted.
pub fn encode_result(result: &SelectResult) -> Option<Vec<u8>> {
    let mut v = Vec::with_capacity(160);
    v.push(VALUE_VERSION);
    match result {
        Ok(s) if s.provenance == SolutionProvenance::Solved => {
            v.push(TAG_SOLUTION);
            let sizes = s.tiles.sizes();
            v.extend_from_slice(&(sizes.len() as u32).to_le_bytes());
            for &t in sizes {
                v.extend_from_slice(&t.to_le_bytes());
            }
            v.extend_from_slice(&s.objective.to_le_bytes());
            v.extend_from_slice(&s.solver_calls.to_le_bytes());
            v.extend_from_slice(&(s.solve_time.as_micros() as u64).to_le_bytes());
            v.push(u8::from(s.optimal));
            for c in s.stats.values() {
                v.extend_from_slice(&c.to_le_bytes());
            }
            Some(v)
        }
        Err(EatssError::Unsatisfiable { reason }) => {
            v.push(TAG_INFEASIBLE);
            v.extend_from_slice(&(reason.len() as u32).to_le_bytes());
            v.extend_from_slice(reason.as_bytes());
            Some(v)
        }
        _ => None,
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }
}

/// Decodes a journaled value. `None` means the bytes are not a valid
/// persisted result (corrupt or from the future) — the entry is dropped.
pub fn decode_result(bytes: &[u8]) -> Option<SelectResult> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.u8()? != VALUE_VERSION {
        return None;
    }
    let result = match c.u8()? {
        TAG_SOLUTION => {
            let n = c.u32()? as usize;
            if n > 64 {
                return None; // no kernel is 64-deep; reject garbage early
            }
            let mut sizes = Vec::with_capacity(n);
            for _ in 0..n {
                sizes.push(c.i64()?);
            }
            let objective = c.i64()?;
            let solver_calls = c.u32()?;
            let solve_time = Duration::from_micros(c.u64()?);
            let optimal = match c.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let mut counters = [0u64; SolverStats::NAMES.len()];
            for slot in &mut counters {
                *slot = c.u64()?;
            }
            Ok(EatssSolution {
                tiles: TileConfig::new(sizes),
                objective,
                solver_calls,
                solve_time,
                optimal,
                provenance: SolutionProvenance::Solved,
                stats: SolverStats::from_values(counters),
            })
        }
        TAG_INFEASIBLE => {
            let len = c.u32()? as usize;
            let reason = String::from_utf8(c.take(len)?.to_vec()).ok()?;
            Err(EatssError::Unsatisfiable { reason })
        }
        _ => return None,
    };
    if c.pos != bytes.len() {
        return None; // trailing bytes ⇒ not something this version wrote
    }
    Some(result)
}

/// A journaled, warm-starting tile cache.
///
/// All of [`TileCache`]'s semantics carry over — full structural keys,
/// hit/miss/infeasible statistics — plus:
///
/// * committed results (optimal solutions, proved infeasibilities) are
///   appended to an on-disk journal *before* they are served, so an `Ok`
///   response implies durability (under
///   [`SyncPolicy::Always`](crate::journal::SyncPolicy::Always));
/// * opening the cache replays the journal, warm-starting the index
///   across restarts and hard kills;
/// * [`PersistentTileCache::compact`] rewrites the journal to the live
///   entry set, atomically.
#[derive(Debug)]
pub struct PersistentTileCache {
    mem: TileCache,
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

/// On-disk footprint of one journal record: prefix + key-length field +
/// key + value (see the record layout in [`crate::journal`]).
fn record_size(key: &[u8], value: &[u8]) -> u64 {
    RECORD_PREFIX_BYTES + 4 + key.len() as u64 + value.len() as u64
}

impl PersistentTileCache {
    /// Opens (or creates) a journaled cache in `dir`, replaying every
    /// committed entry.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O and format errors — see
    /// [`Journal::open`](crate::journal::Journal::open).
    pub fn open(dir: &Path, arch: GpuArch, config: JournalConfig) -> io::Result<Self> {
        let (journal, records) = Journal::open(dir, config)?;
        let mut mem = TileCache::new(arch);
        let mut replayed = 0;
        let mut undecodable = 0;
        let mut live_bytes = 0u64;
        for (key, value) in records {
            match decode_result(&value).filter(|_| is_current_key(&key)) {
                // Later records supersede earlier ones for the same key
                // (compaction leaves one; a crashed compaction may leave
                // the append-order duplicates, which replay idempotently).
                Some(result) => {
                    let size = record_size(&key, &value);
                    live_bytes = live_bytes + size - mem.replay_key(key, result, size);
                    replayed += 1;
                }
                None => undecodable += 1,
            }
        }
        Ok(PersistentTileCache {
            mem,
            journal: Some(journal),
            replayed,
            undecodable,
            persisted: 0,
            live_bytes,
        })
    }

    /// An in-memory cache with the same interface and no journal — for
    /// callers that want one code path with durability as a config knob.
    pub fn ephemeral(arch: GpuArch) -> Self {
        PersistentTileCache {
            mem: TileCache::new(arch),
            journal: None,
            replayed: 0,
            undecodable: 0,
            persisted: 0,
            live_bytes: 0,
        }
    }

    /// Whether a journal backs this cache.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// What journal recovery found on open (all zeros for ephemeral).
    pub fn recovery(&self) -> RecoveryStats {
        self.journal.as_ref().map(Journal::recovery).unwrap_or_default()
    }

    /// Journal records replayed into the index on open.
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

    /// Hit/miss counters (replay does not count).
    pub fn stats(&self) -> TileCacheStats {
        self.mem.stats()
    }

    /// Number of memoized formulations.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// Whether nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Looks up a pre-encoded key, counting a hit when present.
    pub fn lookup_key(&mut self, key: &[u8]) -> Option<SelectResult> {
        self.mem.lookup_key(key)
    }

    /// Inserts an externally computed result, counting a miss (plus the
    /// infeasible/error classification) and journaling it when it is a
    /// committed result. The journal append happens *first*: if it fails,
    /// the entry is not served from memory either, so the cache never
    /// claims durability it does not have.
    ///
    /// # Errors
    ///
    /// Journal I/O failures (the in-memory index is left unchanged);
    /// each one also bumps the `journal.append_errors` trace counter.
    pub fn insert_key(&mut self, key: Vec<u8>, result: SelectResult) -> io::Result<()> {
        let mut size = 0;
        if let Some(journal) = &mut self.journal {
            if let Some(value) = encode_result(&result) {
                if let Err(e) = journal.append(fnv1a64(&key), &key, &value) {
                    eatss_trace::counter_add("journal.append_errors", 1);
                    return Err(e);
                }
                self.persisted += 1;
                size = record_size(&key, &value);
            }
        }
        // The new record is the live one for its key; the one it
        // supersedes (if any) becomes garbage.
        self.live_bytes = self.live_bytes + size - self.mem.insert_key(key, result, size);
        Ok(())
    }

    /// Selects tiles through the cache, journaling newly solved
    /// committed results. Same memoization semantics as
    /// [`TileCache::select`].
    ///
    /// # Errors
    ///
    /// The (possibly cached) [`EatssError`], like [`TileCache::select`].
    /// A journal write failure does not fail the selection — the solve
    /// already succeeded — but, as with
    /// [`PersistentTileCache::insert_key`], the result is then not
    /// memoized either: the next request solves and appends again, and
    /// the failure shows in the `journal.append_errors` trace counter.
    pub fn select(
        &mut self,
        program: &Program,
        sizes: &ProblemSizes,
        config: &EatssConfig,
    ) -> SelectResult {
        let key = encode_key(self.mem.arch(), program, sizes, config);
        if let Some(cached) = self.mem.lookup_key(&key) {
            return cached;
        }
        let result = solve(self.mem.arch(), program, sizes, config);
        // An append failure is counted by `insert_key`; see `# Errors`.
        let _ = self.insert_key(key, result.clone());
        result
    }

    /// Rewrites the journal to exactly the live committed entries,
    /// dropping superseded duplicates and unreadable values (and moving
    /// every record to the shard its key routes to under this build).
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
        journal.compact(self.mem.entries_mut().filter_map(|(key, entry)| {
            let value = encode_result(&entry.result)?;
            entry.disk_bytes = record_size(key, &value);
            live_bytes += entry.disk_bytes;
            Some((fnv1a64(key), key, value))
        }))?;
        self.live_bytes = live_bytes;
        Ok(())
    }

    /// Flushes OS buffers (meaningful under
    /// [`SyncPolicy::Never`](crate::journal::SyncPolicy::Never)).
    ///
    /// # Errors
    ///
    /// Propagates fsync failures.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.journal {
            Some(j) => j.flush(),
            None => Ok(()),
        }
    }

    /// Total journal bytes on disk (0 for ephemeral).
    pub fn journal_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::bytes)
    }

    /// Bytes of the journal occupied by the latest record of each live
    /// key (0 for ephemeral).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Fraction of journal record bytes that a
    /// [`compact`](PersistentTileCache::compact) would reclaim: superseded records,
    /// undecodable values, old-format keys and checksum-skipped regions. 0 for an
    /// ephemeral or empty journal.
    pub fn garbage_ratio(&self) -> f64 {
        let Some(journal) = &self.journal else {
            return 0.0;
        };
        let data = journal.data_bytes();
        if data == 0 {
            return 0.0;
        }
        1.0 - self.live_bytes.min(data) as f64 / data as f64
    }

    /// Per-shard journal file sizes, headers included (empty for
    /// ephemeral).
    pub fn shard_bytes(&self) -> Vec<u64> {
        self.journal.as_ref().map(Journal::shard_bytes).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eatss_affine::parser::parse_program;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eatss-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mm() -> Program {
        parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        )
        .unwrap()
    }

    fn sizes(n: i64) -> ProblemSizes {
        ProblemSizes::new([("M", n), ("N", n), ("P", n)])
    }

    #[test]
    fn warm_start_across_reopen() {
        let dir = temp_dir("warm");
        let cfg = EatssConfig::default();
        let first = {
            let mut cache =
                PersistentTileCache::open(&dir, GpuArch::ga100(), JournalConfig::default())
                    .unwrap();
            let s = cache.select(&mm(), &sizes(2000), &cfg).unwrap();
            assert_eq!(cache.stats().misses, 1);
            assert_eq!(cache.persisted(), 1);
            s
        };
        let mut cache =
            PersistentTileCache::open(&dir, GpuArch::ga100(), JournalConfig::default()).unwrap();
        assert_eq!(cache.replayed(), 1);
        assert_eq!(cache.len(), 1);
        let again = cache.select(&mm(), &sizes(2000), &cfg).unwrap();
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
        let dir = temp_dir("infeasible");
        let cfg = EatssConfig::default(); // WAF 16 > extents of 8
        {
            let mut cache =
                PersistentTileCache::open(&dir, GpuArch::ga100(), JournalConfig::default())
                    .unwrap();
            let e = cache.select(&mm(), &sizes(8), &cfg).unwrap_err();
            assert!(matches!(e, EatssError::Unsatisfiable { .. }));
            assert_eq!(cache.stats().infeasible, 1);
        }
        let mut cache =
            PersistentTileCache::open(&dir, GpuArch::ga100(), JournalConfig::default()).unwrap();
        let e = cache.select(&mm(), &sizes(8), &cfg).unwrap_err();
        assert!(matches!(e, EatssError::Unsatisfiable { .. }));
        // Served from the warm index: a hit, no solver run.
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_codec_round_trips() {
        // What the build before `SolverStats` generated its own codec
        // order wrote for this solution: journals written by any
        // version-2 build must keep replaying, so these bytes may only
        // change together with `VALUE_VERSION`.
        const GOLDEN: &str = "0200030000001000000000000000800100000000000001000000000000001018\
             00000000000009000000d2040000000000000101000000000000000200000000\
             0000000300000000000000040000000000000005000000000000000600000000\
             0000000700000000000000080000000000000009000000000000000a00000000\
             0000000b000000000000000c000000000000000d000000000000000e00000000\
             0000000f00000000000000";
        let solution = EatssSolution {
            tiles: TileConfig::new(vec![16, 384, 1]),
            objective: 6160,
            solver_calls: 9,
            solve_time: Duration::from_micros(1234),
            optimal: true,
            provenance: SolutionProvenance::Solved,
            stats: SolverStats {
                checks: 1,
                nodes: 2,
                propagations: 3,
                values_pruned: 4,
                backtracks: 5,
                node_limit_hits: 6,
                deadline_hits: 7,
                cancellations: 8,
                bound_prunes: 9,
                hull_rebuilds: 10,
                warm_seeds: 11,
                warm_cut_hits: 12,
                solve_time: Duration::from_micros(13),
                propagation_time: Duration::from_micros(14),
                search_time: Duration::from_micros(15),
            },
        };
        assert!(is_committed(&Ok(solution.clone())));
        let encoded = encode_result(&Ok(solution.clone())).unwrap();
        let hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        let decoded = decode_result(&encoded).unwrap().unwrap();
        assert_eq!(decoded.tiles.sizes(), solution.tiles.sizes());
        assert_eq!(decoded.objective, solution.objective);
        assert_eq!(decoded.solver_calls, solution.solver_calls);
        assert_eq!(decoded.solve_time, solution.solve_time);
        assert_eq!(decoded.optimal, solution.optimal);
        assert_eq!(decoded.provenance, solution.provenance);
        assert_eq!(decoded.stats, solution.stats);

        let reason = "WAF 16 exceeds extent 8";
        let infeasible = Err(EatssError::Unsatisfiable {
            reason: reason.into(),
        });
        let decoded = decode_result(&encode_result(&infeasible).unwrap()).unwrap();
        assert_eq!(
            decoded.unwrap_err(),
            EatssError::Unsatisfiable {
                reason: reason.into()
            }
        );
    }

    #[test]
    fn non_committed_results_are_not_persisted() {
        // Anytime and fallback solutions, and transient errors, stay out
        // of the journal.
        let mut anytime = EatssSolution::ppcg_default(3);
        anytime.provenance = SolutionProvenance::SolvedIncomplete;
        for result in [
            Ok(anytime),
            Ok(EatssSolution::ppcg_default(3)),
            Err(EatssError::Exhausted {
                reason: "deadline".into(),
            }),
            Err(EatssError::EmptyProgram),
        ] {
            assert!(!is_committed(&result) && encode_result(&result).is_none());
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let encoded = encode_result(&Err(EatssError::Unsatisfiable {
            reason: "r".into(),
        }))
        .unwrap();
        for cut in 0..encoded.len() {
            assert!(decode_result(&encoded[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(decode_result(&padded).is_none());
        assert!(decode_result(&[]).is_none());
        assert!(decode_result(&[9, 9, 9]).is_none());
    }

    #[test]
    fn garbage_ratio_tracks_superseded_records_and_compaction() {
        let dir = temp_dir("garbage");
        let cfg = EatssConfig::default();
        let mut cache =
            PersistentTileCache::open(&dir, GpuArch::ga100(), JournalConfig::default()).unwrap();
        assert_eq!(cache.garbage_ratio(), 0.0);
        let s = cache.select(&mm(), &sizes(2000), &cfg).unwrap();
        // One live record, zero garbage; accounting matches the disk.
        assert_eq!(cache.garbage_ratio(), 0.0);
        assert!(cache.live_bytes() > 0);
        assert_eq!(cache.shard_bytes().len(), JournalConfig::default().shards as usize);

        // Re-journaling the same key supersedes the first record: the
        // two equal-size records make the ratio exactly 1/2.
        let key = encode_key(&GpuArch::ga100(), &mm(), &sizes(2000), &cfg);
        cache.insert_key(key, Ok(s)).unwrap();
        assert!((cache.garbage_ratio() - 0.5).abs() < 1e-9, "{}", cache.garbage_ratio());

        // Reopen sees the same ratio (replay keeps only the latest).
        drop(cache);
        let mut cache =
            PersistentTileCache::open(&dir, GpuArch::ga100(), JournalConfig::default()).unwrap();
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
        let open =
            || PersistentTileCache::open(&dir, GpuArch::ga100(), JournalConfig::default()).unwrap();
        let key = encode_key(&GpuArch::ga100(), &mm(), &sizes(2000), &cfg);
        // What a build before the key-format byte left behind: a valid
        // record under a key that opens with the arch-name length.
        let old_key = &key[1..];
        {
            let mut cache = open();
            let s = cache.select(&mm(), &sizes(2000), &cfg).unwrap();
            cache.insert_key(old_key.to_vec(), Ok(s)).unwrap();
        }
        let mut cache = open();
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
        let cache = open();
        assert_eq!((cache.replayed(), cache.undecodable()), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_routing_is_pinned_to_fnv1a() {
        // Routing must not move between toolchains (std's default hasher
        // may): FNV-1a 64 of the key, modulo the shard count.
        let key = b"eatss/shard-routing-pin".to_vec();
        assert_eq!(fnv1a64(&key), 0x289b_d277_f541_ca79);
        let dir = temp_dir("route");
        let mut cache =
            PersistentTileCache::open(&dir, GpuArch::ga100(), JournalConfig::default()).unwrap();
        let empty = cache.shard_bytes();
        let infeasible = Err(EatssError::Unsatisfiable { reason: "r".into() });
        cache.insert_key(key, infeasible).unwrap();
        let grown: Vec<usize> = (0..empty.len())
            .filter(|&i| cache.shard_bytes()[i] > empty[i])
            .collect();
        assert_eq!(grown, [1], "0x…ca79 % 8 shards");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_is_not_memoized() {
        let dir = temp_dir("append-error");
        let tiny = JournalConfig {
            max_record_bytes: 8,
            ..JournalConfig::default()
        };
        let mut cache = PersistentTileCache::open(&dir, GpuArch::ga100(), tiny).unwrap();
        let cfg = EatssConfig::default();
        // The solve succeeds and is returned, but the entry is neither
        // journaled nor served from memory.
        cache.select(&mm(), &sizes(2000), &cfg).unwrap();
        cache.select(&mm(), &sizes(2000), &cfg).unwrap();
        assert_eq!((cache.persisted(), cache.len(), cache.stats().hits), (0, 0, 0));
        let key = encode_key(&GpuArch::ga100(), &mm(), &sizes(8), &cfg);
        let infeasible = Err(EatssError::Unsatisfiable { reason: "r".into() });
        let err = cache.insert_key(key, infeasible).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!((cache.live_bytes(), cache.garbage_ratio()), (0, 0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ephemeral_cache_works_without_a_directory() {
        let mut cache = PersistentTileCache::ephemeral(GpuArch::ga100());
        assert!(!cache.is_durable());
        let cfg = EatssConfig::default();
        cache.select(&mm(), &sizes(2000), &cfg).unwrap();
        cache.select(&mm(), &sizes(2000), &cfg).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.persisted(), 0);
        assert_eq!(cache.journal_bytes(), 0);
        assert_eq!(cache.live_bytes(), 0);
        assert_eq!(cache.garbage_ratio(), 0.0);
        assert!(cache.shard_bytes().is_empty());
        cache.flush().unwrap();
        cache.compact().unwrap();
    }
}
