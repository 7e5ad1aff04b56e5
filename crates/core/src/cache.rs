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
//! same entries. With a journal every *committed* result (a
//! proved-optimal solution or a proved infeasibility — see
//! [`is_committed`](crate::persist::is_committed)) is appended to disk
//! when it is memoized, and opening the cache replays the journal to
//! warm-start it. Anytime (budget-limited) and fallback selections are
//! served but never persisted — a later request with a larger budget
//! must be able to improve on them. Replay skips, and counts, any record
//! whose value does not decode or whose *key* is not in this build's
//! [`encode_key`] format: no lookup could name it, and a key written
//! under an older encoding may describe a different kernel than the same
//! bytes would today.
//!
//! # Memory
//!
//! At most [`RESIDENT_CAP`] entries are held in memory, key and result,
//! under CLOCK (second-chance) replacement: a hit sets the entry's
//! reference bit, and when a new entry needs a slot the clock hand
//! clears set bits until it reaches an entry whose bit is clear, which is
//! evicted. An evicted *journaled* entry keeps only the offset of its
//! record in `journal.log`, indexed by the FNV-1a 64 fingerprint of its
//! key (8 + 8 bytes in a hash map); a lookup that lands on one reads the
//! record back with a positional read, checks its checksum, compares the
//! full key, and makes it resident again. Keys that share a fingerprint
//! are all kept and all compared. Every other evicted entry — an
//! uncommitted result, or any entry of an in-memory cache — is dropped,
//! and is solved again if it is asked for. Replay indexes every record
//! and makes none resident: the first lookup of each reads it back.

use crate::config::EatssConfig;
use crate::journal::{Journal, JournalConfig, Live, Record, RecoveryStats, RECORD_PREFIX_BYTES};
use crate::model::{EatssError, EatssSolution, ModelGenerator};
use crate::persist::{decode_result, encode_result};
use eatss_affine::ir::{ArrayRef, Extent, RhsExpr};
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_trace::fnv1a64;
use std::collections::hash_map::{Entry as Slot, HashMap};
use std::io;
use std::path::Path;

/// Entries a [`TileCache`] holds in memory at most. Enough for the
/// working set of a JIT that recompiles a few hundred kernel shapes; an
/// entry costs its key (about 100–650 bytes for the registry kernels)
/// and its result (about 250 bytes).
pub const RESIDENT_CAP: usize = 1024;

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

/// Where a journal record lies.
#[derive(Debug, Clone, Copy)]
struct Disk {
    offset: u64,
    bytes: u64,
}

/// One memoized selection held in memory.
#[derive(Debug)]
struct Resident {
    key: Vec<u8>,
    fingerprint: u64,
    result: SelectResult,
    /// The journal record backing this entry; `None` when it lives in
    /// memory only, and is dropped on eviction.
    disk: Option<Disk>,
    /// CLOCK's reference bit: set by a hit, cleared as the hand passes.
    referenced: bool,
}

/// Where an indexed entry lives: a resident slot (top bit set), or the
/// journal offset of its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc(u64);

impl Loc {
    const RESIDENT: u64 = 1 << 63;

    fn resident(slot: usize) -> Loc {
        Loc(Loc::RESIDENT | slot as u64)
    }

    fn slot(self) -> Option<usize> {
        (self.0 & Loc::RESIDENT != 0).then_some((self.0 & !Loc::RESIDENT) as usize)
    }
}

/// Which index entry of a fingerprint: the map's, or one of the
/// colliding ones beside it.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Primary,
    Collision(usize),
}

/// An entry found by key.
enum Found {
    Resident(usize),
    /// Evicted: its record, read back, and the record's offset.
    Evicted(Record, u64),
}

/// A memoizing front end over the EATSS pipeline for JIT-style use.
///
/// With a journal ([`TileCache::open`]) the same semantics hold — full
/// structural keys, hit/miss/infeasible statistics — plus:
///
/// * committed results are appended to the on-disk journal *before*
///   [`TileCache::insert_key`] memoizes them, so an `Ok` from it implies
///   durability (under [`SyncPolicy::Always`](crate::SyncPolicy::Always));
/// * opening the cache replays the journal, warm-starting it across
///   restarts and hard kills;
/// * entries evicted from memory stay findable through the journal (see
///   the [module docs](self));
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
    /// Every entry by its key's fingerprint; a second entry under one
    /// fingerprint goes to `collisions`.
    index: HashMap<u64, Loc>,
    /// Entries whose fingerprint `index` already maps to another entry.
    collisions: Vec<(u64, Loc)>,
    /// The resident entries, at most [`RESIDENT_CAP`].
    slots: Vec<Resident>,
    /// The CLOCK hand: the next slot considered for eviction.
    hand: usize,
    /// The key fingerprint ([`fnv1a64`]; a test may force collisions).
    fingerprint: fn(&[u8]) -> u64,
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
    /// On-disk bytes of the *latest* record per key, maintained
    /// incrementally. Superseded records, undecodable values and corrupt
    /// skipped bytes are the complement: garbage.
    live_bytes: u64,
}

impl TileCache {
    /// Creates an empty in-memory cache for one target architecture.
    pub fn new(arch: GpuArch) -> Self {
        TileCache {
            arch,
            index: HashMap::new(),
            collisions: Vec::new(),
            slots: Vec::new(),
            hand: 0,
            fingerprint: fnv1a64,
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
        TileCache::open_with(dir, arch, config, fnv1a64)
    }

    fn open_with(
        dir: &Path,
        arch: GpuArch,
        config: JournalConfig,
        fingerprint: fn(&[u8]) -> u64,
    ) -> io::Result<Self> {
        let mut cache = TileCache {
            fingerprint,
            ..TileCache::new(arch)
        };
        // Records whose fingerprint is already indexed: a later record
        // for the same key (a crashed compaction may leave append-order
        // duplicates, which replay idempotently) or a collision. Telling
        // the two apart takes the earlier record's key, read back once
        // the journal is open.
        let mut shared = Vec::new();
        let journal = Journal::open(dir, config, |offset, key, value| {
            if !is_current_key(key) || decode_result(value).is_none() {
                cache.undecodable += 1;
                return;
            }
            // Replay touches no statistics: entries were counted by the
            // process that first solved them.
            cache.replayed += 1;
            cache.live_bytes += record_size(key, value);
            let fp = fingerprint(key);
            match cache.index.entry(fp) {
                Slot::Vacant(slot) => {
                    slot.insert(Loc(offset));
                }
                Slot::Occupied(_) => shared.push((fp, offset)),
            }
        })?;
        cache.journal = Some(journal);
        for (fp, offset) in shared {
            let Some(record) = cache.read(offset) else {
                continue;
            };
            match cache.find(fp, record.key()) {
                // Later records supersede earlier ones for the same key.
                Some((pos, Found::Evicted(old, _))) => {
                    cache.live_bytes -= old.disk_bytes();
                    cache.set(fp, pos, Loc(offset));
                }
                _ => cache.collisions.push((fp, Loc(offset))),
            }
        }
        Ok(cache)
    }

    /// The architecture this cache solves for.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Number of memoized formulations (feasible or not), resident or
    /// evicted to the journal.
    pub fn len(&self) -> usize {
        self.index.len() + self.collisions.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of entries held in memory, at most [`RESIDENT_CAP`].
    pub fn resident_len(&self) -> usize {
        self.slots.len()
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

    /// Journal records replayed on open.
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
        let fingerprint = (self.fingerprint)(&key);
        let slot = match self.get(fingerprint, &key) {
            Some(slot) => {
                self.stats.hits += 1;
                slot
            }
            None => {
                let result = ModelGenerator::new(&self.arch, config.clone())
                    .build(program, Some(sizes))
                    .and_then(|model| model.solve());
                count_miss(&mut self.stats, &result);
                let disk =
                    append(&mut self.journal, &mut self.persisted, &key, &result).unwrap_or(None);
                self.memoize(fingerprint, key, result, disk)
            }
        };
        match &self.slots[slot].result {
            Ok(solution) => Ok(solution),
            Err(e) => Err(e.clone()),
        }
    }

    /// Looks up a pre-encoded key (see [`encode_key`]), counting a hit
    /// when present. Absence counts nothing — the caller decides whether
    /// it becomes a miss (via [`TileCache::insert_key`]) or is abandoned.
    pub fn lookup_key(&mut self, key: &[u8]) -> Option<SelectResult> {
        let slot = self.get((self.fingerprint)(key), key)?;
        self.stats.hits += 1;
        Some(self.slots[slot].result.clone())
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
    /// Journal I/O failures (the entries and the statistics are left
    /// unchanged); each one also bumps the `journal.append_errors` trace
    /// counter.
    pub fn insert_key(&mut self, key: Vec<u8>, result: SelectResult) -> io::Result<()> {
        let disk = append(&mut self.journal, &mut self.persisted, &key, &result)?;
        count_miss(&mut self.stats, &result);
        self.memoize((self.fingerprint)(&key), key, result, disk);
        Ok(())
    }

    /// The resident slot of `key`, with its reference bit set; an evicted
    /// entry is read back from the journal and made resident.
    fn get(&mut self, fingerprint: u64, key: &[u8]) -> Option<usize> {
        let slot = match self.find(fingerprint, key)? {
            (_, Found::Resident(slot)) => slot,
            (pos, Found::Evicted(record, offset)) => {
                let result = decode_result(record.value())?;
                self.remove(fingerprint, pos);
                self.admit(Resident {
                    key: key.to_vec(),
                    fingerprint,
                    result,
                    disk: Some(Disk {
                        offset,
                        bytes: record.disk_bytes(),
                    }),
                    referenced: false,
                })
            }
        };
        self.slots[slot].referenced = true;
        Some(slot)
    }

    /// Puts `result` in the cache as the live entry for `key`, backed by
    /// the journal record `disk` when one was written; the record it
    /// supersedes (if any) becomes garbage. Returns its resident slot.
    fn memoize(
        &mut self,
        fingerprint: u64,
        key: Vec<u8>,
        result: SelectResult,
        disk: Option<Disk>,
    ) -> usize {
        self.live_bytes += disk.map_or(0, |d| d.bytes);
        match self.find(fingerprint, &key) {
            Some((_, Found::Resident(slot))) => {
                let entry = &mut self.slots[slot];
                self.live_bytes -= entry.disk.map_or(0, |d| d.bytes);
                entry.result = result;
                entry.disk = disk;
                slot
            }
            found => {
                if let Some((pos, Found::Evicted(old, _))) = found {
                    self.live_bytes -= old.disk_bytes();
                    self.remove(fingerprint, pos);
                }
                self.admit(Resident {
                    key,
                    fingerprint,
                    result,
                    disk,
                    referenced: false,
                })
            }
        }
    }

    /// Where the entry for `key` is, if there is one: each entry under
    /// its fingerprint is compared on the full key, an evicted one by
    /// reading its record back.
    fn find(&self, fingerprint: u64, key: &[u8]) -> Option<(Pos, Found)> {
        let primary = *self.index.get(&fingerprint)?;
        let colliding = self
            .collisions
            .iter()
            .enumerate()
            .filter(|(_, (fp, _))| *fp == fingerprint)
            .map(|(i, &(_, loc))| (Pos::Collision(i), loc));
        for (pos, loc) in std::iter::once((Pos::Primary, primary)).chain(colliding) {
            match loc.slot() {
                Some(slot) if self.slots[slot].key == key => {
                    return Some((pos, Found::Resident(slot)));
                }
                Some(_) => {}
                None => {
                    if let Some(record) = self.read(loc.0).filter(|r| r.key() == key) {
                        return Some((pos, Found::Evicted(record, loc.0)));
                    }
                }
            }
        }
        None
    }

    /// The journal record at `offset`, if one validates there. Each read
    /// is counted in the `cache.journal_reads` trace counter; one that
    /// fails is a record not found, also counted in
    /// `cache.journal_read_errors`.
    fn read(&self, offset: u64) -> Option<Record> {
        eatss_trace::counter_add("cache.journal_reads", 1);
        match self.journal.as_ref()?.read_at(offset) {
            Ok(record) => record,
            Err(_) => {
                eatss_trace::counter_add("cache.journal_read_errors", 1);
                None
            }
        }
    }

    /// Makes `entry` resident — in a free slot, or in the one CLOCK
    /// evicts — and indexes it there. Returns the slot.
    fn admit(&mut self, entry: Resident) -> usize {
        let fingerprint = entry.fingerprint;
        let slot = if self.slots.len() < RESIDENT_CAP {
            self.slots.push(entry);
            self.slots.len() - 1
        } else {
            while std::mem::take(&mut self.slots[self.hand].referenced) {
                self.hand = (self.hand + 1) % RESIDENT_CAP;
            }
            let slot = self.hand;
            self.hand = (slot + 1) % RESIDENT_CAP;
            let victim = std::mem::replace(&mut self.slots[slot], entry);
            // A journaled victim stays findable by its record; any other
            // is dropped.
            if let Some(pos) = self.position(victim.fingerprint, Loc::resident(slot)) {
                match victim.disk {
                    Some(disk) => self.set(victim.fingerprint, pos, Loc(disk.offset)),
                    None => self.remove(victim.fingerprint, pos),
                }
            }
            slot
        };
        match self.index.entry(fingerprint) {
            Slot::Vacant(vacant) => {
                vacant.insert(Loc::resident(slot));
            }
            Slot::Occupied(_) => self.collisions.push((fingerprint, Loc::resident(slot))),
        }
        slot
    }

    /// The index entry that holds `loc` under `fingerprint`.
    fn position(&self, fingerprint: u64, loc: Loc) -> Option<Pos> {
        if self.index.get(&fingerprint) == Some(&loc) {
            return Some(Pos::Primary);
        }
        self.collisions
            .iter()
            .position(|&entry| entry == (fingerprint, loc))
            .map(Pos::Collision)
    }

    fn set(&mut self, fingerprint: u64, pos: Pos, loc: Loc) {
        match pos {
            Pos::Primary => {
                self.index.insert(fingerprint, loc);
            }
            Pos::Collision(i) => self.collisions[i].1 = loc,
        }
    }

    /// Drops an index entry; a colliding one takes the map's place.
    fn remove(&mut self, fingerprint: u64, pos: Pos) {
        let i = match pos {
            Pos::Collision(i) => i,
            Pos::Primary => match self
                .collisions
                .iter()
                .position(|&(fp, _)| fp == fingerprint)
            {
                Some(i) => {
                    self.index.insert(fingerprint, self.collisions[i].1);
                    i
                }
                None => {
                    self.index.remove(&fingerprint);
                    return;
                }
            },
        };
        self.collisions.swap_remove(i);
    }

    /// Rewrites the journal to exactly the live committed entries,
    /// dropping superseded duplicates, unreadable values and skipped
    /// corrupt regions: resident entries are encoded, evicted ones copied
    /// from the old file. Does nothing without a journal.
    ///
    /// # Errors
    ///
    /// Journal I/O failures; the previous journal remains authoritative.
    pub fn compact(&mut self) -> io::Result<()> {
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        let entries: Vec<(u64, Loc)> = self
            .index
            .iter()
            .map(|(&fp, &loc)| (fp, loc))
            .chain(self.collisions.iter().copied())
            .collect();
        // What is written, with each resident record's size; resident
        // entries that are not committed stay as they are.
        let mut written = Vec::with_capacity(entries.len());
        let mut kept = Vec::new();
        let mut live = Vec::with_capacity(entries.len());
        for (fp, loc) in entries {
            match loc.slot() {
                Some(slot) => {
                    let entry = &self.slots[slot];
                    match encode_result(&entry.result) {
                        Some(value) => {
                            written.push((fp, loc, record_size(&entry.key, &value)));
                            live.push(Live::Encode(&entry.key, value));
                        }
                        None => kept.push((fp, loc)),
                    }
                }
                None => {
                    written.push((fp, loc, 0));
                    live.push(Live::Copy(loc.0));
                }
            }
        }
        let offsets = journal.compact(live)?;
        // The journal now holds exactly one record per committed entry:
        // re-anchor the accounting on what is written, so the garbage
        // ratio returns to 0.
        self.live_bytes = journal.data_bytes();
        self.index.clear();
        self.collisions.clear();
        for (fp, loc) in kept {
            self.add(fp, loc);
        }
        for ((fp, loc, bytes), offset) in written.into_iter().zip(offsets) {
            match (loc.slot(), offset) {
                (Some(slot), Some(offset)) => {
                    self.slots[slot].disk = Some(Disk { offset, bytes });
                    self.add(fp, loc);
                }
                (None, Some(offset)) => self.add(fp, Loc(offset)),
                // A record that no longer validates is gone.
                (_, None) => {}
            }
        }
        Ok(())
    }

    fn add(&mut self, fingerprint: u64, loc: Loc) {
        match self.index.entry(fingerprint) {
            Slot::Vacant(vacant) => {
                vacant.insert(loc);
            }
            Slot::Occupied(_) => self.collisions.push((fingerprint, loc)),
        }
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
/// is committed, counting the record in `persisted`. Returns where the
/// record was written — `None` when none was, because there is no
/// journal or nothing to persist.
fn append(
    journal: &mut Option<Journal>,
    persisted: &mut u64,
    key: &[u8],
    result: &SelectResult,
) -> io::Result<Option<Disk>> {
    let Some(journal) = journal else {
        return Ok(None);
    };
    let Some(value) = encode_result(result) else {
        return Ok(None);
    };
    let offset = journal.append(key, &value).inspect_err(|_| {
        eatss_trace::counter_add("journal.append_errors", 1);
    })?;
    *persisted += 1;
    Ok(Some(Disk {
        offset,
        bytes: record_size(key, &value),
    }))
}

/// Format byte opening every key [`encode_key`] writes. Keys from before
/// it existed open with the low byte of the architecture name's length
/// (4–6 for the builtin profiles); the high bit keeps the two apart, so a
/// journal record keyed under an older encoding can never answer a
/// lookup. Bump it whenever the encoding below changes meaning: `0x81`
/// wrote every integer as 8 bytes, `0x82` as a varint.
const KEY_FORMAT: u8 = 0x82;

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
///
/// Integers are LEB128 varints (signed ones zigzagged first, so `-1` is
/// one byte); floats are their 8 bits little-endian. Every field's width
/// follows from its own bytes, so the encoding stays injective.
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
    k.extend_from_slice(&config.split_factor.to_bits().to_le_bytes());
    k.extend_from_slice(&config.warp_fraction.to_bits().to_le_bytes());
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
                    put_signed(&mut k, *c);
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

/// Appends `v` as an LEB128 varint: 7 bits a byte, low first, the high
/// bit set on every byte but the last.
fn put(k: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        k.push(v as u8 | 0x80);
        v >>= 7;
    }
    k.push(v as u8);
}

/// Appends a signed `v` zigzagged (0, -1, 1, -2, … → 0, 1, 2, 3, …).
fn put_signed(k: &mut Vec<u8>, v: i64) {
    put(k, ((v << 1) ^ (v >> 63)) as u64);
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
            put_signed(k, c);
        }
        put_signed(k, s.offset());
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
            put(k, *i as u64);
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
        let cfg = EatssConfig::default();
        let key = encode_key(&GpuArch::ga100(), &gemm(), &sizes(2000), &cfg);
        // What older builds left behind: a valid record under a key that
        // opens with the arch-name length (before the key-format byte), or
        // under format 0x81 (8-byte integers).
        let mut fixed_width = key.clone();
        fixed_width[0] = 0x81;
        for old_key in [key[1..].to_vec(), fixed_width] {
            let dir = temp_dir("old-key");
            {
                let mut cache = open(&dir);
                let s = cache.select(&gemm(), &sizes(2000), &cfg).unwrap().clone();
                cache.insert_key(old_key.clone(), Ok(s)).unwrap();
            }
            let mut cache = open(&dir);
            assert_eq!(
                (cache.replayed(), cache.undecodable(), cache.len()),
                (1, 1, 1)
            );
            assert!(cache.lookup_key(&old_key).is_none(), "never served");
            assert!(cache.lookup_key(&key).is_some());
            assert!(cache.garbage_ratio() > 0.4, "{}", cache.garbage_ratio());
            cache.compact().unwrap();
            assert_eq!(cache.garbage_ratio(), 0.0);
            drop(cache);
            let cache = open(&dir);
            assert_eq!((cache.replayed(), cache.undecodable()), (1, 0));
            let _ = std::fs::remove_dir_all(&dir);
        }
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

    fn open_never(dir: &Path, fingerprint: fn(&[u8]) -> u64) -> TileCache {
        // Eviction tests append thousands of records: no fsync each.
        let config = JournalConfig {
            sync: crate::SyncPolicy::Never,
            ..JournalConfig::default()
        };
        TileCache::open_with(dir, GpuArch::ga100(), config, fingerprint).unwrap()
    }

    fn is_resident(cache: &TileCache, key: &[u8]) -> bool {
        cache.slots.iter().any(|entry| entry.key == key)
    }

    /// A key in this build's format (so replay keeps its record) that
    /// no encoded request equals.
    fn test_key(name: &str) -> Vec<u8> {
        let mut key = vec![KEY_FORMAT];
        key.extend_from_slice(name.as_bytes());
        key
    }

    /// Inserts `n` distinct journaled entries, numbered from `from`.
    fn fill(cache: &mut TileCache, from: usize, n: usize) {
        for i in from..from + n {
            let reason = format!("filler {i}");
            let key = test_key(&reason);
            cache
                .insert_key(key, Err(EatssError::Unsatisfiable { reason }))
                .unwrap();
        }
    }

    fn encoded(result: Option<SelectResult>) -> Vec<u8> {
        encode_result(&result.expect("present")).expect("committed")
    }

    #[test]
    fn keys_are_varints() {
        let cfg = EatssConfig::default();
        let key = encode_key(&GpuArch::ga100(), &gemm(), &sizes(2000), &cfg);
        assert_eq!(key[0], KEY_FORMAT);
        // Three statements' worth of 1-byte fields, not 8 bytes each.
        assert!(key.len() < 120, "{} bytes", key.len());
        let mut v = Vec::new();
        for x in [0, 127, 128, 300, u64::MAX] {
            put(&mut v, x);
        }
        assert_eq!(v[..5], [0, 127, 0x80, 1, 0xAC]);
        assert_eq!(v.len(), 1 + 1 + 2 + 2 + 10);
        let mut z = Vec::new();
        for x in [0, -1, 1, -2, i64::MIN] {
            put_signed(&mut z, x);
        }
        assert_eq!(z[..4], [0, 1, 2, 3]);
    }

    #[test]
    fn an_evicted_entry_reads_back_equal_to_the_inserted_one() {
        let dir = temp_dir("evicted");
        let cfg = EatssConfig::default();
        let key = encode_key(&GpuArch::ga100(), &gemm(), &sizes(2000), &cfg);
        let mut cache = open_never(&dir, fnv1a64);
        let inserted = encode_result(&cache.select(&gemm(), &sizes(2000), &cfg).cloned()).unwrap();
        fill(&mut cache, 0, RESIDENT_CAP);
        assert!(
            !is_resident(&cache, &key),
            "the oldest unreferenced entry goes first"
        );
        assert_eq!(
            (cache.resident_len(), cache.len()),
            (RESIDENT_CAP, RESIDENT_CAP + 1)
        );
        let hits = cache.stats().hits;
        assert_eq!(encoded(cache.lookup_key(&key)), inserted);
        assert!(is_resident(&cache, &key), "read back into memory");
        assert_eq!(cache.stats().hits, hits + 1);
        assert_eq!(cache.garbage_ratio(), 0.0);

        // Superseding an evicted entry makes its old record garbage. The
        // hit gave the entry a second chance: two sweeps evict it.
        fill(&mut cache, RESIDENT_CAP, 2 * RESIDENT_CAP);
        assert!(!is_resident(&cache, &key));
        let live = cache.live_bytes();
        cache
            .insert_key(key.clone(), decode_result(&inserted).unwrap())
            .unwrap();
        assert_eq!(cache.live_bytes(), live, "an equal-size record replaced");
        assert_eq!(cache.len(), 3 * RESIDENT_CAP + 1);

        // After compaction (which copies evicted records) and a reopen.
        fill(&mut cache, 3 * RESIDENT_CAP, RESIDENT_CAP);
        cache.compact().unwrap();
        assert_eq!(cache.garbage_ratio(), 0.0);
        assert_eq!(cache.live_bytes() + HEADER_BYTES, cache.journal_bytes());
        assert_eq!(cache.len(), 4 * RESIDENT_CAP + 1);
        assert!(!is_resident(&cache, &key));
        assert_eq!(encoded(cache.lookup_key(&key)), inserted);
        assert!(cache.lookup_key(&test_key("filler 5")).is_some());
        drop(cache);
        let mut cache = open_never(&dir, fnv1a64);
        assert_eq!(
            (cache.len(), cache.resident_len()),
            (4 * RESIDENT_CAP + 1, 0)
        );
        assert_eq!(encoded(cache.lookup_key(&key)), inserted);
        assert_eq!(cache.garbage_ratio(), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_in_memory_cache_drops_what_it_evicts() {
        let mut cache = TileCache::new(GpuArch::ga100());
        let cfg = EatssConfig::default();
        cache.select(&gemm(), &sizes(2000), &cfg).unwrap();
        fill(&mut cache, 0, RESIDENT_CAP);
        assert_eq!(cache.len(), RESIDENT_CAP);
        cache.select(&gemm(), &sizes(2000), &cfg).unwrap();
        assert_eq!(
            (cache.stats().misses, cache.stats().hits),
            (RESIDENT_CAP as u64 + 2, 0)
        );
    }

    #[test]
    fn a_key_hit_between_evictions_stays_resident() {
        let dir = temp_dir("second-chance");
        let mut cache = open_never(&dir, fnv1a64);
        let cfg = EatssConfig::default();
        let hot = encode_key(&GpuArch::ga100(), &gemm(), &sizes(2000), &cfg);
        let cold = encode_key(&GpuArch::ga100(), &gemm(), &sizes(1000), &cfg);
        cache.select(&gemm(), &sizes(2000), &cfg).unwrap();
        cache.select(&gemm(), &sizes(1000), &cfg).unwrap();
        for round in 0..20 {
            fill(&mut cache, round * 500, 500);
            assert!(is_resident(&cache, &hot), "round {round}");
            assert!(cache.lookup_key(&hot).is_some());
        }
        assert!(!is_resident(&cache, &cold), "never hit, so evicted");
        assert_eq!(cache.len(), 2 + 20 * 500);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every test key named `collide …` has fingerprint 7.
    fn colliding(key: &[u8]) -> u64 {
        if key
            .get(1..)
            .is_some_and(|name| name.starts_with(b"collide"))
        {
            7
        } else {
            fnv1a64(key)
        }
    }

    #[test]
    fn keys_that_share_a_fingerprint_all_stay_findable() {
        let dir = temp_dir("collide");
        let keys: Vec<Vec<u8>> = (0..3).map(|i| test_key(&format!("collide {i}"))).collect();
        let result = |i: usize| {
            Err(EatssError::Unsatisfiable {
                reason: format!("answer {i}"),
            })
        };
        let answers = |cache: &mut TileCache| -> Vec<Vec<u8>> {
            keys.iter().map(|k| encoded(cache.lookup_key(k))).collect()
        };
        let expected: Vec<Vec<u8>> = (0..3).map(|i| encode_result(&result(i)).unwrap()).collect();
        let mut cache = open_never(&dir, colliding);
        for (i, key) in keys.iter().enumerate() {
            cache.insert_key(key.clone(), result(i)).unwrap();
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(answers(&mut cache), expected, "resident");
        // The hits gave them a second chance: two sweeps evict them.
        fill(&mut cache, 0, 2 * RESIDENT_CAP);
        assert!(keys.iter().all(|k| !is_resident(&cache, k)));
        assert_eq!(answers(&mut cache), expected, "evicted");
        assert!(cache.lookup_key(&test_key("collide 3")).is_none());

        // A colliding key superseded while evicted keeps its neighbours.
        fill(&mut cache, 2 * RESIDENT_CAP, 2 * RESIDENT_CAP);
        assert!(keys.iter().all(|k| !is_resident(&cache, k)));
        cache.insert_key(keys[1].clone(), result(1)).unwrap();
        assert_eq!(cache.len(), 3 + 4 * RESIDENT_CAP);
        assert_eq!(answers(&mut cache), expected, "superseded");
        cache.compact().unwrap();
        assert_eq!(answers(&mut cache), expected, "compacted");
        drop(cache);

        // Replay tells a collision from a superseded record by its key.
        let mut cache = open_never(&dir, colliding);
        cache.insert_key(keys[2].clone(), result(2)).unwrap();
        drop(cache);
        let mut cache = open_never(&dir, colliding);
        assert_eq!(cache.len(), 3 + 4 * RESIDENT_CAP);
        assert!(cache.garbage_ratio() > 0.0);
        assert_eq!(answers(&mut cache), expected, "reopened");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
