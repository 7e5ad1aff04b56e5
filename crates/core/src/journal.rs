//! Crash-safe append-only journal — the durability layer under a
//! [`TileCache`](crate::TileCache) built with
//! [`TileCache::open`](crate::TileCache::open).
//!
//! # File format (version 2)
//!
//! A journal is one file, `journal.log`, in its directory. It starts with
//! a 12-byte header:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "EATSSJNL"
//! 8       4     format version (u32 LE, currently 2)
//! ```
//!
//! followed by zero or more length-prefixed, checksummed records, in
//! append order:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length L (u32 LE)
//! 4       8     FNV-1a 64 checksum of the payload bytes (u64 LE)
//! 12      L     payload: key length K (u32 LE) | key (K bytes) | value
//! ```
//!
//! A record is *committed* once its bytes are written and (under
//! [`SyncPolicy::Always`]) fsync'd. Appends are a single `write_all`
//! of the full record, so a crash — including `kill -9` — can only
//! produce a *torn tail*: a prefix of the last record.
//!
//! Recovery walks the file from the header and replays records in append
//! order. A record *validates* when its length is plausible (room for the
//! key length, at most the configured maximum, inside the file), its
//! checksum matches and its key length fits the payload. Where no record
//! validates, the boundary chain is broken — a flipped bit in a length,
//! a checksum or a payload. Recovery then resynchronises to the next byte
//! offset at which a whole record validates, counts the bytes it skipped
//! as one record in [`RecoveryStats::corrupt_records_skipped`], and goes
//! on from there. Only when nothing after the break validates is it a
//! torn tail, and the file is truncated back to the break. A damaged
//! record thus costs itself — never a later record, never the process.
//!
//! Version 1 journals were directories of `shard-NNN.log` files. A
//! directory holding `shard-000.log` (every version-1 journal has one) is
//! refused at open with [`io::ErrorKind::InvalidData`] and left untouched,
//! like any other format-version mismatch; its entries are solved again
//! on demand once it is moved aside.
//!
//! Compaction writes the live entries to `journal.log.tmp`, fsyncs it,
//! and atomically renames it over `journal.log` (then fsyncs the
//! directory), so a crash mid-compaction leaves either the old or the new
//! file — never a mix.

use eatss_trace::fnv1a64;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening the journal file.
pub const MAGIC: &[u8; 8] = b"EATSSJNL";
/// Current format version.
pub const FORMAT_VERSION: u32 = 2;
/// Header size in bytes: magic + version.
pub const HEADER_BYTES: u64 = 12;
/// Record prefix size: length + checksum.
pub const RECORD_PREFIX_BYTES: u64 = 12;
/// The journal file's name in its directory.
pub const FILE_NAME: &str = "journal.log";
/// The file every version-1 journal directory holds.
const LEGACY_SHARD: &str = "shard-000.log";

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every append — an `Ok` return means the record
    /// survives `kill -9` and power loss. The default.
    #[default]
    Always,
    /// Leave flushing to the OS. Faster; a hard kill may lose the most
    /// recent appends (recovery still never loses *earlier* records).
    Never,
}

/// Journal tuning knobs.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Durability of individual appends.
    pub sync: SyncPolicy,
    /// Upper bound on a single record's payload. Recovery treats larger
    /// declared lengths as corruption (the boundary chain is broken).
    pub max_record_bytes: u32,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            sync: SyncPolicy::Always,
            max_record_bytes: 16 << 20,
        }
    }
}

/// The `(key, value)` pairs recovered from a journal at open, in append
/// order.
pub type ReplayedEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// What recovery found (and repaired) while opening a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records that validated and were replayed.
    pub records_recovered: u64,
    /// Damaged records skipped by resynchronising to the next record
    /// that validates.
    pub corrupt_records_skipped: u64,
    /// 1 when the file's tail was truncated — a torn write, or damage
    /// after which no record validates — else 0.
    pub torn_tails_truncated: u64,
    /// Bytes discarded by truncation.
    pub bytes_discarded: u64,
}

/// An append-only journal of `(key, value)` byte records in one file.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: File,
    /// Validated length; appends go here.
    len: u64,
    config: JournalConfig,
    recovery: RecoveryStats,
}

fn header_bytes() -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut le = [0; 4];
    le.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(le)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut le = [0; 8];
    le.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(le)
}

fn bad_data(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// One on-disk record (see the module docs): length, checksum, payload.
fn encode_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let payload_len = 4 + key.len() + value.len();
    let mut record = Vec::with_capacity(RECORD_PREFIX_BYTES as usize + payload_len);
    record.extend_from_slice(&(payload_len as u32).to_le_bytes());
    record.extend_from_slice(&[0u8; 8]); // checksum patched below
    record.extend_from_slice(&(key.len() as u32).to_le_bytes());
    record.extend_from_slice(key);
    record.extend_from_slice(value);
    let checksum = fnv1a64(&record[RECORD_PREFIX_BYTES as usize..]);
    record[4..12].copy_from_slice(&checksum.to_le_bytes());
    record
}

/// The record starting at byte `at` of `bytes`, if a whole one validates
/// there (see the module docs), as `(key, value, end)`.
fn record_at(bytes: &[u8], at: usize, max_payload: u32) -> Option<(&[u8], &[u8], usize)> {
    let start = at + RECORD_PREFIX_BYTES as usize;
    let prefix = bytes.get(at..start)?;
    let payload_len = read_u32(prefix, 0);
    if payload_len > max_payload {
        return None;
    }
    let payload = bytes.get(start..start + payload_len as usize)?;
    let key_len = read_u32(payload.get(..4)?, 0) as usize;
    if key_len > payload.len() - 4 || fnv1a64(payload) != read_u64(prefix, 4) {
        return None;
    }
    Some((
        &payload[4..4 + key_len],
        &payload[4 + key_len..],
        start + payload.len(),
    ))
}

/// Replays the records after the header of `bytes` into `records`,
/// resynchronising past damage (see the module docs). Returns the length
/// of the prefix to keep: all of `bytes` unless its tail holds nothing
/// that validates.
fn replay(
    bytes: &[u8],
    max_payload: u32,
    records: &mut ReplayedEntries,
    stats: &mut RecoveryStats,
) -> usize {
    let mut pos = HEADER_BYTES as usize;
    while pos < bytes.len() {
        if let Some((key, value, end)) = record_at(bytes, pos, max_payload) {
            records.push((key.to_vec(), value.to_vec()));
            stats.records_recovered += 1;
            pos = end;
            continue;
        }
        match (pos + 1..bytes.len()).find(|&at| record_at(bytes, at, max_payload).is_some()) {
            Some(next) => {
                stats.corrupt_records_skipped += 1;
                pos = next;
            }
            None => {
                stats.torn_tails_truncated = 1;
                stats.bytes_discarded = (bytes.len() - pos) as u64;
                return pos;
            }
        }
    }
    pos
}

/// Best-effort directory fsync so renames and creations are durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, recovering every
    /// committed record. Returns the journal and the replayed records in
    /// append order.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`io::ErrorKind::InvalidData`] when `dir` holds a
    /// version-1 journal (nothing is touched) or `journal.log` carries a
    /// foreign magic or version.
    pub fn open(dir: &Path, config: JournalConfig) -> io::Result<(Journal, ReplayedEntries)> {
        let legacy = dir.join(LEGACY_SHARD);
        if legacy.exists() {
            return Err(bad_data(format!(
                "{}: a version-1 journal, this build reads v{FORMAT_VERSION} ({FILE_NAME}) — \
                 move the directory aside; its entries are solved again on demand",
                legacy.display()
            )));
        }
        fs::create_dir_all(dir)?;
        let path = dir.join(FILE_NAME);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut recovery = RecoveryStats::default();
        let mut records = Vec::new();
        let len = if bytes.len() < HEADER_BYTES as usize {
            // Empty or torn header (a crash during creation): start over.
            if !bytes.is_empty() {
                recovery.torn_tails_truncated = 1;
                recovery.bytes_discarded = bytes.len() as u64;
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header_bytes())?;
            file.sync_data()?;
            HEADER_BYTES
        } else {
            if &bytes[..8] != MAGIC {
                return Err(bad_data(format!(
                    "{}: not an EATSS journal (bad magic)",
                    path.display()
                )));
            }
            let version = read_u32(&bytes, 8);
            if version != FORMAT_VERSION {
                return Err(bad_data(format!(
                    "{}: journal format v{version}, this build reads v{FORMAT_VERSION}",
                    path.display()
                )));
            }
            let keep = replay(&bytes, config.max_record_bytes, &mut records, &mut recovery);
            if keep < bytes.len() {
                file.set_len(keep as u64)?;
                file.sync_data()?;
            }
            keep as u64
        };
        sync_dir(dir);
        Ok((
            Journal {
                dir: dir.to_path_buf(),
                file,
                len,
                config,
                recovery,
            },
            records,
        ))
    }

    /// What recovery found while opening.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Appends one record. On `Ok` under [`SyncPolicy::Always`] the
    /// record is durable against hard kills.
    ///
    /// # Errors
    ///
    /// I/O failures; the record is rejected (`InvalidData`) if it exceeds
    /// the configured maximum payload size.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        let payload_len = 4 + key.len() + value.len();
        if payload_len > self.config.max_record_bytes as usize {
            return Err(bad_data(format!(
                "record payload of {payload_len} bytes exceeds the {}-byte cap",
                self.config.max_record_bytes
            )));
        }
        let record = encode_record(key, value);
        self.file.seek(SeekFrom::Start(self.len))?;
        if let Err(e) = self.file.write_all(&record) {
            // A partial append is a torn tail; trim it now so the live
            // handle keeps its invariants without waiting for recovery.
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        if self.config.sync == SyncPolicy::Always {
            self.file.sync_data()?;
        }
        self.len += record.len() as u64;
        Ok(())
    }

    /// Flushes OS buffers (meaningful under [`SyncPolicy::Never`]).
    ///
    /// # Errors
    ///
    /// Propagates fsync failures.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Atomically replaces the journal with a snapshot of `entries`
    /// (dropping superseded duplicates and skipped garbage). Write-temp +
    /// fsync + rename + directory fsync: a crash leaves either the old or
    /// the new file intact.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the old file remains authoritative.
    pub fn compact<'a, I>(&mut self, entries: I) -> io::Result<()>
    where
        I: Iterator<Item = (&'a [u8], Vec<u8>)>,
    {
        let path = self.dir.join(FILE_NAME);
        let tmp_path = path.with_extension("log.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&header_bytes())?;
            for (key, value) in entries {
                tmp.write_all(&encode_record(key, &value))?;
            }
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &path)?;
        sync_dir(&self.dir);
        // Reopen the live handle on the new file.
        self.file = OpenOptions::new().read(true).write(true).open(&path)?;
        self.len = self.file.metadata()?.len();
        Ok(())
    }

    /// Size of the journal file, header included.
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Record bytes — [`Journal::bytes`] minus the header. The
    /// denominator for garbage ratios.
    pub fn data_bytes(&self) -> u64 {
        self.len.saturating_sub(HEADER_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eatss-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (Journal, ReplayedEntries) {
        Journal::open(dir, JournalConfig::default()).unwrap()
    }

    fn keys(records: &ReplayedEntries) -> Vec<&[u8]> {
        records.iter().map(|(k, _)| k.as_slice()).collect()
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let dir = temp_dir("roundtrip");
        let (mut j, recovered) = open(&dir);
        assert!(recovered.is_empty());
        for i in 0u64..20 {
            j.append(&i.to_le_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        drop(j);
        let (j, recovered) = open(&dir);
        assert_eq!(recovered.len(), 20);
        assert_eq!(j.recovery().records_recovered, 20);
        assert_eq!(j.recovery().corrupt_records_skipped, 0);
        assert_eq!(j.recovery().torn_tails_truncated, 0);
        // Replay order is append order.
        for (i, (key, value)) in recovered.iter().enumerate() {
            assert_eq!(key.as_slice(), (i as u64).to_le_bytes());
            assert_eq!(value.as_slice(), format!("value-{i}").as_bytes());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = temp_dir("torn");
        let (mut j, _) = open(&dir);
        j.append(b"k0", b"v0").unwrap();
        j.append(b"k1", b"v1").unwrap();
        drop(j);
        let path = dir.join(FILE_NAME);
        let len = fs::metadata(&path).unwrap().len();
        // Chop 3 bytes off the second record's payload.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (j, recovered) = open(&dir);
        assert_eq!(keys(&recovered), [b"k0"]);
        assert_eq!(j.recovery().torn_tails_truncated, 1);
        assert!(j.recovery().bytes_discarded > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_skips_exactly_that_record() {
        let dir = temp_dir("bitflip");
        let (mut j, _) = open(&dir);
        j.append(b"k0", b"v0").unwrap();
        j.append(b"k1", b"v1").unwrap();
        j.append(b"k2", b"v2").unwrap();
        drop(j);
        let path = dir.join(FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit in the middle record.
        let rec = (RECORD_PREFIX_BYTES as usize) + 4 + 2 + 2; // record 0
        let mid_payload = HEADER_BYTES as usize + rec + RECORD_PREFIX_BYTES as usize + 5;
        bytes[mid_payload] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (j, recovered) = open(&dir);
        assert_eq!(keys(&recovered), [b"k0", b"k2"]);
        assert_eq!(j.recovery().corrupt_records_skipped, 1);
        assert_eq!(j.recovery().torn_tails_truncated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_recovery_extend_the_validated_tail() {
        let dir = temp_dir("extend");
        let (mut j, _) = open(&dir);
        j.append(b"a", b"1").unwrap();
        drop(j);
        // Torn garbage at the tail.
        let path = dir.join(FILE_NAME);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xFF, 0x01, 0x02]).unwrap();
        drop(f);
        let (mut j, recovered) = open(&dir);
        assert_eq!(recovered.len(), 1);
        j.append(b"b", b"2").unwrap();
        drop(j);
        let (_, recovered) = open(&dir);
        assert_eq!(recovered.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_directory_is_refused_untouched() {
        let dir = temp_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        // A v1 shard: magic, version 1, shard 0 of 8, one record.
        let mut shard = MAGIC.to_vec();
        for field in [1u32, 0, 8] {
            shard.extend_from_slice(&field.to_le_bytes());
        }
        shard.extend_from_slice(&encode_record(b"k", b"v"));
        let legacy = dir.join(LEGACY_SHARD);
        fs::write(&legacy, &shard).unwrap();

        let err = Journal::open(&dir, JournalConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(LEGACY_SHARD), "{err}");
        assert_eq!(
            fs::read(&legacy).unwrap(),
            shard,
            "the v1 file is left byte-identical"
        );
        assert!(!dir.join(FILE_NAME).exists(), "no journal.log is created");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_entries_atomically() {
        let dir = temp_dir("compact");
        let (mut j, _) = open(&dir);
        for rev in 0..10u64 {
            j.append(b"same-key", format!("rev{rev}").as_bytes())
                .unwrap();
        }
        let before = j.bytes();
        j.compact([(b"same-key".as_slice(), b"rev9".to_vec())].into_iter())
            .unwrap();
        assert!(j.bytes() < before);
        drop(j);
        let (_, recovered) = open(&dir);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].1, b"rev9");
        let _ = fs::remove_dir_all(&dir);
    }
}
