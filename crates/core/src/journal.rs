//! Crash-safe, fingerprint-sharded append-only journal — the durability
//! layer under a [`TileCache`](crate::TileCache) built with
//! [`TileCache::open`](crate::TileCache::open).
//!
//! # File format (version 1)
//!
//! A journal is a directory of `shard-NNN.log` files. Each shard starts
//! with a 20-byte header:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "EATSSJNL"
//! 8       4     format version (u32 LE, currently 1)
//! 12      4     shard index (u32 LE)
//! 16      4     shard count (u32 LE)
//! ```
//!
//! followed by zero or more length-prefixed, checksummed records:
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
//! produce a *torn tail*: a prefix of the last record. Recovery walks
//! the shard from the header, validating each record:
//!
//! * a record whose length prefix or payload extends past end-of-file is
//!   a torn tail — the file is truncated at the last validated offset;
//! * a record whose length prefix is implausible (> the configured
//!   maximum) makes every later boundary untrustworthy — the rest of the
//!   shard is discarded the same way;
//! * a record whose checksum does not match is *skipped* (the declared
//!   length still locates the next boundary) and counted in
//!   [`RecoveryStats::corrupt_records_skipped`] — a flipped bit loses
//!   that record, never the shard and never the process.
//!
//! Compaction rewrites each shard from the live in-memory entries into
//! `shard-NNN.log.tmp`, fsyncs it, and atomically renames it over the
//! old shard (then fsyncs the directory), so a crash mid-compaction
//! leaves either the old or the new file — never a mix.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every shard file.
pub const MAGIC: &[u8; 8] = b"EATSSJNL";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Header size in bytes: magic + version + shard index + shard count.
pub const HEADER_BYTES: u64 = 20;
/// Record prefix size: length + checksum.
pub const RECORD_PREFIX_BYTES: u64 = 12;

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
    /// Number of shard files the fingerprint space is folded into.
    pub shards: u32,
    /// Durability of individual appends.
    pub sync: SyncPolicy,
    /// Upper bound on a single record's payload. Recovery treats larger
    /// declared lengths as corruption (the boundary chain is broken).
    pub max_record_bytes: u32,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            shards: 8,
            sync: SyncPolicy::Always,
            max_record_bytes: 16 << 20,
        }
    }
}

/// The `(key, value)` pairs recovered from a journal at open, in
/// replay (append) order within each shard.
pub type ReplayedEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// What recovery found (and repaired) while opening a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records that validated and were replayed.
    pub records_recovered: u64,
    /// Records skipped for a checksum or payload-structure mismatch.
    pub corrupt_records_skipped: u64,
    /// Shards whose tail was truncated (torn write or broken boundary).
    pub torn_tails_truncated: u64,
    /// Bytes discarded by truncation.
    pub bytes_discarded: u64,
}

impl RecoveryStats {
    fn absorb(&mut self, other: RecoveryStats) {
        self.records_recovered += other.records_recovered;
        self.corrupt_records_skipped += other.corrupt_records_skipped;
        self.torn_tails_truncated += other.torn_tails_truncated;
        self.bytes_discarded += other.bytes_discarded;
    }
}

/// FNV-1a 64-bit — the record checksum, and the hash that routes a key
/// to its shard. Stable across platforms and releases, which shard
/// routing relies on: replay reads shards in index order, so a key whose
/// route changed between builds could have its newer record superseded by
/// an older one.
pub use eatss_trace::fnv1a64;

struct Shard {
    path: PathBuf,
    file: File,
    /// Validated length; appends go here.
    len: u64,
}

/// A sharded append-only journal of `(key, value)` byte records.
pub struct Journal {
    dir: PathBuf,
    shards: Vec<Shard>,
    config: JournalConfig,
    recovery: RecoveryStats,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .field("recovery", &self.recovery)
            .finish()
    }
}

fn header_bytes(index: u32, count: u32) -> [u8; HEADER_BYTES as usize] {
    let mut h = [0u8; HEADER_BYTES as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&index.to_le_bytes());
    h[16..20].copy_from_slice(&count.to_le_bytes());
    h
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
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

/// Best-effort directory fsync so renames and creations are durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, recovering every
    /// committed record. Returns the journal and the replayed records in
    /// per-shard append order.
    ///
    /// # Errors
    ///
    /// I/O failures; [`io::ErrorKind::InvalidInput`] for a shard count of
    /// zero (nothing is created); or [`io::ErrorKind::InvalidData`] when a
    /// shard file carries a foreign magic/version or was written with a
    /// different shard count (resharding is not implicit — it would
    /// silently strand committed entries).
    pub fn open(dir: &Path, config: JournalConfig) -> io::Result<(Journal, ReplayedEntries)> {
        if config.shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal needs at least one shard",
            ));
        }
        fs::create_dir_all(dir)?;
        let mut shards = Vec::with_capacity(config.shards as usize);
        let mut recovery = RecoveryStats::default();
        let mut records = Vec::new();
        for index in 0..config.shards {
            let path = dir.join(format!("shard-{index:03}.log"));
            let (shard, stats) = Shard::open(path, index, &config, &mut records)?;
            recovery.absorb(stats);
            shards.push(shard);
        }
        sync_dir(dir);
        Ok((
            Journal {
                dir: dir.to_path_buf(),
                shards,
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

    /// The shard a fingerprint routes to.
    pub fn shard_of(&self, fingerprint: u64) -> u32 {
        (fingerprint % u64::from(self.config.shards)) as u32
    }

    /// Appends one record. On `Ok` under [`SyncPolicy::Always`] the
    /// record is durable against hard kills.
    ///
    /// # Errors
    ///
    /// I/O failures; the record is rejected (`InvalidData`) if it exceeds
    /// the configured maximum payload size.
    pub fn append(&mut self, fingerprint: u64, key: &[u8], value: &[u8]) -> io::Result<()> {
        let payload_len = 4 + key.len() + value.len();
        if payload_len > self.config.max_record_bytes as usize {
            return Err(bad_data(format!(
                "record payload of {payload_len} bytes exceeds the {}-byte cap",
                self.config.max_record_bytes
            )));
        }
        let record = encode_record(key, value);

        let sync = self.config.sync;
        let shard_index = self.shard_of(fingerprint) as usize;
        let shard = &mut self.shards[shard_index];
        shard.file.seek(SeekFrom::Start(shard.len))?;
        if let Err(e) = shard.file.write_all(&record) {
            // A partial append is a torn tail; trim it now so the live
            // handle keeps its invariants without waiting for recovery.
            let _ = shard.file.set_len(shard.len);
            return Err(e);
        }
        if sync == SyncPolicy::Always {
            shard.file.sync_data()?;
        }
        shard.len += record.len() as u64;
        Ok(())
    }

    /// Flushes OS buffers on every shard (meaningful under
    /// [`SyncPolicy::Never`]).
    ///
    /// # Errors
    ///
    /// Propagates fsync failures.
    pub fn flush(&mut self) -> io::Result<()> {
        for shard in &mut self.shards {
            shard.file.sync_data()?;
        }
        Ok(())
    }

    /// Atomically replaces every shard with a snapshot of `entries`
    /// (dropping superseded duplicates and skipped garbage). Write-temp +
    /// fsync + rename + directory fsync: a crash leaves either the old or
    /// the new shard file intact.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the old shard files remain authoritative.
    pub fn compact<'a, I>(&mut self, entries: I) -> io::Result<()>
    where
        I: Iterator<Item = (u64, &'a [u8], Vec<u8>)>,
    {
        let mut grouped: Vec<Vec<(&[u8], Vec<u8>)>> =
            (0..self.config.shards).map(|_| Vec::new()).collect();
        for (fingerprint, key, value) in entries {
            grouped[self.shard_of(fingerprint) as usize].push((key, value));
        }
        for (index, group) in grouped.into_iter().enumerate() {
            let final_path = self.shards[index].path.clone();
            let tmp_path = final_path.with_extension("log.tmp");
            {
                let mut tmp = File::create(&tmp_path)?;
                tmp.write_all(&header_bytes(index as u32, self.config.shards))?;
                for (key, value) in group {
                    tmp.write_all(&encode_record(key, &value))?;
                }
                tmp.sync_all()?;
            }
            fs::rename(&tmp_path, &final_path)?;
            sync_dir(&self.dir);
            // Reopen the live handle on the new file.
            let file = OpenOptions::new().read(true).write(true).open(&final_path)?;
            let len = file.metadata()?.len();
            self.shards[index] = Shard {
                path: final_path,
                file,
                len,
            };
        }
        Ok(())
    }

    /// Total bytes across all shard files (headers included).
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.len).sum()
    }

    /// Record bytes across all shards — [`Journal::bytes`] minus the
    /// fixed per-shard headers. The denominator for garbage ratios.
    pub fn data_bytes(&self) -> u64 {
        self.bytes().saturating_sub(HEADER_BYTES * self.shards.len() as u64)
    }

    /// Per-shard file sizes (headers included), in shard-index order.
    pub fn shard_bytes(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.len).collect()
    }
}

impl Shard {
    fn open(
        path: PathBuf,
        index: u32,
        config: &JournalConfig,
        records: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> io::Result<(Shard, RecoveryStats)> {
        let mut stats = RecoveryStats::default();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() < HEADER_BYTES as usize {
            // Empty or torn header (a crash during creation): start over.
            if !bytes.is_empty() {
                stats.torn_tails_truncated += 1;
                stats.bytes_discarded += bytes.len() as u64;
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header_bytes(index, config.shards))?;
            file.sync_data()?;
            return Ok((
                Shard {
                    path,
                    file,
                    len: HEADER_BYTES,
                },
                stats,
            ));
        }
        if &bytes[..8] != MAGIC {
            return Err(bad_data(format!(
                "{}: not an EATSS journal shard (bad magic)",
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
        let file_index = read_u32(&bytes, 12);
        let file_count = read_u32(&bytes, 16);
        if file_index != index || file_count != config.shards {
            return Err(bad_data(format!(
                "{}: shard {file_index}/{file_count} but the journal was opened \
                 as {index}/{} — resharding an existing cache directory is not \
                 supported (it would strand committed entries)",
                path.display(),
                config.shards
            )));
        }

        // Walk the records. `validated` tracks the end of the last good
        // boundary — everything past it gets truncated on a torn tail.
        let mut pos = HEADER_BYTES as usize;
        let mut validated = pos;
        loop {
            let remaining = bytes.len() - pos;
            if remaining == 0 {
                break;
            }
            if remaining < RECORD_PREFIX_BYTES as usize {
                break; // torn prefix
            }
            let payload_len = read_u32(&bytes, pos) as usize;
            if payload_len > config.max_record_bytes as usize {
                // The boundary chain is broken; nothing past here can be
                // located reliably.
                break;
            }
            let payload_start = pos + RECORD_PREFIX_BYTES as usize;
            let payload_end = payload_start + payload_len;
            if payload_end > bytes.len() {
                break; // torn payload
            }
            let declared = read_u64(&bytes, pos + 4);
            let payload = &bytes[payload_start..payload_end];
            if fnv1a64(payload) != declared {
                stats.corrupt_records_skipped += 1;
                pos = payload_end;
                validated = pos;
                continue;
            }
            // Payload structure: key length must fit.
            if payload_len < 4 || 4 + read_u32(payload, 0) as usize > payload_len {
                stats.corrupt_records_skipped += 1;
                pos = payload_end;
                validated = pos;
                continue;
            }
            let key_len = read_u32(payload, 0) as usize;
            records.push((
                payload[4..4 + key_len].to_vec(),
                payload[4 + key_len..].to_vec(),
            ));
            stats.records_recovered += 1;
            pos = payload_end;
            validated = pos;
        }
        if validated < bytes.len() {
            stats.torn_tails_truncated += 1;
            stats.bytes_discarded += (bytes.len() - validated) as u64;
            file.set_len(validated as u64)?;
            file.sync_data()?;
        }
        Ok((
            Shard {
                path,
                file,
                len: validated as u64,
            },
            stats,
        ))
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

    #[test]
    fn zero_shards_is_an_error_that_touches_nothing() {
        let dir = temp_dir("zero-shards");
        let cfg = JournalConfig {
            shards: 0,
            ..JournalConfig::default()
        };
        let Err(err) = Journal::open(&dir, cfg) else {
            panic!("zero shards must be rejected");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!dir.exists(), "a rejected open must not create the directory");
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let dir = temp_dir("roundtrip");
        let cfg = JournalConfig {
            shards: 3,
            ..JournalConfig::default()
        };
        let (mut j, recovered) = Journal::open(&dir, cfg.clone()).unwrap();
        assert!(recovered.is_empty());
        for i in 0u64..20 {
            j.append(i, &i.to_le_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        drop(j);
        let (j, recovered) = Journal::open(&dir, cfg).unwrap();
        assert_eq!(recovered.len(), 20);
        assert_eq!(j.recovery().records_recovered, 20);
        assert_eq!(j.recovery().corrupt_records_skipped, 0);
        assert_eq!(j.recovery().torn_tails_truncated, 0);
        // Per-shard order is append order; every record present exactly once.
        let mut seen: Vec<u64> = recovered
            .iter()
            .map(|(k, _)| u64::from_le_bytes(k[..8].try_into().unwrap()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = temp_dir("torn");
        let cfg = JournalConfig {
            shards: 1,
            ..JournalConfig::default()
        };
        let (mut j, _) = Journal::open(&dir, cfg.clone()).unwrap();
        j.append(0, b"k0", b"v0").unwrap();
        j.append(0, b"k1", b"v1").unwrap();
        drop(j);
        let path = dir.join("shard-000.log");
        let len = fs::metadata(&path).unwrap().len();
        // Chop 3 bytes off the second record's payload.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (j, recovered) = Journal::open(&dir, cfg).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, b"k0");
        assert_eq!(j.recovery().torn_tails_truncated, 1);
        assert!(j.recovery().bytes_discarded > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_skips_exactly_that_record() {
        let dir = temp_dir("bitflip");
        let cfg = JournalConfig {
            shards: 1,
            ..JournalConfig::default()
        };
        let (mut j, _) = Journal::open(&dir, cfg.clone()).unwrap();
        j.append(0, b"k0", b"v0").unwrap();
        j.append(0, b"k1", b"v1").unwrap();
        j.append(0, b"k2", b"v2").unwrap();
        drop(j);
        let path = dir.join("shard-000.log");
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit in the middle record.
        let rec = (RECORD_PREFIX_BYTES as usize) + 4 + 2 + 2; // record 0
        let mid_payload = HEADER_BYTES as usize + rec + RECORD_PREFIX_BYTES as usize + 5;
        bytes[mid_payload] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (j, recovered) = Journal::open(&dir, cfg).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].0, b"k0");
        assert_eq!(recovered[1].0, b"k2");
        assert_eq!(j.recovery().corrupt_records_skipped, 1);
        assert_eq!(j.recovery().torn_tails_truncated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_recovery_extend_the_validated_tail() {
        let dir = temp_dir("extend");
        let cfg = JournalConfig {
            shards: 1,
            ..JournalConfig::default()
        };
        let (mut j, _) = Journal::open(&dir, cfg.clone()).unwrap();
        j.append(0, b"a", b"1").unwrap();
        drop(j);
        // Torn garbage at the tail.
        let path = dir.join("shard-000.log");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xFF, 0x01, 0x02]).unwrap();
        drop(f);
        let (mut j, recovered) = Journal::open(&dir, cfg.clone()).unwrap();
        assert_eq!(recovered.len(), 1);
        j.append(0, b"b", b"2").unwrap();
        drop(j);
        let (_, recovered) = Journal::open(&dir, cfg).unwrap();
        assert_eq!(recovered.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resharding_is_rejected() {
        let dir = temp_dir("reshard");
        let cfg = |n| JournalConfig {
            shards: n,
            ..JournalConfig::default()
        };
        let (mut j, _) = Journal::open(&dir, cfg(2)).unwrap();
        j.append(0, b"k", b"v").unwrap();
        drop(j);
        let err = Journal::open(&dir, cfg(4)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_entries_atomically() {
        let dir = temp_dir("compact");
        let cfg = JournalConfig {
            shards: 2,
            ..JournalConfig::default()
        };
        let (mut j, _) = Journal::open(&dir, cfg.clone()).unwrap();
        for rev in 0..10u64 {
            j.append(7, b"same-key", format!("rev{rev}").as_bytes())
                .unwrap();
        }
        let before = j.bytes();
        j.compact([(7u64, b"same-key".as_slice(), b"rev9".to_vec())].into_iter())
            .unwrap();
        assert!(j.bytes() < before);
        drop(j);
        let (_, recovered) = Journal::open(&dir, cfg).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].1, b"rev9");
        let _ = fs::remove_dir_all(&dir);
    }
}
