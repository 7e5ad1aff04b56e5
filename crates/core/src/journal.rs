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
//! Recovery walks the file from the header, reading it through a 64 KiB
//! window, and hands each record to the caller in append order with its
//! offset, at which [`Journal::read_at`] reads it back later with
//! positional reads — that is how the cache finds an entry it evicted
//! from memory. A record *validates* when its length is plausible (room for the
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
//! Compaction writes the live entries to `journal.log.tmp` — each one
//! encoded, or copied byte for byte from the old file — fsyncs it, and
//! atomically renames it over `journal.log` (then fsyncs the directory),
//! so a crash mid-compaction leaves either the old or the new file —
//! never a mix.

use eatss_trace::fnv1a64;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
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

/// One whole record read back from the journal: its prefix and payload,
/// exactly as they are on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    bytes: Vec<u8>,
    key_len: usize,
}

impl Record {
    /// The record's key.
    pub fn key(&self) -> &[u8] {
        let start = RECORD_PREFIX_BYTES as usize + 4;
        &self.bytes[start..start + self.key_len]
    }

    /// The record's value.
    pub fn value(&self) -> &[u8] {
        &self.bytes[RECORD_PREFIX_BYTES as usize + 4 + self.key_len..]
    }

    /// The record's size on disk: prefix, key length, key and value.
    pub fn disk_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }
}

/// A record for [`Journal::compact`] to write.
#[derive(Debug)]
pub enum Live<'a> {
    /// Encode a record from a key and a value.
    Encode(&'a [u8], Vec<u8>),
    /// Copy the record at this offset of the current file as it is.
    Copy(u64),
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

/// Fills `buf` from byte `at` of `file` without moving its cursor (on
/// Unix; elsewhere appends seek before they write anyway).
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], at: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, at)
}

#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], at: u64) -> io::Result<()> {
    file.seek(SeekFrom::Start(at))?;
    io::Read::read_exact(&mut file, buf)
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

/// The payload length a record prefix declares, if it is plausible: room
/// for the key length, at most `max_payload`, and ending by `file_len`
/// for a record at `at`.
fn declared_payload(prefix: &[u8], at: u64, max_payload: u32, file_len: u64) -> Option<usize> {
    let payload_len = read_u32(prefix, 0);
    let end = at + RECORD_PREFIX_BYTES + u64::from(payload_len);
    ((4..=max_payload).contains(&payload_len) && end <= file_len).then_some(payload_len as usize)
}

/// The key length of a record whose prefix and payload are these, if
/// the checksum matches and the key fits the payload.
fn validate(prefix: &[u8], payload: &[u8]) -> Option<usize> {
    let key_len = read_u32(payload, 0) as usize;
    (key_len <= payload.len() - 4 && fnv1a64(payload) == read_u64(prefix, 4)).then_some(key_len)
}

/// Bytes read into a replay [`Window`] at a time.
const REPLAY_CHUNK: usize = 64 << 10;

/// A record that validated: its size on disk, its key and its value.
type Validated<'a> = (usize, &'a [u8], &'a [u8]);

/// A forward-moving view of the journal file for replay: it holds the
/// bytes from `base` on and reads more, in chunks, as records need them,
/// so replay never holds more than a chunk or one record.
struct Window<'f> {
    file: &'f File,
    file_len: u64,
    base: u64,
    buf: Vec<u8>,
}

impl Window<'_> {
    /// Bytes `at..at + n` of the file; `at + n` is never past its end.
    /// Resynchronising after a damaged record steps back to one byte
    /// past its start, which a refill for its payload may have dropped.
    fn get(&mut self, at: u64, n: usize) -> io::Result<&[u8]> {
        let end = at + n as u64;
        let held = self.base + self.buf.len() as u64;
        if at < self.base || end > held {
            if (self.base..=held).contains(&at) {
                self.buf.drain(..(at - self.base) as usize);
            } else {
                self.buf.clear();
            }
            self.base = at;
            let have = self.buf.len();
            let want = (n.max(REPLAY_CHUNK) as u64).min(self.file_len - at) as usize;
            self.buf.resize(want, 0);
            read_exact_at(self.file, &mut self.buf[have..], at + have as u64)?;
        }
        let from = (at - self.base) as usize;
        Ok(&self.buf[from..from + n])
    }

    /// The record at `at`, if a whole one validates there, as its size
    /// on disk, its key and its value.
    fn record_at(&mut self, at: u64, max_payload: u32) -> io::Result<Option<Validated<'_>>> {
        if at + RECORD_PREFIX_BYTES > self.file_len {
            return Ok(None);
        }
        let mut prefix = [0u8; RECORD_PREFIX_BYTES as usize];
        prefix.copy_from_slice(self.get(at, RECORD_PREFIX_BYTES as usize)?);
        let Some(payload_len) = declared_payload(&prefix, at, max_payload, self.file_len) else {
            return Ok(None);
        };
        let payload = self.get(at + RECORD_PREFIX_BYTES, payload_len)?;
        Ok(validate(&prefix, payload).map(|key_len| {
            let (key, value) = payload[4..].split_at(key_len);
            (RECORD_PREFIX_BYTES as usize + payload_len, key, value)
        }))
    }
}

/// Streams the records after the header of `file` (`file_len` bytes) to
/// `visit` as `(offset, key, value)`, resynchronising past damage (see
/// the module docs). Returns the length of the prefix to keep: all of
/// the file unless its tail holds nothing that validates.
fn replay<F>(
    file: &File,
    file_len: u64,
    max_payload: u32,
    stats: &mut RecoveryStats,
    visit: &mut F,
) -> io::Result<u64>
where
    F: FnMut(u64, &[u8], &[u8]),
{
    let mut window = Window {
        file,
        file_len,
        base: HEADER_BYTES,
        buf: Vec::new(),
    };
    let mut pos = HEADER_BYTES;
    while pos < file_len {
        if let Some((len, key, value)) = window.record_at(pos, max_payload)? {
            visit(pos, key, value);
            stats.records_recovered += 1;
            pos += len as u64;
            continue;
        }
        let mut next = pos + 1;
        while next < file_len && window.record_at(next, max_payload)?.is_none() {
            next += 1;
        }
        if next < file_len {
            stats.corrupt_records_skipped += 1;
            pos = next;
        } else {
            stats.torn_tails_truncated = 1;
            stats.bytes_discarded = file_len - pos;
            return Ok(pos);
        }
    }
    Ok(pos)
}

/// Best-effort directory fsync so renames and creations are durable.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, recovering every
    /// committed record: each one is handed to `visit` as `(offset, key,
    /// value)`, in append order, as replay reaches it. The offset is
    /// where [`Journal::read_at`] finds the record again.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`io::ErrorKind::InvalidData`] when `dir` holds a
    /// version-1 journal (nothing is touched) or `journal.log` carries a
    /// foreign magic or version.
    pub fn open(
        dir: &Path,
        config: JournalConfig,
        mut visit: impl FnMut(u64, &[u8], &[u8]),
    ) -> io::Result<Journal> {
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
        let file_len = file.metadata()?.len();

        let mut recovery = RecoveryStats::default();
        let len = if file_len < HEADER_BYTES {
            // Empty or torn header (a crash during creation): start over.
            if file_len > 0 {
                recovery.torn_tails_truncated = 1;
                recovery.bytes_discarded = file_len;
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header_bytes())?;
            file.sync_data()?;
            HEADER_BYTES
        } else {
            let mut header = [0u8; HEADER_BYTES as usize];
            read_exact_at(&file, &mut header, 0)?;
            if &header[..8] != MAGIC {
                return Err(bad_data(format!(
                    "{}: not an EATSS journal (bad magic)",
                    path.display()
                )));
            }
            let version = read_u32(&header, 8);
            if version != FORMAT_VERSION {
                return Err(bad_data(format!(
                    "{}: journal format v{version}, this build reads v{FORMAT_VERSION}",
                    path.display()
                )));
            }
            let keep = replay(
                &file,
                file_len,
                config.max_record_bytes,
                &mut recovery,
                &mut visit,
            )?;
            if keep < file_len {
                file.set_len(keep)?;
                file.sync_data()?;
            }
            keep
        };
        sync_dir(dir);
        Ok(Journal {
            dir: dir.to_path_buf(),
            file,
            len,
            config,
            recovery,
        })
    }

    /// What recovery found while opening.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Appends one record and returns the offset it starts at. On `Ok`
    /// under [`SyncPolicy::Always`] the record is durable against hard
    /// kills.
    ///
    /// # Errors
    ///
    /// I/O failures; the record is rejected (`InvalidData`) if it exceeds
    /// the configured maximum payload size.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> io::Result<u64> {
        let payload_len = 4 + key.len() + value.len();
        if payload_len > self.config.max_record_bytes as usize {
            return Err(bad_data(format!(
                "record payload of {payload_len} bytes exceeds the {}-byte cap",
                self.config.max_record_bytes
            )));
        }
        let record = encode_record(key, value);
        let offset = self.len;
        self.file.seek(SeekFrom::Start(offset))?;
        if let Err(e) = self.file.write_all(&record) {
            // A partial append is a torn tail; trim it now so the live
            // handle keeps its invariants without waiting for recovery.
            let _ = self.file.set_len(offset);
            return Err(e);
        }
        if self.config.sync == SyncPolicy::Always {
            self.file.sync_data()?;
        }
        self.len += record.len() as u64;
        Ok(offset)
    }

    /// Reads back the record that starts at `offset` with positional
    /// reads. `None` when no whole record validates there — its length,
    /// checksum and key length are checked as at recovery.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn read_at(&self, offset: u64) -> io::Result<Option<Record>> {
        if offset < HEADER_BYTES || offset + RECORD_PREFIX_BYTES > self.len {
            return Ok(None);
        }
        let mut prefix = [0u8; RECORD_PREFIX_BYTES as usize];
        read_exact_at(&self.file, &mut prefix, offset)?;
        let Some(payload_len) =
            declared_payload(&prefix, offset, self.config.max_record_bytes, self.len)
        else {
            return Ok(None);
        };
        let mut bytes = vec![0u8; RECORD_PREFIX_BYTES as usize + payload_len];
        bytes[..RECORD_PREFIX_BYTES as usize].copy_from_slice(&prefix);
        read_exact_at(
            &self.file,
            &mut bytes[RECORD_PREFIX_BYTES as usize..],
            offset + RECORD_PREFIX_BYTES,
        )?;
        let (prefix, payload) = bytes.split_at(RECORD_PREFIX_BYTES as usize);
        Ok(validate(prefix, payload).map(|key_len| Record { bytes, key_len }))
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
    /// (dropping superseded duplicates and skipped garbage): each one is
    /// encoded, or copied from the current file as it is. Write-temp +
    /// fsync + rename + directory fsync: a crash leaves either the old or
    /// the new file intact. Returns, per entry, the offset of its record
    /// in the new file — `None` for a copy whose source no longer
    /// validates, which is left out.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the old file remains authoritative.
    pub fn compact<'a>(
        &mut self,
        entries: impl IntoIterator<Item = Live<'a>>,
    ) -> io::Result<Vec<Option<u64>>> {
        let path = self.dir.join(FILE_NAME);
        let tmp_path = path.with_extension("log.tmp");
        let mut offsets = Vec::new();
        {
            let mut tmp = io::BufWriter::new(File::create(&tmp_path)?);
            tmp.write_all(&header_bytes())?;
            let mut len = HEADER_BYTES;
            for entry in entries {
                let written = match entry {
                    Live::Encode(key, value) => {
                        let record = encode_record(key, &value);
                        tmp.write_all(&record)?;
                        Some(record.len())
                    }
                    Live::Copy(offset) => match self.read_at(offset)? {
                        Some(record) => {
                            tmp.write_all(&record.bytes)?;
                            Some(record.bytes.len())
                        }
                        None => None,
                    },
                };
                offsets.push(written.map(|bytes| {
                    let at = len;
                    len += bytes as u64;
                    at
                }));
            }
            tmp.into_inner()
                .map_err(io::IntoInnerError::into_error)?
                .sync_all()?;
        }
        fs::rename(&tmp_path, &path)?;
        sync_dir(&self.dir);
        // Reopen the live handle on the new file.
        self.file = OpenOptions::new().read(true).write(true).open(&path)?;
        self.len = self.file.metadata()?.len();
        Ok(offsets)
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

    type Replayed = Vec<(Vec<u8>, Vec<u8>)>;

    fn open(dir: &Path) -> (Journal, Replayed) {
        let mut records = Vec::new();
        let journal = Journal::open(dir, JournalConfig::default(), |_, key, value| {
            records.push((key.to_vec(), value.to_vec()))
        })
        .unwrap();
        (journal, records)
    }

    fn keys(records: &Replayed) -> Vec<&[u8]> {
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

        let err = Journal::open(&dir, JournalConfig::default(), |_, _, _| {}).unwrap_err();
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
        j.compact([Live::Encode(b"same-key", b"rev9".to_vec())])
            .unwrap();
        assert!(j.bytes() < before);
        drop(j);
        let (_, recovered) = open(&dir);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].1, b"rev9");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_are_read_back_at_their_offsets_and_copied_by_compaction() {
        let dir = temp_dir("read-at");
        let (mut j, _) = open(&dir);
        let first = j.append(b"k0", b"v0").unwrap();
        let second = j.append(b"key-1", b"value-1").unwrap();
        assert_eq!(first, HEADER_BYTES);
        let record = j.read_at(second).unwrap().unwrap();
        assert_eq!(
            (record.key(), record.value()),
            (&b"key-1"[..], &b"value-1"[..])
        );
        assert_eq!(record.disk_bytes(), j.bytes() - second);
        // An offset inside a record, or past the end, holds no record.
        assert_eq!(j.read_at(second + 1).unwrap(), None);
        assert_eq!(j.read_at(j.bytes()).unwrap(), None);

        // Offsets seen at replay are the ones appends returned.
        drop(j);
        let mut offsets = Vec::new();
        let mut j =
            Journal::open(&dir, JournalConfig::default(), |at, _, _| offsets.push(at)).unwrap();
        assert_eq!(offsets, [first, second]);

        // Compaction copies a record byte for byte, encodes another, and
        // leaves out a copy whose source does not validate.
        let moved = j
            .compact([
                Live::Copy(second),
                Live::Copy(second + 1),
                Live::Encode(b"k2", b"v2".to_vec()),
            ])
            .unwrap();
        assert_eq!(moved[0], Some(HEADER_BYTES));
        assert_eq!(moved[1], None);
        assert_eq!(j.read_at(HEADER_BYTES).unwrap(), Some(record.clone()));
        let k2 = j.read_at(moved[2].unwrap()).unwrap().unwrap();
        assert_eq!((k2.key(), k2.value()), (&b"k2"[..], &b"v2"[..]));
        drop(j);
        let (_, recovered) = open(&dir);
        assert_eq!(keys(&recovered), [&b"key-1"[..], b"k2"]);
        let _ = fs::remove_dir_all(&dir);
    }
}
