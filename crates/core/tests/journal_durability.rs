//! Durability properties of the tile-cache journal: arbitrary entries
//! survive a write→reopen round trip in append order, a torn tail
//! truncated at *every* byte offset recovers all fully-written records,
//! and a bit flip anywhere past the header costs exactly the record it
//! lands in — detected, skipped, and counted; never a panic, never a
//! wrong record, never a later record.

use eatss::journal::{Live, FILE_NAME, HEADER_BYTES, RECORD_PREFIX_BYTES};
use eatss::{Journal, JournalConfig, SyncPolicy};
use eatss_trace::fnv1a64;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

type Entries = Vec<(Vec<u8>, Vec<u8>)>;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eatss-journal-{tag}-{}-{:x}",
        std::process::id(),
        fnv1a64(tag.as_bytes())
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> JournalConfig {
    JournalConfig {
        // The tests reopen from what reached the filesystem; syncing
        // every append only slows them down.
        sync: SyncPolicy::Never,
        ..JournalConfig::default()
    }
}

/// Opens the journal in `dir`, collecting what replay hands over.
fn open(dir: &Path) -> std::io::Result<(Journal, Entries)> {
    let mut replayed = Vec::new();
    let journal = Journal::open(dir, config(), |_, key, value| {
        replayed.push((key.to_vec(), value.to_vec()))
    })?;
    Ok((journal, replayed))
}

fn append_all(journal: &mut Journal, entries: &[(Vec<u8>, Vec<u8>)]) {
    for (key, value) in entries {
        journal.append(key, value).expect("append");
    }
    journal.flush().expect("flush");
}

fn write_entries(dir: &Path, entries: &[(Vec<u8>, Vec<u8>)]) {
    let (mut journal, replayed) = open(dir).expect("open");
    assert!(replayed.is_empty(), "fresh directory");
    append_all(&mut journal, entries);
}

/// `entries` without the one at `index`.
fn without(entries: &[(Vec<u8>, Vec<u8>)], index: usize) -> Entries {
    let mut rest = entries.to_vec();
    rest.remove(index);
    rest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round trip: any batch of entries (duplicate keys, empty values,
    /// binary keys) reloads in append order with clean recovery counters.
    #[test]
    fn entries_round_trip_through_reopen(
        entries in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..=255, 0..24),
                proptest::collection::vec(0u8..=255, 0..64),
            ),
            0..40,
        ),
    ) {
        let dir = temp_dir("roundtrip");
        write_entries(&dir, &entries);
        let (journal, replayed) = open(&dir).expect("reopen");
        prop_assert_eq!(&replayed, &entries);
        let stats = journal.recovery();
        prop_assert_eq!(stats.records_recovered as usize, entries.len());
        prop_assert_eq!(stats.corrupt_records_skipped, 0);
        prop_assert_eq!(stats.torn_tails_truncated, 0);
        prop_assert_eq!(stats.bytes_discarded, 0);
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash can tear the tail at any byte. For every prefix length of a
/// journal: all records fully contained in the prefix are recovered,
/// nothing else is, and the torn bytes are counted.
#[test]
fn torn_tail_recovers_every_complete_record_at_every_offset() {
    let dir = temp_dir("torn");
    let entries: Entries = (0u8..5)
        .map(|i| (vec![i; 3 + i as usize], vec![0xA0 | i; 7 + i as usize]))
        .collect();
    write_entries(&dir, &entries);
    let path = dir.join(FILE_NAME);
    let full = std::fs::read(&path).expect("read journal");

    // Record boundaries: reopen after truncating to each length and
    // note where the recovered count increases.
    let mut boundaries = vec![HEADER_BYTES as usize];
    for len in HEADER_BYTES as usize..=full.len() {
        std::fs::write(&path, &full[..len]).expect("truncate");
        let (journal, replayed) = open(&dir).expect("reopen torn");
        let stats = journal.recovery();
        drop(journal);

        let complete = boundaries
            .iter()
            .filter(|&&b| b <= len && b > HEADER_BYTES as usize)
            .count();
        // A new boundary is discovered when recovery reports one more
        // record than the boundaries passed so far.
        let recovered = stats.records_recovered as usize;
        assert!(
            recovered == complete || recovered == complete + 1,
            "len {len}: recovered {recovered}, known boundaries {complete}"
        );
        if recovered == complete + 1 {
            boundaries.push(len);
        }
        assert_eq!(replayed, entries[..recovered], "len {len}");
        assert_eq!(
            stats.corrupt_records_skipped, 0,
            "len {len}: a torn tail is not corruption"
        );
        let partial = len - boundaries[recovered];
        if partial > 0 {
            assert_eq!(stats.torn_tails_truncated, 1, "len {len}");
            assert_eq!(stats.bytes_discarded as usize, partial, "len {len}");
        } else {
            assert_eq!(stats.torn_tails_truncated, 0, "len {len}: clean boundary");
        }
    }
    assert_eq!(
        boundaries.len(),
        entries.len() + 1,
        "every record ends at a distinct boundary"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipping any single bit past the header — in a length prefix, a
/// checksum or a payload — loses exactly the record it lands in: every
/// other record comes back byte-exact and in order, and the loss is
/// counted once (a skipped corrupt record, or a truncated tail when the
/// damaged record is the last).
#[test]
fn bit_flips_are_detected_skipped_and_counted() {
    let dir = temp_dir("bitflip");
    let entries: Entries = (0u8..4).map(|i| (vec![b'k', i], vec![i; 16])).collect();
    write_entries(&dir, &entries);
    let path = dir.join(FILE_NAME);
    let full = std::fs::read(&path).expect("read journal");
    let record = RECORD_PREFIX_BYTES as usize + 4 + 2 + 16;
    assert_eq!(full.len(), HEADER_BYTES as usize + entries.len() * record);

    for byte in HEADER_BYTES as usize..full.len() {
        let hit = (byte - HEADER_BYTES as usize) / record;
        for bit in [0u8, 3, 7] {
            let mut corrupted = full.clone();
            corrupted[byte] ^= 1 << bit;
            std::fs::write(&path, &corrupted).expect("write corrupted");
            let (journal, replayed) = open(&dir)
                .unwrap_or_else(|e| panic!("byte {byte} bit {bit}: open must not fail: {e}"));
            let stats = journal.recovery();
            drop(journal);

            assert_eq!(replayed, without(&entries, hit), "byte {byte} bit {bit}");
            let last = hit == entries.len() - 1;
            assert_eq!(
                (stats.corrupt_records_skipped, stats.torn_tails_truncated),
                if last { (0, 1) } else { (1, 0) },
                "byte {byte} bit {bit}: {stats:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A length prefix broken mid-file (here: declaring more than the file
/// holds) costs its own record only. Appends after recovery go on, and a
/// further reopen returns every later record — the resynchronised ones
/// and the new one.
#[test]
fn a_broken_length_prefix_loses_only_its_record() {
    let dir = temp_dir("length");
    let entries: Entries = (0u8..5).map(|i| (vec![b'l', i], vec![i; 9])).collect();
    write_entries(&dir, &entries);
    let path = dir.join(FILE_NAME);
    let mut bytes = std::fs::read(&path).expect("read journal");
    let record = RECORD_PREFIX_BYTES as usize + 4 + 2 + 9;
    let second = HEADER_BYTES as usize + record;
    bytes[second..second + 4].copy_from_slice(&0x00ff_ffffu32.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write corrupted");

    let (mut journal, replayed) = open(&dir).expect("reopen");
    assert_eq!(replayed, without(&entries, 1));
    assert_eq!(journal.recovery().corrupt_records_skipped, 1);
    assert_eq!(journal.recovery().torn_tails_truncated, 0);
    let appended = vec![(b"after".to_vec(), b"the break".to_vec())];
    append_all(&mut journal, &appended);
    drop(journal);

    let (journal, replayed) = open(&dir).expect("reopen after append");
    let mut expected = without(&entries, 1);
    expected.extend(appended);
    assert_eq!(replayed, expected);
    assert_eq!(
        journal.recovery().corrupt_records_skipped,
        1,
        "the damage stays until compaction"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction preserves content and resets recovery debt: after a bit
/// flip mid-file and a torn tail, reopening, and compacting, a further
/// reopen is clean.
#[test]
fn compaction_after_corruption_restores_a_clean_journal() {
    let dir = temp_dir("compact");
    let entries: Entries = (0u8..6)
        .map(|i| (vec![b'c', i], vec![i ^ 0x5A; 9]))
        .collect();
    write_entries(&dir, &entries);

    let path = dir.join(FILE_NAME);
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[HEADER_BYTES as usize + 20] ^= 0x04;
    bytes.truncate(bytes.len() - 3);
    std::fs::write(&path, &bytes).expect("corrupt and tear");

    let (mut journal, replayed) = open(&dir).expect("reopen torn");
    let stats = journal.recovery();
    assert_eq!(
        (stats.corrupt_records_skipped, stats.torn_tails_truncated),
        (1, 1)
    );
    assert_eq!(replayed, entries[1..entries.len() - 1]);
    journal
        .compact(replayed.iter().map(|(k, v)| Live::Encode(k, v.clone())))
        .expect("compact");
    drop(journal);

    let (journal, survivors) = open(&dir).expect("reopen compacted");
    let stats = journal.recovery();
    assert_eq!(stats.corrupt_records_skipped, 0);
    assert_eq!(stats.torn_tails_truncated, 0);
    assert_eq!(survivors, replayed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay reads the file through a window of a few tens of KiB. A
/// journal several windows long, with a bit flipped in one record's
/// payload — in turn every record, so some straddle a window's edge —
/// loses exactly that record.
#[test]
fn damage_anywhere_in_a_journal_longer_than_the_replay_window_costs_one_record() {
    let dir = temp_dir("window");
    let entries: Entries = (0u8..48)
        .map(|i| (vec![b'w', i], vec![i; 4000 + 97 * i as usize]))
        .collect();
    write_entries(&dir, &entries);
    let path = dir.join(FILE_NAME);
    let full = std::fs::read(&path).expect("read journal");
    assert!(full.len() > 256 << 10, "{} bytes", full.len());

    let mut start = HEADER_BYTES as usize;
    for (hit, (key, value)) in entries.iter().enumerate() {
        let record = RECORD_PREFIX_BYTES as usize + 4 + key.len() + value.len();
        let mut corrupted = full.clone();
        corrupted[start + record / 2] ^= 0x08;
        std::fs::write(&path, &corrupted).expect("write corrupted");
        let (journal, replayed) = open(&dir).expect("reopen");
        assert_eq!(replayed, without(&entries, hit), "record {hit}");
        let last = hit == entries.len() - 1;
        assert_eq!(
            journal.recovery().corrupt_records_skipped,
            u64::from(!last),
            "record {hit}"
        );
        start += record;
    }
    let _ = std::fs::remove_dir_all(&dir);
}
