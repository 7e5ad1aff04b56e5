//! The tile cache's memory is bounded: past its resident set, an entry
//! costs only its place in the fingerprint → journal-offset index.
//!
//! A counting `#[global_allocator]` keeps this thread's live heap bytes
//! (allocated minus freed) in a thread-local, so the harness's other
//! threads do not count. A journaled cache is filled to its resident cap,
//! then given 100 000 distinct `insert_key`s; the live heap they add,
//! per entry, must stay within [`BYTES_PER_EVICTED_ENTRY`] — the map's
//! 16-byte slots at its load factor, nowhere near a key and a result.

use eatss::cache::RESIDENT_CAP;
use eatss::{EatssError, JournalConfig, SyncPolicy, TileCache};
use eatss_gpusim::GpuArch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with`: a thread may still allocate after its locals are gone.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Distinct entries inserted past the resident cap.
const ENTRIES: usize = 100_000;

/// The live heap one evicted entry may add.
const BYTES_PER_EVICTED_ENTRY: i64 = 64;

fn insert(cache: &mut TileCache, i: usize) {
    // Key and value are small on purpose: what an evicted entry keeps
    // must not depend on their size.
    let reason = format!("entry {i}");
    let key = reason.clone().into_bytes();
    cache
        .insert_key(key, Err(EatssError::Unsatisfiable { reason }))
        .expect("append");
}

#[test]
fn evicted_entries_cost_only_their_index_slot() {
    let dir = std::env::temp_dir().join(format!("eatss-cache-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = JournalConfig {
        sync: SyncPolicy::Never,
        ..JournalConfig::default()
    };
    let mut cache = TileCache::open(&dir, GpuArch::ga100(), config).expect("open");
    for i in 0..RESIDENT_CAP {
        insert(&mut cache, i);
    }
    let before = LIVE.with(Cell::get);
    for i in RESIDENT_CAP..RESIDENT_CAP + ENTRIES {
        insert(&mut cache, i);
    }
    let added = LIVE.with(Cell::get) - before;
    assert_eq!(cache.len(), RESIDENT_CAP + ENTRIES);
    assert_eq!(cache.resident_len(), RESIDENT_CAP);
    assert!(
        added <= BYTES_PER_EVICTED_ENTRY * ENTRIES as i64,
        "{added} bytes for {ENTRIES} entries: {} per entry",
        added / ENTRIES as i64
    );
    // Every one of them is still an answer.
    assert!(cache.lookup_key(b"entry 0").is_some());
    assert!(cache.lookup_key(b"entry 50000").is_some());
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}
