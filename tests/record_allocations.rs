//! Integration: heap allocations per record the token database builds,
//! counted by a counting global allocator.
//!
//! A snapshot load rebuilds every record, so what a record build allocates
//! is what a reopen pays per token. A record keeps its token twice (the
//! record's copy and the token map's key), its case fold, and the ids of
//! its Soundex codes in one boxed slice; its codes are built in a
//! per-thread encoder whose buffers are reused from record to record, so
//! no code string is allocated unless it is new to its level's code table.
//! A word new to a batch ingest also carries its codes from the parallel
//! prepare to the merge, packed in one allocation. The ceilings below pin
//! that. Before records kept code ids, this corpus read 14.49 allocations
//! per loaded record and 24.30 per new word; with them it reads 6.88 and
//! 16.27 (a code new to its level still costs its name, twice, and its
//! posting list).
//!
//! This file holds one test, so no other test thread allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cryptext::core::database::TokenDatabase;
use cryptext::docstore::Database;
use cryptext::stream::{SocialPlatform, StreamConfig};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made while `f` runs, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

fn posts(n_posts: usize, seed: u64) -> Vec<String> {
    let platform = SocialPlatform::simulate(StreamConfig {
        n_posts,
        seed,
        ..StreamConfig::default()
    });
    platform
        .posts()
        .iter()
        .map(|post| post.text.clone())
        .collect()
}

#[test]
fn a_record_build_allocates_only_what_it_keeps() {
    let crawl = posts(3_000, 31);
    let (base, batch) = crawl.split_at(2_000);

    // Snapshot load: every record of a persisted corpus is rebuilt.
    let mut db = TokenDatabase::with_lexicon();
    db.ingest_texts(base);
    let store = Database::in_memory();
    db.persist_to(&store, "tokens").expect("persist");
    let records = db.records().len();
    let (allocations, loaded) =
        counted(|| TokenDatabase::load_from(&store, "tokens").expect("load"));
    assert_eq!(loaded.records().len(), records);
    drop(loaded);
    let per_loaded = allocations as f64 / records as f64;
    eprintln!("load_from: {per_loaded:.2} allocations per record ({records} records)");

    // Batch ingest: the words new to the database are prepared across the
    // pool's threads, then merged. The first batch warmed the pool.
    let (allocations, _) = counted(|| db.ingest_texts(batch));
    let fresh = db.records().len() - records;
    assert!(fresh > 500, "the batch brings new words: {fresh}");
    let per_fresh = allocations as f64 / fresh as f64;
    eprintln!("ingest_texts: {per_fresh:.2} allocations per new word ({fresh} new words)");

    assert!(
        per_loaded <= LOAD_CEILING,
        "load_from: {per_loaded:.2} allocations per record, ceiling {LOAD_CEILING}"
    );
    assert!(
        per_fresh <= INGEST_CEILING,
        "ingest_texts: {per_fresh:.2} allocations per new word, ceiling {INGEST_CEILING}"
    );
}

/// Allocations per record of a snapshot load.
const LOAD_CEILING: f64 = 7.0;

/// Allocations per new word of a batch ingest, its texts' tokenizing and
/// queueing included.
const INGEST_CEILING: f64 = 17.0;
