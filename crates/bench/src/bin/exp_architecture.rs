//! Experiment F5 — **Figure 5**: the architecture, exercised end to end.
//!
//! GUI/API → Look Up/Normalize/Perturb → MongoDB (embedded docstore) →
//! Redis (TTL+LRU cache) → Twitter crawler. This binary runs the whole
//! pipeline: simulate a feed, crawl it into the token database, persist
//! through the document store (WAL + snapshot), recover, stand the
//! authenticated service up, and report cache effectiveness.
//!
//! ```text
//! cargo run --release -p cryptext-bench --bin exp_architecture
//! ```

use std::sync::Arc;

use cryptext_bench::{build_platform, pct};
use cryptext_core::database::PERSIST_BLOCK_RECORDS;
use cryptext_core::ingest::Crawler;
use cryptext_core::service::{CryptextService, ServiceConfig};
use cryptext_core::{CrypText, LookupParams, TokenDatabase};
use cryptext_docstore::{Database, DbOptions};
use cryptext_gateway::{Gateway, GatewayConfig, Request};

fn main() {
    let dir = std::env::temp_dir().join(format!("cryptext-arch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("# Figure 5 — architecture pipeline");
    println!();

    // 1. Crawler ingests the stream (Twitter stream API substitute).
    let platform = build_platform(4_000, 99);
    let mut db = TokenDatabase::with_lexicon();
    let mut crawler = Crawler::new();
    let mut batches = 0;
    loop {
        let stats = crawler.run_once(&platform, &mut db, 500);
        if stats.posts == 0 {
            break;
        }
        batches += 1;
    }
    let life = crawler.lifetime_stats();
    println!(
        "crawler: {} posts in {batches} batches → {} token occurrences, {} novel tokens",
        life.posts, life.tokens, life.new_tokens
    );

    // 2. Persist through the embedded document store (MongoDB substitute).
    let store = Database::open(&dir, DbOptions::default()).expect("open store");
    db.persist_to(&store, "tokens").expect("persist");
    store.checkpoint().expect("checkpoint");
    let blocks = store.len("tokens").expect("len");
    println!(
        "docstore: {} tokens persisted in {blocks} block(s) of up to {PERSIST_BLOCK_RECORDS} \
         records (WAL + snapshot, checkpointed)",
        db.stats().unique_tokens
    );

    // 3. Crash-recover: reopen and rebuild the in-memory database.
    drop(store);
    let store = Database::open(&dir, DbOptions::default()).expect("reopen store");
    let recovered = TokenDatabase::load_from(&store, "tokens").expect("load");
    assert_eq!(recovered.stats().unique_tokens, db.stats().unique_tokens);
    println!(
        "recovery: reopened store and rebuilt database — {} tokens, {} H_1 sounds",
        recovered.stats().unique_tokens,
        recovered.stats().unique_sounds[1]
    );

    // 4. Public API facade with auth + rate limit + cache (Redis
    //    substitute), served through the gateway as the HTTP API serves it.
    let service = CryptextService::new(
        CrypText::new(recovered),
        ServiceConfig::default(),
        cryptext_common::system_clock(),
    );
    let gateway = Gateway::new(Arc::new(service), GatewayConfig::default());
    let token = gateway.service().issue_token("demo");
    let queries = [
        "democrats",
        "republicans",
        "vaccine",
        "suicide",
        "depression",
    ];
    // Two passes: the second should be served by the cache.
    for _ in 0..2 {
        for q in queries {
            let request = Request::lookup(q, LookupParams::paper_default());
            gateway.handle(&token, request).expect("lookup");
        }
    }
    let cache = gateway.service().cache_stats();
    println!(
        "service: {} lookups → cache hit rate {} ({} hits / {} misses)",
        cache.hits + cache.misses,
        pct(cache.hit_rate()),
        cache.hits,
        cache.misses
    );
    assert!(cache.hit_rate() >= 0.5, "second pass fully cached");

    let _ = std::fs::remove_dir_all(&dir);
    println!();
    println!(
        "pipeline complete: crawler → tokenDB → docstore(WAL/snapshot) → recovery → API(cache)."
    );
}
