//! Integration: durability of the token database through the embedded
//! document store, including crash-style recovery.

use cryptext::core::database::TokenDatabase;
use cryptext::core::{look_up, LookupParams, ShardedTokenDatabase, TokenStore};
use cryptext::docstore::{Database, DbOptions, Value};
use cryptext::stream::{SocialPlatform, StreamConfig};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cryptext-it-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_token_db(seed: u64) -> TokenDatabase {
    let platform = SocialPlatform::simulate(StreamConfig {
        n_posts: 800,
        seed,
        ..StreamConfig::default()
    });
    let mut db = TokenDatabase::in_memory();
    for post in platform.posts() {
        db.ingest_text(&post.text);
    }
    db
}

#[test]
fn token_database_survives_store_reopen() {
    let dir = tmp_dir("reopen");
    let db = build_token_db(1);
    let before = db.stats();

    {
        let store = Database::open(&dir, DbOptions::default()).unwrap();
        db.persist_to(&store, "tokens").unwrap();
        store.checkpoint().unwrap();
    }
    // Reopen from disk in a fresh process-like context.
    let store = Database::open(&dir, DbOptions::default()).unwrap();
    let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
    assert_eq!(restored.stats(), before);

    // Queries behave identically after restore.
    let a = look_up(&db, "vaccine", LookupParams::paper_default()).unwrap();
    let b = look_up(&restored, "vaccine", LookupParams::paper_default()).unwrap();
    assert_eq!(a, b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_only_recovery_without_checkpoint() {
    let dir = tmp_dir("wal-only");
    let db = build_token_db(2);
    {
        let store = Database::open(&dir, DbOptions::default()).unwrap();
        db.persist_to(&store, "tokens").unwrap();
        // No checkpoint: recovery must replay the WAL alone.
    }
    let store = Database::open(&dir, DbOptions::default()).unwrap();
    let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
    assert_eq!(restored.stats().unique_tokens, db.stats().unique_tokens);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_loses_at_most_last_record() {
    let dir = tmp_dir("torn");
    {
        let store = Database::open(&dir, DbOptions::default()).unwrap();
        store.create_collection("t").unwrap();
        for i in 0..50i64 {
            store
                .insert("t", cryptext::docstore::Document::new().with("i", i))
                .unwrap();
        }
    }
    // Simulate a crash mid-append.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

    let store = Database::open(&dir, DbOptions::default()).unwrap();
    let n = store.len("t").unwrap();
    assert_eq!(n, 49, "exactly the torn record lost");
    // The store is fully usable after recovery.
    store
        .insert("t", cryptext::docstore::Document::new().with("i", 99i64))
        .unwrap();
    let with_99 = store
        .read_collection("t", |c| {
            c.scan()
                .filter(|(_, d)| d.get("i") == Some(&Value::Int(99)))
                .count()
        })
        .unwrap();
    assert_eq!(with_99, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_database_survives_store_reopen() {
    // Per-shard persistence: one collection per shard plus a manifest,
    // reassembled byte-identically across a real disk reopen.
    let dir = tmp_dir("sharded-reopen");
    let flat = build_token_db(4);
    let wide = ShardedTokenDatabase::from_database(&flat, 4);

    {
        let store = Database::open(&dir, DbOptions::default()).unwrap();
        wide.persist_to(&store, "tokens").unwrap();
        store.checkpoint().unwrap();
    }
    let store = Database::open(&dir, DbOptions::default()).unwrap();
    assert_eq!(
        ShardedTokenDatabase::manifest_shards(&store, "tokens").unwrap(),
        Some(4)
    );
    let restored = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
    assert_eq!(restored.stats(), flat.stats());
    let a = look_up(&flat, "vaccine", LookupParams::paper_default()).unwrap();
    let b = look_up(&restored, "vaccine", LookupParams::paper_default()).unwrap();
    assert_eq!(a, b, "queries identical after sharded restore");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_repersist_with_fewer_shards_replaces_layout() {
    // Regression (replace-not-append): persist with 6 shards, re-persist
    // with 2 under the same name, reopen from disk — only the 2-shard
    // layout may survive, stale shard collections included.
    let dir = tmp_dir("sharded-repersist");
    let flat = build_token_db(5);
    {
        let store = Database::open(&dir, DbOptions::default()).unwrap();
        ShardedTokenDatabase::from_database(&flat, 6)
            .persist_to(&store, "tokens")
            .unwrap();
        ShardedTokenDatabase::from_database(&flat, 2)
            .persist_to(&store, "tokens")
            .unwrap();
    }
    let store = Database::open(&dir, DbOptions::default()).unwrap();
    // Shard collections are generation-tagged (`tokens__g{g}__shard{i}`);
    // exactly one generation — the 2-shard one — may survive the sweep.
    assert_eq!(store.collections_with_prefix("tokens__g").len(), 2);
    let restored = ShardedTokenDatabase::load_from(&store, "tokens").unwrap();
    assert_eq!(restored.num_shards(), 2);
    assert_eq!(restored.stats(), flat.stats());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_double_persist_then_load_is_exact() {
    // Regression for the replace semantics of TokenDatabase::persist_to:
    // persisting twice to the same collection must not append.
    let db = build_token_db(6);
    let store = Database::in_memory();
    db.persist_to(&store, "tokens").unwrap();
    db.persist_to(&store, "tokens").unwrap();
    let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
    assert_eq!(restored.stats(), db.stats());
    assert_eq!(
        look_up(&restored, "vaccine", LookupParams::paper_default()).unwrap(),
        look_up(&db, "vaccine", LookupParams::paper_default()).unwrap()
    );
}

#[test]
fn incremental_ingest_after_restore_continues() {
    let dir = tmp_dir("incremental");
    let db = build_token_db(3);
    {
        let store = Database::open(&dir, DbOptions::default()).unwrap();
        db.persist_to(&store, "tokens").unwrap();
        store.checkpoint().unwrap();
    }
    let store = Database::open(&dir, DbOptions::default()).unwrap();
    let mut restored = TokenDatabase::load_from(&store, "tokens").unwrap();
    let before = restored.stats().unique_tokens;
    restored.ingest_text("a brand new zorbified token appears");
    assert!(restored.stats().unique_tokens > before);
    // And persisting again round-trips the grown database.
    restored.persist_to(&store, "tokens").unwrap();
    let again = TokenDatabase::load_from(&store, "tokens").unwrap();
    assert_eq!(again.stats(), restored.stats());
    let _ = std::fs::remove_dir_all(&dir);
}
