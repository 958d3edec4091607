//! Fault-injection smoke: durable streaming ingest under the
//! **environment-driven** failpoint plane.
//!
//! The in-crate crash sweeps (`cryptext-core/src/durable.rs`) arm
//! thread-local failpoints and kill at every write boundary of a short
//! workload. This test covers the other plane: `CRYPTEXT_FAILPOINTS` is
//! read once per process and fires on every thread, so CI arms one spec
//! per fresh process over a longer workload (90 one-post batches, three
//! compactions) and checks the process-level contract below.
//!
//! Two modes, same code path:
//!
//! * **Unarmed** (plain `cargo test`): the workload runs to completion and
//!   must land byte-identical to an in-memory reference.
//! * **Armed** (CI sets `CRYPTEXT_FAILPOINTS`, e.g. `wal.append=kill@25`):
//!   the workload dies at the injected boundary. The contract under test:
//!   no panic, the error is the injected one, recovery `open` succeeds,
//!   and the recovered state equals the reference after some whole number
//!   of posts — never a half-applied batch. Env failpoints are monotonic
//!   ("a dead process stays dead"), so no further writes are attempted
//!   after the first failure.

use cryptext::common::failpoint;
use cryptext::core::durable::{DurableOptions, DurableTokenStore};
use cryptext::core::{TokenDatabase, TokenStats, TokenStore};
use cryptext::stream::{SocialPlatform, StreamConfig};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cryptext-fault-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn posts() -> Vec<String> {
    let platform = SocialPlatform::simulate(StreamConfig {
        n_posts: 90,
        seed: 9,
        ..StreamConfig::default()
    });
    platform.posts().iter().map(|p| p.text.clone()).collect()
}

/// Reference states: `out[k]` is the stats after ingesting the first `k`
/// posts into an ordinary in-memory store.
fn prefix_stats(posts: &[String]) -> Vec<TokenStats> {
    let mut db = TokenDatabase::in_memory();
    let mut out = vec![db.stats()];
    for p in posts {
        db.ingest_text(p);
        out.push(db.stats());
    }
    out
}

#[test]
fn durable_ingest_under_env_failpoints_never_corrupts() {
    let armed = std::env::var(failpoint::ENV_VAR).is_ok_and(|v| !v.trim().is_empty());
    let posts = posts();
    let prefixes = prefix_stats(&posts);
    let dir = tmp_dir("ingest");
    let opts = DurableOptions::default();

    let mut dur = match DurableTokenStore::<TokenDatabase>::open(&dir, opts) {
        Ok(d) => d,
        Err(e) => {
            // An env kill with a tiny threshold can fire inside the very
            // first open (manifest creation). That boundary is covered by
            // the in-crate sweeps; here it just ends the smoke early.
            assert!(
                armed && failpoint::is_injected(&e),
                "clean open failed: {e}"
            );
            return;
        }
    };

    // One batch per post, compacting every 30 posts: each compaction
    // persists an epoch snapshot, swaps the manifest, truncates the logs
    // and checkpoints the docstore.
    let mut failure: Option<cryptext::common::Error> = None;
    for (i, post) in posts.iter().enumerate() {
        if let Err(e) = dur.try_ingest_text(post) {
            failure = Some(e);
            break;
        }
        if (i + 1) % 30 == 0 {
            if let Err(e) = dur.compact() {
                failure = Some(e);
                break;
            }
        }
    }

    match failure {
        None => {
            assert!(
                !armed || !spec_reachable(),
                "armed run should have hit its failpoint"
            );
            assert_eq!(
                TokenStore::stats(dur.inner()),
                prefixes[posts.len()],
                "unarmed workload lands on the full reference"
            );
        }
        Some(e) => {
            assert!(armed, "unarmed workload must not fail: {e}");
            assert!(failpoint::is_injected(&e), "only injected faults: {e}");
        }
    }
    drop(dur);

    // Recovery must open (it only reads and truncates torn tails — env
    // failpoints sit on write boundaries) and must land on the state
    // after some whole number of posts: a batch is all-or-nothing.
    let dur =
        DurableTokenStore::<TokenDatabase>::open(&dir, opts).expect("recovery open never fails");
    let got = TokenStore::stats(dur.inner());
    let k = prefixes.iter().position(|s| *s == got);
    assert!(
        k.is_some(),
        "recovered state is not a whole-post prefix: {got:?}"
    );
    if !armed {
        assert_eq!(k, Some(posts.len()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Does the armed spec name a boundary this workload crosses? Specs
/// aimed at other boundaries legitimately never fire. The check matches
/// names only, so a spec that names a crossed boundary must fire: one
/// whose hit index lies past this workload's count for that boundary
/// (`wal.append=kill@25`, where the workload crosses 23) fails the test,
/// as CI's negative step requires. The counters are per process, so this
/// holds only when the test runs in a process of its own.
fn spec_reachable() -> bool {
    let spec = std::env::var(failpoint::ENV_VAR).unwrap_or_default();
    [
        "delta.append",
        "delta.commit",
        "wal.append",
        "persist.commit",
        "compact.manifest.swap",
        "snapshot.write",
        "*",
    ]
    .iter()
    .any(|name| spec.split([';', ',']).any(|p| p.trim().starts_with(name)))
}

#[test]
fn docstore_checkpoint_under_env_failpoints_never_corrupts() {
    use cryptext::docstore::{Database, DbOptions, Document};

    let dir = tmp_dir("docstore");
    let run = || -> cryptext::common::Result<()> {
        let store = Database::open(&dir, DbOptions::default())?;
        if !store.has_collection("t") {
            store.create_collection("t")?;
        }
        let base = store.len("t")?;
        for i in 0..40i64 {
            store.insert("t", Document::new().with("i", base as i64 + i))?;
        }
        store.checkpoint()?;
        Ok(())
    };
    let armed = std::env::var(failpoint::ENV_VAR).is_ok_and(|v| !v.trim().is_empty());
    match run() {
        Ok(()) => {}
        Err(e) => assert!(armed && failpoint::is_injected(&e), "unexpected: {e}"),
    }

    // Whatever happened, reopening recovers a usable store whose surviving
    // documents are a prefix of the insertion order.
    let store = Database::open(&dir, DbOptions::default()).expect("docstore recovery");
    if store.has_collection("t") {
        let mut survivors: Vec<i64> = store
            .read_collection("t", |c| {
                c.scan()
                    .map(|(_, d)| d.get("i").and_then(|i| i.as_int()).expect("int i"))
                    .collect()
            })
            .unwrap();
        survivors.sort_unstable();
        let n = store.len("t").unwrap() as i64;
        assert_eq!(
            survivors,
            (0..n).collect::<Vec<_>>(),
            "docs survive in insertion order"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
