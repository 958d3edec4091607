//! The database: named collections + durability.
//!
//! All mutations follow write-ahead discipline: append to the WAL, then
//! apply in memory. Each checks, logs and applies under one write lock —
//! the collection map's for collection operations, the collection's for
//! document operations — so the log orders mutations as memory does.
//! Reads take the shared lock only. [`Database::checkpoint`] reads every
//! collection under those locks before it takes the WAL (the order every
//! writer takes them in), so it never snapshots around a logged but
//! unapplied mutation; it snapshots atomically and truncates the WAL.
//! [`Database::open`] recovers snapshot + WAL replay.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bytes::BytesMut;
use cryptext_common::failpoint;
use cryptext_common::{Error, Result};
use parking_lot::{Mutex, RwLock};

use crate::collection::{Collection, DocId};
use crate::snapshot;
use crate::value::Document;
use crate::wal::{encode_doc_op, read_wal, WalOp, WalWriter, OP_INSERT, OP_UPDATE};

/// Whether WAL appends fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// `fsync` on every append — maximum durability, slowest.
    EveryAppend,
    /// Flush to the OS on every append, fsync only at checkpoints. A process
    /// crash loses nothing; an OS crash may lose the tail. The default, and
    /// what the experiments use.
    #[default]
    OsBuffered,
}

/// Options for opening a persistent database.
#[derive(Debug, Clone, Default)]
pub struct DbOptions {
    /// WAL sync mode.
    pub wal_sync: WalSync,
}

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "db.snapshot";

struct Persistence {
    dir: PathBuf,
    wal: Mutex<WalWriter>,
    sync_mode: WalSync,
}

/// An embedded multi-collection document database.
pub struct Database {
    collections: RwLock<BTreeMap<String, RwLock<Collection>>>,
    persistence: Option<Persistence>,
}

impl Database {
    /// A purely in-memory database (no WAL, no snapshots).
    pub fn in_memory() -> Self {
        Database {
            collections: RwLock::new(BTreeMap::new()),
            persistence: None,
        }
    }

    /// Open (or create) a persistent database in `dir`, recovering state
    /// from the latest snapshot plus WAL replay. A torn WAL tail is
    /// tolerated silently (crash recovery); the reclaimed log keeps
    /// appending after the intact prefix. A record or snapshot this
    /// version cannot read (see [`wal::read_wal`](crate::wal::read_wal))
    /// is [`Error::Corrupt`], with both files left as they were.
    pub fn open(dir: &Path, opts: DbOptions) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let mut map = BTreeMap::new();
        for coll in snapshot::read_snapshot(&snapshot_path)? {
            map.insert(coll.name().to_string(), RwLock::new(coll));
        }
        let wal_read = read_wal(&wal_path)?;
        for op in wal_read.ops {
            Self::apply_to_map(&mut map, op)?;
        }
        // If the tail was torn, rewrite the log to only the intact prefix
        // is unnecessary: appends after the torn frame would be unreadable.
        // Instead, checkpoint-on-open when a torn tail was detected.
        let db = Database {
            collections: RwLock::new(map),
            persistence: Some(Persistence {
                dir: dir.to_path_buf(),
                wal: Mutex::new(WalWriter::open(
                    &wal_path,
                    opts.wal_sync == WalSync::EveryAppend,
                )?),
                sync_mode: opts.wal_sync,
            }),
        };
        if wal_read.truncated_tail {
            db.checkpoint()?;
        }
        Ok(db)
    }

    fn apply_to_map(map: &mut BTreeMap<String, RwLock<Collection>>, op: WalOp) -> Result<()> {
        match op {
            WalOp::CreateCollection { name } => {
                map.entry(name.clone())
                    .or_insert_with(|| RwLock::new(Collection::new(name)));
            }
            WalOp::DropCollection { name } => {
                map.remove(&name);
            }
            WalOp::Insert {
                collection,
                id,
                doc,
            } => {
                if let Some(c) = map.get_mut(&collection) {
                    c.get_mut().insert_with_id(id, doc);
                }
            }
            WalOp::Update {
                collection,
                id,
                doc,
            } => {
                if let Some(c) = map.get_mut(&collection) {
                    // Replay tolerates updates to ids missing after a
                    // partial history — treated as inserts.
                    c.get_mut().insert_with_id(id, doc);
                }
            }
            WalOp::Delete { collection, id } => {
                if let Some(c) = map.get_mut(&collection) {
                    c.get_mut().delete(DocId(id));
                }
            }
            WalOp::RenameCollection { from, to } => {
                if let Some(mut coll) = map.remove(&from) {
                    coll.get_mut().set_name(&to);
                    map.insert(to, coll);
                }
            }
        }
        Ok(())
    }

    fn log(&self, op: &WalOp) -> Result<()> {
        self.log_with(|buf| op.encode(buf))
    }

    /// Append one record whose payload `encode` writes — only when there is
    /// a WAL to append to, so an in-memory database encodes nothing.
    fn log_with(&self, encode: impl FnOnce(&mut BytesMut)) -> Result<()> {
        if let Some(p) = &self.persistence {
            p.wal.lock().append_with(encode)?;
        }
        Ok(())
    }

    /// Create a collection (idempotent).
    pub fn create_collection(&self, name: &str) -> Result<()> {
        let mut map = self.collections.write();
        if !map.contains_key(name) {
            self.log(&WalOp::CreateCollection { name: name.into() })?;
            map.insert(name.to_string(), RwLock::new(Collection::new(name)));
        }
        Ok(())
    }

    /// Drop a collection and all its documents.
    pub fn drop_collection(&self, name: &str) -> Result<()> {
        let mut map = self.collections.write();
        self.log(&WalOp::DropCollection { name: name.into() })?;
        map.remove(name);
        Ok(())
    }

    /// Rename collection `from` to `to`, replacing any collection already
    /// at `to`. A single WAL record makes the swap atomic under crash
    /// recovery, which is what crash-safe persists pivot on: build the new
    /// state under a staging name, then rename over the live name — a
    /// reopen sees either the complete old state or the complete new one.
    pub fn rename_collection(&self, from: &str, to: &str) -> Result<()> {
        let mut map = self.collections.write();
        if !map.contains_key(from) {
            return Err(Error::not_found(format!("collection {from}")));
        }
        if from == to {
            return Ok(());
        }
        self.log(&WalOp::RenameCollection {
            from: from.into(),
            to: to.into(),
        })?;
        let mut coll = map.remove(from).expect("checked under this lock");
        coll.get_mut().set_name(to);
        map.insert(to.to_string(), coll);
        Ok(())
    }

    /// Names of all collections, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    /// Does `name` exist?
    pub fn has_collection(&self, name: &str) -> bool {
        self.collections.read().contains_key(name)
    }

    /// Names of all collections starting with `prefix`, sorted. Sharded
    /// persists name their per-shard collections `{base}__shard{i}`; this
    /// lets a re-persist find and replace every collection of the previous
    /// layout, including stale shards from a larger prior shard count.
    pub fn collections_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.collections
            .read()
            .keys()
            .filter(|name| name.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn with_collection<R>(
        &self,
        name: &str,
        f: impl FnOnce(&RwLock<Collection>) -> R,
    ) -> Result<R> {
        let read = self.collections.read();
        let coll = read
            .get(name)
            .ok_or_else(|| Error::not_found(format!("collection {name}")))?;
        Ok(f(coll))
    }

    /// Insert a document, returning its id.
    pub fn insert(&self, collection: &str, doc: Document) -> Result<DocId> {
        // Reserve the id under the write lock, logging first.
        let read = self.collections.read();
        let coll = read
            .get(collection)
            .ok_or_else(|| Error::not_found(format!("collection {collection}")))?;
        let mut guard = coll.write();
        let id = guard.next_id();
        self.log_with(|buf| encode_doc_op(OP_INSERT, collection, id, &doc, buf))?;
        guard.insert_with_id(id, doc);
        Ok(DocId(id))
    }

    /// Replace the document at `id`. A missing id is
    /// [`Error::NotFound`] and logs nothing. Like [`insert`](Self::insert),
    /// it checks, logs and applies under the collection's write lock, so
    /// the log orders writes to one id as memory does.
    pub fn update(&self, collection: &str, id: DocId, doc: Document) -> Result<()> {
        self.with_collection(collection, |c| {
            let mut guard = c.write();
            if guard.get(id).is_none() {
                return Err(Error::not_found(format!("{collection}{id}")));
            }
            self.log_with(|buf| encode_doc_op(OP_UPDATE, collection, id.0, &doc, buf))?;
            guard.update(id, doc)
        })?
    }

    /// Delete the document at `id`; `Ok(true)` when something was removed.
    /// A missing id logs nothing. Locked as [`update`](Self::update) is.
    pub fn delete(&self, collection: &str, id: DocId) -> Result<bool> {
        self.with_collection(collection, |c| {
            let mut guard = c.write();
            if guard.get(id).is_none() {
                return Ok(false);
            }
            self.log(&WalOp::Delete {
                collection: collection.into(),
                id: id.0,
            })?;
            Ok(guard.delete(id))
        })?
    }

    /// Fetch by id (cloned).
    pub fn get(&self, collection: &str, id: DocId) -> Result<Option<Document>> {
        self.with_collection(collection, |c| c.read().get(id).cloned())
    }

    /// Number of documents in a collection.
    pub fn len(&self, collection: &str) -> Result<usize> {
        self.with_collection(collection, |c| c.read().len())
    }

    /// Run a closure over the raw collection (shared lock). For bulk reads
    /// that would otherwise clone large result sets.
    pub fn read_collection<R>(&self, name: &str, f: impl FnOnce(&Collection) -> R) -> Result<R> {
        self.with_collection(name, |c| f(&c.read()))
    }

    /// Write a snapshot of every collection and truncate the WAL. On
    /// return, the snapshot alone reconstructs current state.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(p) = &self.persistence else {
            return Ok(()); // nothing to do in memory mode
        };
        let snapshot_path = p.dir.join(SNAPSHOT_FILE);
        let wal_path = p.dir.join(WAL_FILE);

        // Lock in the writers' order, the collections before the WAL (see
        // the module doc): a writer holds its lock while it appends, so
        // taking the WAL first deadlocks against it. Hold the WAL lock
        // across snapshot + truncate so no append lands between the
        // snapshot and the reset.
        let read = self.collections.read();
        let guards: Vec<_> = read.values().map(|c| c.read()).collect();
        let mut wal_guard = p.wal.lock();
        let refs: Vec<&Collection> = guards.iter().map(|g| &**g).collect();
        snapshot::write_snapshot(&snapshot_path, &refs)?;
        // Crash window between snapshot install and WAL truncation: safe,
        // because replay on top of the new snapshot is idempotent (explicit
        // ids; inserts replace). Pinned by fault-injection tests.
        failpoint::check("db.checkpoint.truncate")?;
        // Truncate by recreating the file, then swap the writer handle.
        std::fs::write(&wal_path, [])?;
        *wal_guard = WalWriter::open(&wal_path, p.sync_mode == WalSync::EveryAppend)?;
        Ok(())
    }

    /// Force the WAL to stable storage (`fsync`) whatever the
    /// [`WalSync`] mode: on return, every mutation logged so far survives
    /// power loss. A no-op in memory. Fires the `db.sync` failpoint first,
    /// so crash tests can kill the process just before the flush.
    pub fn sync(&self) -> Result<()> {
        let Some(p) = &self.persistence else {
            return Ok(());
        };
        failpoint::check("db.sync")?;
        p.wal.lock().sync()
    }

    /// Is this database persistent?
    pub fn is_persistent(&self) -> bool {
        self.persistence.is_some()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("collections", &self.collection_names())
            .field("persistent", &self.is_persistent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::wal::FrameWriter;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cryptext-db-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed(db: &Database) {
        db.create_collection("tokens").unwrap();
        for (t, codes) in [
            ("the", vec!["TH000"]),
            ("thee", vec!["TH000"]),
            ("dirrrty", vec!["DI630"]),
        ] {
            db.insert(
                "tokens",
                Document::new().with("token", t).with(
                    "codes",
                    codes.into_iter().map(Value::from).collect::<Vec<_>>(),
                ),
            )
            .unwrap();
        }
    }

    /// Ids of the `tokens` documents whose `codes` array holds `code`, in
    /// id order.
    fn ids_with_code(db: &Database, code: &str) -> Vec<DocId> {
        let code = Value::from(code);
        let mut ids: Vec<DocId> = db
            .read_collection("tokens", |c| {
                c.scan()
                    .filter(|(_, d)| {
                        d.get("codes")
                            .and_then(Value::as_array)
                            .is_some_and(|codes| codes.contains(&code))
                    })
                    .map(|(id, _)| id)
                    .collect()
            })
            .unwrap();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn in_memory_crud() {
        let db = Database::in_memory();
        seed(&db);
        assert_eq!(db.len("tokens").unwrap(), 3);
        let hits = ids_with_code(&db, "TH000");
        assert_eq!(hits.len(), 2);
        let id = hits[0];
        db.update("tokens", id, Document::new().with("token", "THE"))
            .unwrap();
        assert_eq!(
            db.get("tokens", id).unwrap().unwrap().get("token"),
            Some(&Value::from("THE"))
        );
        assert!(db.delete("tokens", id).unwrap());
        assert_eq!(db.len("tokens").unwrap(), 2);
    }

    #[test]
    fn missing_collection_errors() {
        let db = Database::in_memory();
        assert!(db.insert("nope", Document::new()).is_err());
        assert!(db.read_collection("nope", |c| c.len()).is_err());
        assert!(matches!(db.len("nope").unwrap_err(), Error::NotFound(_)));
    }

    #[test]
    fn collections_with_prefix_filters_and_sorts() {
        let db = Database::in_memory();
        for name in ["tokens", "tokens__shard1", "tokens__shard0", "other"] {
            db.create_collection(name).unwrap();
        }
        assert_eq!(
            db.collections_with_prefix("tokens__shard"),
            vec!["tokens__shard0".to_string(), "tokens__shard1".to_string()]
        );
        assert!(db.collections_with_prefix("nope").is_empty());
    }

    #[test]
    fn rename_collection_replaces_destination_and_survives_recovery() {
        let dir = tmp_dir("rename");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            seed(&db); // "tokens" with 3 docs
            db.create_collection("tokens__staging").unwrap();
            db.insert("tokens__staging", Document::new().with("token", "fresh"))
                .unwrap();
            db.rename_collection("tokens__staging", "tokens").unwrap();
            assert_eq!(db.len("tokens").unwrap(), 1, "destination replaced");
            assert!(!db.has_collection("tokens__staging"));
        }
        // The swap is one WAL record: recovery replays it atomically.
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 1);
        assert!(!db.has_collection("tokens__staging"));
        // The renamed collection's own name field followed it (snapshots
        // key on it).
        db.checkpoint().unwrap();
        drop(db);
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 1, "consistent after snapshot");
    }

    #[test]
    fn rename_missing_collection_errors() {
        let db = Database::in_memory();
        assert!(matches!(
            db.rename_collection("nope", "x").unwrap_err(),
            Error::NotFound(_)
        ));
    }

    #[test]
    fn checkpoint_crash_before_truncate_recovers_idempotently() {
        // Crash window between snapshot install and WAL truncation: the
        // snapshot already holds the state and the stale WAL replays on
        // top of it. Replay is idempotent (explicit ids, replacing
        // inserts), so the reopened state matches exactly.
        let dir = tmp_dir("ckpt-crash");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            seed(&db);
            cryptext_common::failpoint::reset_hits();
            let _g = cryptext_common::failpoint::arm("db.checkpoint.truncate", "kill@1");
            let err = db.checkpoint().unwrap_err();
            assert!(cryptext_common::failpoint::is_injected(&err));
        }
        assert!(
            std::fs::metadata(dir.join("wal.log")).unwrap().len() > 0,
            "WAL survived (truncate never ran)"
        );
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 3, "snapshot + stale WAL replay");
        assert_eq!(ids_with_code(&db, "TH000").len(), 2);
    }

    #[test]
    fn sync_flushes_and_is_a_failpoint_boundary() {
        let dir = tmp_dir("sync-call");
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        seed(&db);
        db.sync().unwrap();
        {
            cryptext_common::failpoint::reset_hits();
            let _g = cryptext_common::failpoint::arm("db.sync", "kill@1");
            let err = db.sync().unwrap_err();
            assert!(cryptext_common::failpoint::is_injected(&err));
            // In memory there is no WAL to flush and no boundary to hit.
            Database::in_memory().sync().unwrap();
        }
        drop(db);
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 3);
    }

    #[test]
    fn create_collection_idempotent() {
        let db = Database::in_memory();
        db.create_collection("c").unwrap();
        db.insert("c", Document::new().with("x", 1i64)).unwrap();
        db.create_collection("c").unwrap();
        assert_eq!(db.len("c").unwrap(), 1, "re-create does not clear");
    }

    #[test]
    fn persistent_recovery_from_wal_only() {
        let dir = tmp_dir("wal-only");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            seed(&db);
        } // dropped without checkpoint: WAL is the only record
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 3);
        assert_eq!(
            ids_with_code(&db, "TH000").len(),
            2,
            "documents rebuilt through WAL replay"
        );
    }

    #[test]
    fn persistent_recovery_from_snapshot_plus_wal() {
        let dir = tmp_dir("snap-wal");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            seed(&db);
            db.checkpoint().unwrap();
            // Post-checkpoint mutations only live in the new WAL.
            db.insert(
                "tokens",
                Document::new()
                    .with("token", "new")
                    .with("codes", vec!["NE000"]),
            )
            .unwrap();
        }
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 4);
        assert_eq!(ids_with_code(&db, "NE000").len(), 1);
    }

    #[test]
    fn ids_continue_after_recovery() {
        let dir = tmp_dir("ids");
        let last_id;
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            db.create_collection("c").unwrap();
            db.insert("c", Document::new().with("n", 0i64)).unwrap();
            last_id = db.insert("c", Document::new().with("n", 1i64)).unwrap();
        }
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        let next = db.insert("c", Document::new().with("n", 2i64)).unwrap();
        assert!(next.0 > last_id.0, "no id reuse after recovery");
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let dir = tmp_dir("torn");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            seed(&db);
        }
        // Tear the last few bytes off the WAL.
        let wal_path = dir.join("wal.log");
        let data = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &data[..data.len() - 5]).unwrap();
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        // Last insert lost, earlier ones intact.
        assert_eq!(db.len("tokens").unwrap(), 2);
        // And the database re-checkpointed, so reopening is clean.
        drop(db);
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 2);
    }

    #[test]
    fn a_zero_filled_wal_tail_is_a_torn_tail() {
        // What a crash leaves when the log's new size reached the disk
        // before its data: zero bytes, which frame as empty payloads with
        // valid CRCs (two here, then four torn bytes).
        let dir = tmp_dir("zero-tail");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            seed(&db);
        }
        let wal_path = dir.join(WAL_FILE);
        let mut wal = std::fs::read(&wal_path).unwrap();
        wal.extend_from_slice(&[0; 20]);
        std::fs::write(&wal_path, wal).unwrap();
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 3);
        db.insert("tokens", Document::new()).unwrap();
        drop(db);
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 4, "later appends stay reachable");
    }

    #[test]
    fn open_with_corrupt_snapshot_is_error_not_panic() {
        // The startup load path: a snapshot file that is garbage, or one
        // with a valid frame but absurd structural counts, must surface as
        // `Err` from `open` — the process stays alive to report it.
        let dir = tmp_dir("corrupt-snap");
        std::fs::write(dir.join("db.snapshot"), b"CXDBgarbage-not-a-snapshot").unwrap();
        assert!(Database::open(&dir, DbOptions::default()).is_err());

        // Truncated snapshot (half a real one).
        let dir2 = tmp_dir("trunc-snap");
        {
            let db = Database::open(&dir2, DbOptions::default()).unwrap();
            seed(&db);
            db.checkpoint().unwrap();
        }
        let snap = std::fs::read(dir2.join("db.snapshot")).unwrap();
        std::fs::write(dir2.join("db.snapshot"), &snap[..snap.len() / 2]).unwrap();
        assert!(Database::open(&dir2, DbOptions::default()).is_err());
    }

    #[test]
    fn open_with_garbage_wal_recovers_snapshot_state() {
        // Snapshot intact, WAL replaced with garbage: replay treats it as
        // a torn log, recovers the checkpointed state, and re-checkpoints.
        let dir = tmp_dir("garbage-wal");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            seed(&db);
            db.checkpoint().unwrap();
        }
        std::fs::write(dir.join("wal.log"), [0xFFu8; 64]).unwrap();
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 3, "snapshot state intact");
        drop(db);
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.len("tokens").unwrap(), 3, "clean after re-checkpoint");
    }

    #[test]
    fn checkpoint_truncates_wal() {
        let dir = tmp_dir("ckpt");
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        seed(&db);
        let wal_len_before = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert!(wal_len_before > 0);
        db.checkpoint().unwrap();
        let wal_len_after = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(wal_len_after, 0);
        assert!(dir.join("db.snapshot").exists());
    }

    #[test]
    fn drop_collection_survives_recovery() {
        let dir = tmp_dir("drop");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            seed(&db);
            db.drop_collection("tokens").unwrap();
        }
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert!(!db.has_collection("tokens"));
    }

    #[test]
    fn every_append_sync_mode_works() {
        let dir = tmp_dir("sync");
        let db = Database::open(
            &dir,
            DbOptions {
                wal_sync: WalSync::EveryAppend,
            },
        )
        .unwrap();
        seed(&db);
        assert_eq!(db.len("tokens").unwrap(), 3);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let db = Arc::new(Database::in_memory());
        db.create_collection("c").unwrap();
        // Documents of writer `t`, counted under the shared lock.
        let count_shard = |db: &Database, t: i64| {
            db.read_collection("c", |c| {
                c.scan()
                    .filter(|(_, d)| d.get("shard") == Some(&Value::Int(t)))
                    .count()
            })
            .unwrap()
        };
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..100i64 {
                    db.insert("c", Document::new().with("shard", t).with("i", i))
                        .unwrap();
                    let _ = count_shard(&db, t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len("c").unwrap(), 400);
        for t in 0..4i64 {
            assert_eq!(count_shard(&db, t), 100);
        }
    }

    #[test]
    fn read_collection_gives_zero_copy_access() {
        let db = Database::in_memory();
        seed(&db);
        let n = db
            .read_collection("tokens", |c| {
                c.scan().filter(|(_, d)| d.get("token").is_some()).count()
            })
            .unwrap();
        assert_eq!(n, 3);
    }

    /// Assert `got == want`, naming the first differing byte rather than
    /// printing both 37KB buffers.
    fn assert_bytes(got: &[u8], want: &[u8], what: &str) {
        let at = got
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        assert!(
            got == want,
            "{what}: {} bytes, want {}; first difference at byte {at}",
            got.len(),
            want.len()
        );
    }

    /// The bytes of a fixed history: every WAL record kind, every value
    /// tag and a frame larger than a write buffer, then the snapshot its
    /// checkpoint leaves. A change to the value encoding, the framing or
    /// the snapshot layout fails here, where stores already on disk would
    /// stop opening.
    #[test]
    fn wal_and_snapshot_bytes_are_pinned() {
        // The big document's 4,096 items, each `Int(0x0102030405060708)`.
        const ITEM: &[u8] = b"\x03\x08\x07\x06\x05\x04\x03\x02\x01";
        const WAL_HEAD: &[u8] = b"\
            \x0c\x00\x00\x00b\xa4\x19\xd2\x01\x07\x00\x00\x00scalarse\x00\x00\x00\x28\x86\xd3#\x04\
            \x07\x00\x00\x00scalars\x00\x00\x00\x00\x00\x00\x00\x00\x07\x06\x00\x00\x00\x05\x00\x00\
            \x00float\x04\x00\x00\x00\x00\x00\x00\x04\x40\x03\x00\x00\x00int\x03\xfe\xff\xff\xff\
            \xff\xff\xff\xff\x02\x00\x00\x00no\x01\x04\x00\x00\x00null\x00\x03\x00\x00\x00str\x05\
            \x06\x00\x00\x00dirrty\x03\x00\x00\x00yes\x02\x0b\x00\x00\x00\x21\x7d\x1c\xbc\x01\x06\
            \x00\x00\x00nested:\x00\x00\x00\x0b\xd7\x5do\x04\x06\x00\x00\x00nested\x00\x00\x00\x00\
            \x00\x00\x00\x00\x07\x01\x00\x00\x00\x05\x00\x00\x00codes\x06\x02\x00\x00\x00\x05\x05\
            \x00\x00\x00TH000\x05\x05\x00\x00\x00DI630O\x00\x00\x00\xe4\xd1\x97\x83\x05\x06\x00\x00\
            \x00nested\x00\x00\x00\x00\x00\x00\x00\x00\x07\x02\x00\x00\x00\x05\x00\x00\x00codes\x06\
            \x01\x00\x00\x00\x05\x05\x00\x00\x00TH000\x04\x00\x00\x00meta\x07\x01\x00\x00\x00\x05\
            \x00\x00\x00count\x03\x03\x00\x00\x00\x00\x00\x00\x00\x26\x00\x00\x00\xaa\x98\x22\xd9\
            \x04\x06\x00\x00\x00nested\x01\x00\x00\x00\x00\x00\x00\x00\x07\x01\x00\x00\x00\x01\x00\
            \x00\x00x\x03\x01\x00\x00\x00\x00\x00\x00\x00\x13\x00\x00\x00j\xa0\xf6\xfa\x06\x06\x00\
            \x00\x00nested\x01\x00\x00\x00\x00\x00\x00\x00\x0c\x00\x00\x00\xd8\xc9u\xe9\x01\x07\x00\
            \x00\x00staging\x27\x90\x00\x00\xf5\x3c\xa2\x2b\x04\x07\x00\x00\x00staging\x00\x00\x00\
            \x00\x00\x00\x00\x00\x07\x01\x00\x00\x00\x05\x00\x00\x00items\x06\x00\x10\x00\x00";
        const WAL_TAIL: &[u8] = b"\
            \x13\x00\x00\x00\xf8\x96l\x29\x07\x07\x00\x00\x00staging\x03\x00\x00\x00big\x0c\x00\x00\
            \x00LI\xa1\x86\x01\x07\x00\x00\x00dropped\x0c\x00\x00\x00\xbc\x9b\x3f\xf1\x02\x07\x00\
            \x00\x00dropped";
        const SNAPSHOT_HEAD: &[u8] = b"\
            CXDB\x01\x00\x00\x00\x03\x00\x00\x00\x03\x00\x00\x00big\x01\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x07\
            \x01\x00\x00\x00\x05\x00\x00\x00items\x06\x00\x10\x00\x00";
        const SNAPSHOT_TAIL: &[u8] = b"\
            \x06\x00\x00\x00nested\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x07\x02\x00\x00\x00\x05\x00\x00\x00cod\
            es\x06\x01\x00\x00\x00\x05\x05\x00\x00\x00TH000\x04\x00\x00\x00meta\x07\x01\x00\x00\x00\
            \x05\x00\x00\x00count\x03\x03\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00scalars\x01\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x07\x06\x00\x00\x00\x05\x00\x00\x00float\x04\x00\x00\x00\x00\
            \x00\x00\x04\x40\x03\x00\x00\x00int\x03\xfe\xff\xff\xff\xff\xff\xff\xff\x02\x00\x00\x00\
            no\x01\x04\x00\x00\x00null\x00\x03\x00\x00\x00str\x05\x06\x00\x00\x00dirrty\x03\x00\x00\
            \x00yes\x02\x7b\xb8o\x92";
        let pinned = |head: &[u8], tail: &[u8]| [head, &ITEM.repeat(4096), tail].concat();

        let dir = tmp_dir("golden");
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        db.create_collection("scalars").unwrap();
        db.insert(
            "scalars",
            Document::new()
                .with("null", Value::Null)
                .with("no", false)
                .with("yes", true)
                .with("int", -2i64)
                .with("float", 2.5)
                .with("str", "dirrty"),
        )
        .unwrap();
        db.create_collection("nested").unwrap();
        let id = db
            .insert(
                "nested",
                Document::new().with("codes", vec!["TH000", "DI630"]),
            )
            .unwrap();
        let meta = Value::Object(BTreeMap::from([("count".to_string(), Value::Int(3))]));
        db.update(
            "nested",
            id,
            Document::new()
                .with("codes", vec!["TH000"])
                .with("meta", meta),
        )
        .unwrap();
        let gone = db
            .insert("nested", Document::new().with("x", 1i64))
            .unwrap();
        assert!(db.delete("nested", gone).unwrap());
        db.create_collection("staging").unwrap();
        let items = vec![Value::Int(0x0102_0304_0506_0708); 4096];
        db.insert("staging", Document::new().with("items", items))
            .unwrap();
        db.rename_collection("staging", "big").unwrap();
        db.create_collection("dropped").unwrap();
        db.drop_collection("dropped").unwrap();

        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_bytes(&wal, &pinned(WAL_HEAD, WAL_TAIL), "wal.log");
        db.checkpoint().unwrap();
        let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        assert_bytes(
            &snapshot,
            &pinned(SNAPSHOT_HEAD, SNAPSHOT_TAIL),
            "db.snapshot",
        );
        assert!(std::fs::read(dir.join(WAL_FILE)).unwrap().is_empty());
    }

    /// Open a log of three inserts, the CRC-valid frame `bad`, then three
    /// more inserts. A crash cannot leave such a frame, so `open` must
    /// refuse it as corrupt and leave the log as it was: reading it as a
    /// torn tail would checkpoint over the first three inserts and
    /// truncate the last three away.
    fn open_refuses_undecodable_record(name: &str, bad: &[u8]) {
        let dir = tmp_dir(name);
        let wal_path = dir.join(WAL_FILE);
        let append = |ids: std::ops::Range<u64>| {
            let mut wal = WalWriter::open(&wal_path, false).unwrap();
            for id in ids {
                let doc = Document::new().with("i", id);
                wal.append(&WalOp::Insert {
                    collection: "t".into(),
                    id,
                    doc,
                })
                .unwrap();
            }
        };
        WalWriter::open(&wal_path, false)
            .unwrap()
            .append(&WalOp::CreateCollection { name: "t".into() })
            .unwrap();
        append(0..3);
        FrameWriter::open(&wal_path, false, "wal.append")
            .unwrap()
            .append_frame(bad)
            .unwrap();
        append(3..6);

        let before = std::fs::read(&wal_path).unwrap();
        let err = Database::open(&dir, DbOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert_eq!(std::fs::read(&wal_path).unwrap(), before, "log untouched");
        assert!(!dir.join(SNAPSHOT_FILE).exists(), "no checkpoint");
    }

    #[test]
    fn an_undecodable_wal_record_is_corrupt_not_a_torn_tail() {
        open_refuses_undecodable_record("unknown-tag", &[0xEE, 1, 2, 3]);
    }

    #[test]
    fn a_retired_index_record_is_corrupt() {
        // Tag 3, an index on `t.codes`, as stores with secondary indexes
        // logged it.
        open_refuses_undecodable_record("index-record", b"\x03\x01\0\0\0t\x05\0\0\0codes");
    }

    #[test]
    fn a_snapshot_declaring_an_index_is_corrupt() {
        // `tokens` with one document and an index on `codes`, as
        // checkpointed when collections still had secondary indexes.
        const INDEXED_SNAPSHOT: &[u8] = b"\
            CXDB\x01\x00\x00\x00\x01\x00\x00\x00\x06\x00\x00\x00tokens\x01\x00\x00\x00\x00\x00\x00\
            \x00\x01\x00\x00\x00\x05\x00\x00\x00codes\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x07\x02\x00\x00\x00\x05\x00\x00\x00codes\x06\x01\x00\x00\x00\x05\
            \x05\x00\x00\x00TH000\x05\x00\x00\x00token\x05\x03\x00\x00\x00the\x3b\xae\x8e\xcd";
        let dir = tmp_dir("indexed-snapshot");
        std::fs::write(dir.join(SNAPSHOT_FILE), INDEXED_SNAPSHOT).unwrap();
        let err = Database::open(&dir, DbOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert!(
            err.to_string().contains("declares 1 secondary index"),
            "{err}"
        );
    }

    #[test]
    fn a_failed_update_or_delete_logs_nothing() {
        let dir = tmp_dir("update-missing");
        {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            db.create_collection("t").unwrap();
            db.insert("t", Document::new().with("x", 1i64)).unwrap();
            let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
            let logged = wal_len();
            let err = db
                .update("t", DocId(7), Document::new().with("x", 2i64))
                .unwrap_err();
            assert!(matches!(err, Error::NotFound(_)), "{err}");
            assert!(!db.delete("t", DocId(7)).unwrap());
            assert_eq!(db.len("t").unwrap(), 1);
            assert_eq!(wal_len(), logged, "nothing logged");
        }
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.get("t", DocId(7)).unwrap(), None, "no ghost document");
        assert_eq!(db.len("t").unwrap(), 1);
    }

    #[test]
    fn writes_racing_checkpoints_neither_deadlock_nor_lose_records() {
        // Every writer holds its lock while it appends, and a checkpoint
        // takes those locks before the WAL. Taking the WAL first deadlocked
        // against an insert within a second; logging a collection
        // operation outside the map's lock let a checkpoint snapshot
        // without it and truncate its record away.
        use std::sync::{mpsc, Arc};
        let dir = tmp_dir("ckpt-race");
        let db = Arc::new(Database::open(&dir, DbOptions::default()).unwrap());
        db.create_collection("t").unwrap();
        let (done, finished) = mpsc::channel();
        let roles: Vec<_> = (0..4)
            .map(|role| {
                let (db, done) = (Arc::clone(&db), done.clone());
                std::thread::spawn(move || {
                    let id = db.insert("t", Document::new()).unwrap();
                    for i in 0..2_000i64 {
                        match role {
                            0 => db.checkpoint().unwrap(),
                            1 => {
                                let new = db.insert("t", Document::new().with("i", i)).unwrap();
                                assert!(db.delete("t", new).unwrap());
                            }
                            2 => db.update("t", id, Document::new().with("i", i)).unwrap(),
                            _ => {
                                db.create_collection("staging").unwrap();
                                db.insert("staging", Document::new().with("i", i)).unwrap();
                                db.rename_collection("staging", "live").unwrap();
                                if i % 2 == 1 {
                                    db.drop_collection("live").unwrap();
                                }
                            }
                        }
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        drop(done);
        for _ in 0..roles.len() {
            finished
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("every role finishes: a timeout is a deadlock");
        }
        for role in roles {
            role.join().unwrap();
        }
        // Every collection's documents in id order.
        let state = |db: &Database| -> Vec<(String, Vec<(DocId, Document)>)> {
            let docs = |c: &Collection| {
                let mut docs: Vec<_> = c.scan().map(|(id, d)| (id, d.clone())).collect();
                docs.sort_by_key(|&(id, _)| id);
                docs
            };
            db.collection_names()
                .into_iter()
                .map(|name| {
                    let docs = db.read_collection(&name, docs).unwrap();
                    (name, docs)
                })
                .collect()
        };
        let before = state(&db);
        drop(db);
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(state(&db), before, "reopen equals memory");
    }
}
