//! The database: named collections + durability.
//!
//! All mutations follow write-ahead discipline: append to the WAL, then
//! apply to the in-memory collection under its lock. Reads take the shared
//! lock only. [`Database::checkpoint`] snapshots everything atomically and
//! truncates the WAL; [`Database::open`] recovers snapshot + WAL replay.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bytes::BytesMut;
use cryptext_common::failpoint;
use cryptext_common::{Error, Result};
use parking_lot::{Mutex, RwLock};

use crate::collection::{Collection, DocId};
use crate::filter::Filter;
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
    /// appending after the intact prefix.
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
            WalOp::CreateIndex { collection, field } => {
                if let Some(c) = map.get_mut(&collection) {
                    c.get_mut().create_index(field);
                }
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
        self.log_encoded(|| op.encode())
    }

    /// Append one record whose payload `encode` builds — only when there is
    /// a WAL to append to, so an in-memory database encodes nothing.
    fn log_encoded(&self, encode: impl FnOnce() -> BytesMut) -> Result<()> {
        if let Some(p) = &self.persistence {
            p.wal.lock().append_payload(&encode())?;
        }
        Ok(())
    }

    /// Create a collection (idempotent).
    pub fn create_collection(&self, name: &str) -> Result<()> {
        {
            let read = self.collections.read();
            if read.contains_key(name) {
                return Ok(());
            }
        }
        self.log(&WalOp::CreateCollection { name: name.into() })?;
        let mut write = self.collections.write();
        write
            .entry(name.to_string())
            .or_insert_with(|| RwLock::new(Collection::new(name)));
        Ok(())
    }

    /// Drop a collection and all its documents.
    pub fn drop_collection(&self, name: &str) -> Result<()> {
        self.log(&WalOp::DropCollection { name: name.into() })?;
        self.collections.write().remove(name);
        Ok(())
    }

    /// Rename collection `from` to `to`, replacing any collection already
    /// at `to`. A single WAL record makes the swap atomic under crash
    /// recovery, which is what crash-safe persists pivot on: build the new
    /// state under a staging name, then rename over the live name — a
    /// reopen sees either the complete old state or the complete new one.
    pub fn rename_collection(&self, from: &str, to: &str) -> Result<()> {
        {
            let read = self.collections.read();
            if !read.contains_key(from) {
                return Err(Error::not_found(format!("collection {from}")));
            }
        }
        if from == to {
            return Ok(());
        }
        self.log(&WalOp::RenameCollection {
            from: from.into(),
            to: to.into(),
        })?;
        let mut write = self.collections.write();
        if let Some(mut coll) = write.remove(from) {
            coll.get_mut().set_name(to);
            write.insert(to.to_string(), coll);
        }
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

    /// Create a secondary index on `collection.field` (idempotent).
    pub fn create_index(&self, collection: &str, field: &str) -> Result<()> {
        self.log(&WalOp::CreateIndex {
            collection: collection.into(),
            field: field.into(),
        })?;
        self.with_collection(collection, |c| c.write().create_index(field))
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
        self.log_encoded(|| encode_doc_op(OP_INSERT, collection, id, &doc))?;
        guard.insert_with_id(id, doc);
        Ok(DocId(id))
    }

    /// Replace the document at `id`.
    pub fn update(&self, collection: &str, id: DocId, doc: Document) -> Result<()> {
        self.log_encoded(|| encode_doc_op(OP_UPDATE, collection, id.0, &doc))?;
        self.with_collection(collection, |c| c.write().update(id, doc))?
    }

    /// Delete the document at `id`; `Ok(true)` when something was removed.
    pub fn delete(&self, collection: &str, id: DocId) -> Result<bool> {
        self.log(&WalOp::Delete {
            collection: collection.into(),
            id: id.0,
        })?;
        self.with_collection(collection, |c| c.write().delete(id))
    }

    /// Fetch by id (cloned).
    pub fn get(&self, collection: &str, id: DocId) -> Result<Option<Document>> {
        self.with_collection(collection, |c| c.read().get(id).cloned())
    }

    /// Query matching documents.
    pub fn find(&self, collection: &str, filter: &Filter) -> Result<Vec<(DocId, Document)>> {
        self.with_collection(collection, |c| c.read().find(filter))
    }

    /// First matching document.
    pub fn find_one(&self, collection: &str, filter: &Filter) -> Result<Option<(DocId, Document)>> {
        self.with_collection(collection, |c| c.read().find_one(filter))
    }

    /// Count matching documents.
    pub fn count(&self, collection: &str, filter: &Filter) -> Result<usize> {
        self.with_collection(collection, |c| c.read().count(filter))
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

        // Hold the WAL lock across snapshot + truncate so no append lands
        // between the snapshot and the log reset.
        let mut wal_guard = p.wal.lock();
        {
            let read = self.collections.read();
            let guards: Vec<_> = read.values().map(|c| c.read()).collect();
            let refs: Vec<&Collection> = guards.iter().map(|g| &**g).collect();
            snapshot::write_snapshot(&snapshot_path, &refs)?;
        }
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
        db.create_index("tokens", "codes").unwrap();
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

    #[test]
    fn in_memory_crud() {
        let db = Database::in_memory();
        seed(&db);
        assert_eq!(db.len("tokens").unwrap(), 3);
        let hits = db.find("tokens", &Filter::eq("codes", "TH000")).unwrap();
        assert_eq!(hits.len(), 2);
        let (id, _) = hits[0].clone();
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
        assert!(db.find("nope", &Filter::All).is_err());
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
            db.create_index("tokens__staging", "codes").unwrap();
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
        assert_eq!(
            db.find("tokens", &Filter::eq("codes", "TH000"))
                .unwrap()
                .len(),
            2
        );
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
        let hits = db.find("tokens", &Filter::eq("codes", "TH000")).unwrap();
        assert_eq!(hits.len(), 2, "indexes rebuilt through WAL replay");
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
        assert_eq!(
            db.find("tokens", &Filter::eq("codes", "NE000"))
                .unwrap()
                .len(),
            1
        );
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
        db.create_index("c", "shard").unwrap();
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..100i64 {
                    db.insert("c", Document::new().with("shard", t).with("i", i))
                        .unwrap();
                    let _ = db.find("c", &Filter::eq("shard", t)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len("c").unwrap(), 400);
        for t in 0..4i64 {
            assert_eq!(db.count("c", &Filter::eq("shard", t)).unwrap(), 100);
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
}
