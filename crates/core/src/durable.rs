//! Durable streaming ingest: per-shard delta logs + crash recovery.
//!
//! The paper's crawler (§III-F) enriches the token database continuously,
//! but until now every durability point was a *full* persist — O(corpus)
//! per save, so a crash between saves lost every batch since the last
//! one. [`DurableTokenStore`] makes ingest itself durable at batch
//! granularity, reusing the docstore's CRC-framed WAL layer
//! ([`cryptext_docstore::wal::FrameWriter`]) for append-only **delta
//! logs**:
//!
//! * **One delta log per shard** — an ingest batch is prepared once by the
//!   inner store ([`PreparedBatch`]: tokenized, gated, routed, encoded),
//!   and each touched shard's word queue, coalesced by token in
//!   first-occurrence order, becomes one `(token, +count)` frame in that
//!   shard's log (a flat [`crate::TokenDatabase`] is one shard). The same
//!   prepared batch is then merged, so the frames recovery replays and the
//!   state live ingest applies come from one prepare. An append is
//!   O(batch), not O(corpus).
//! * **Two-phase batch commit** — the per-shard frames carry a monotonic
//!   `batch_seq`; a record in the separate **commit log**, appended
//!   *after* every shard frame, is the batch's atomicity point. Recovery
//!   replays only committed batches, so a crash mid-batch yields exactly
//!   the pre-batch state — never a half-applied batch.
//! * **Snapshot + log recovery** — [`DurableTokenStore::open`] loads the
//!   newest epoch snapshot from the embedded docstore, then replays
//!   committed delta frames with `batch_seq` beyond the snapshot's
//!   `included_batch` watermark, in `(batch, shard)` order. Replaying an
//!   upsert reproduces live ingest exactly (same insert order, same
//!   counts, same codes), so the recovered store is byte-identical to one
//!   that never crashed.
//! * **Compaction** — [`DurableTokenStore::compact`] folds the logs into
//!   a fresh epoch snapshot (`tokens__e{E}`, written with the crash-safe
//!   staged persist: the records as a few block documents of
//!   [`crate::database::PERSIST_BLOCK_RECORDS`] each, one collection per
//!   shard for a sharded store), atomically swaps the `tokens__ingest`
//!   manifest (epoch, shard count, `included_batch`) via a
//!   staging-collection rename, then truncates the logs and sweeps stale
//!   epochs. With `sync_every_batch` on, the docstore WAL is fsynced
//!   between the swap and the truncation. The manifest swap is the only
//!   commit point; `batch_seq` never resets, so frames surviving a crash
//!   mid-truncation are filtered by the watermark on the next open.
//! * **Live resharding** — [`DurableTokenStore::grow_one_shard`] compacts
//!   at N shards, grows the in-memory store (moving only jump-hash
//!   movers, see [`ShardedTokenDatabase::grow_one_shard`]), opens the new
//!   shard's log, and compacts again at N+1. The second compaction's
//!   manifest swap commits the reshard; a crash anywhere else recovers at
//!   N shards with nothing lost and the grow simply reruns.
//!
//! # Failure semantics
//!
//! The crash model is process death (every test boundary) plus power
//! loss when `sync_every_batch` is on. A *live* process that observes a
//! write error is different from a dead one: torn bytes may sit at a log
//! tail, and appending after them would shadow every later frame from
//! recovery (the frame scan stops at the first bad frame). The store
//! therefore **poisons** itself on any log-write failure — subsequent
//! ingests, compactions, and grows fail fast until the store is reopened,
//! which truncates the torn tail and resumes cleanly. The fallible
//! `try_*` ingest methods surface these errors; the infallible
//! [`TokenStore`] ingest surface applies *nothing* on failure and leaves
//! the error visible through [`DurableTokenStore::poisoned`].
//!
//! Every boundary here is a [`cryptext_common::failpoint`] site
//! (`delta.append`, `delta.commit`, `compact.manifest.swap`,
//! `compact.truncate`, plus the persist's `persist.commit` and the
//! docstore's own, `db.sync` among them), and the tests below kill
//! at *every* boundary of a mixed workload and assert recovery lands on a
//! committed-batch prefix, byte-identical to the reference.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use cryptext_common::failpoint;
use cryptext_common::hash::{FxHashMap, FxHashSet};
use cryptext_common::metrics::{Histogram, MetricsRegistry};
use cryptext_common::{Error, Result};
use cryptext_docstore::wal::{read_frames, FrameWriter};
use cryptext_docstore::{Database, DbOptions, Document, Value};
use cryptext_phonetics::CustomSoundex;

use crate::database::{EncodedQuery, Inputs, PreparedBatch, SoundScratch, TokenRecord, TokenStats};
use crate::shard::ShardedTokenDatabase;
use crate::store::TokenStore;

/// The manifest collection: one document holding `epoch`, `shards`, and
/// `included_batch` (the highest batch folded into the live snapshot).
const MANIFEST: &str = "tokens__ingest";
/// Staging name the manifest is built under before the atomic rename.
const MANIFEST_STAGING: &str = "tokens__ingest_staging";

/// Shard-frame kind: a batch of `(token, delta)` upserts.
const FRAME_DELTAS: u8 = 1;
/// Shard-frame kind: seed this shard's slice of the English lexicon.
const FRAME_SEED: u8 = 2;

/// A [`TokenStore`] whose ingest the durable layer can log and replay.
/// Each backend implements it next to its own code.
///
/// The contract: ingest is a [`PreparedBatch`] — one queue of words per
/// shard, each already routed to the shard (the delta log) that owns it —
/// merged into the state it was prepared against; the store's own
/// `ingest_texts` is exactly that. The durable layer writes its frames
/// from the prepared batch between the two steps. Replaying a frame's
/// `apply_upsert(token, count)` calls in order reproduces the merge of
/// that shard's queue (both funnel into the same record insert, in
/// first-occurrence order).
pub trait DeltaStore: TokenStore + Sized {
    /// An empty store over `shards` shards (ignored by single-instance
    /// backends).
    fn fresh(shards: usize) -> Self;
    /// Prepare a batch against the current state.
    fn prepare<'t>(
        &self,
        inputs: impl IntoIterator<Item = &'t str>,
        kind: Inputs,
    ) -> PreparedBatch<'t>;
    /// Merge a batch prepared against the current state; returns its
    /// word-token count.
    fn merge(&mut self, batch: PreparedBatch<'_>) -> usize;
    /// Apply one replayed count delta (insert-or-increment).
    fn apply_upsert(&mut self, token: &str, delta: u64);
    /// Seed the slice of the English lexicon owned by `shard` — the exact
    /// subsequence a live [`TokenStore::seed_lexicon`] routes there.
    fn seed_shard(&mut self, shard: usize);
}

/// Tuning knobs for [`DurableTokenStore::open`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Shard count when creating a store with no on-disk state. An
    /// existing store's manifest always wins (the logs are routed under
    /// its count).
    pub shards: usize,
    /// `fsync` the touched delta logs and the commit log at every batch
    /// commit. Off, a batch survives process death (writes are flushed in
    /// commit order) but not power loss.
    pub sync_every_batch: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            shards: 1,
            sync_every_batch: false,
        }
    }
}

/// One decoded shard-log frame.
enum FrameBody {
    Deltas(Vec<(String, u64)>),
    SeedLexicon,
}

/// A crash-recoverable token store: an in-memory [`DeltaStore`] backed by
/// per-shard delta logs, a commit log, and epoch snapshots in an embedded
/// docstore. See the module docs for the protocol.
pub struct DurableTokenStore<S: DeltaStore> {
    inner: S,
    store: Database,
    dir: PathBuf,
    logs: Vec<FrameWriter>,
    commit: FrameWriter,
    /// Sequence the next batch will commit under (monotonic forever).
    next_batch: u64,
    /// Live snapshot epoch (0 = no snapshot yet).
    epoch: u64,
    poisoned: bool,
    sync_every_batch: bool,
    /// Batch append latency (shard frames + commit record, per-batch
    /// fsyncs included when enabled), µs.
    append_us: Histogram,
    /// Explicit drain-flush [`DurableTokenStore::sync`] latency, µs.
    fsync_us: Histogram,
    /// Full [`DurableTokenStore::compact`] latency, µs.
    compact_us: Histogram,
}

impl<S: DeltaStore> DurableTokenStore<S> {
    /// Open (or create) a durable store rooted at `dir`, recovering state
    /// from the newest epoch snapshot plus committed delta-log replay. A
    /// torn log tail — a crash mid-append — is truncated so post-crash
    /// appends stay reachable.
    pub fn open(dir: &Path, opts: DurableOptions) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let store = Database::open(&dir.join("snapshots"), DbOptions::default())?;

        let (epoch, shards, included) = match Self::read_manifest(&store)? {
            Some(m) => m,
            None => {
                // First open (or a crash before the first manifest swap
                // landed — no batch can have been logged yet): pin the
                // shard count before any log is written.
                Self::swap_manifest(&store, 0, opts.shards.max(1), 0)?;
                (0, opts.shards.max(1), 0)
            }
        };

        let mut inner = if epoch == 0 {
            S::fresh(shards)
        } else {
            S::load_from(&store, &Self::epoch_collection(epoch))?
        };

        // Gather committed batch sequences, tolerating a torn commit-log
        // tail (those batches simply never happened).
        let commit_path = Self::commit_path_in(dir);
        let mut committed: FxHashSet<u64> = FxHashSet::default();
        let mut max_seq = included;
        for frame in read_frames(&commit_path)?.frames {
            let seq = decode_commit_frame(&frame)?;
            committed.insert(seq);
            max_seq = max_seq.max(seq);
        }

        // Replay committed frames beyond the snapshot watermark in
        // (batch, shard) order — shards are disjoint, so that reproduces
        // the per-shard application order of live ingest.
        let mut pending: Vec<(u64, usize, FrameBody)> = Vec::new();
        for s in 0..shards {
            for frame in read_frames(&Self::log_path_in(dir, s))?.frames {
                let (seq, body) = decode_shard_frame(&frame)?;
                // Every observed sequence — committed or not — bounds the
                // next batch number, so a torn batch's number is never
                // reused (a reused number would resurrect its stale
                // frames on the next replay).
                max_seq = max_seq.max(seq);
                if seq > included && committed.contains(&seq) {
                    pending.push((seq, s, body));
                }
            }
        }
        pending.sort_by_key(|&(seq, s, _)| (seq, s));
        for (_, s, body) in pending {
            match body {
                FrameBody::Deltas(ops) => {
                    for (token, delta) in ops {
                        inner.apply_upsert(&token, delta);
                    }
                }
                FrameBody::SeedLexicon => inner.seed_shard(s),
            }
        }

        // Opening the writers truncates any torn tail before appending.
        let mut logs = Vec::with_capacity(shards);
        for s in 0..shards {
            logs.push(FrameWriter::open(
                &Self::log_path_in(dir, s),
                false,
                "delta.append",
            )?);
        }
        let commit = FrameWriter::open(&commit_path, false, "delta.commit")?;

        Ok(DurableTokenStore {
            inner,
            store,
            dir: dir.to_path_buf(),
            logs,
            commit,
            next_batch: max_seq + 1,
            epoch,
            poisoned: false,
            sync_every_batch: opts.sync_every_batch,
            append_us: Histogram::new(),
            fsync_us: Histogram::new(),
            compact_us: Histogram::new(),
        })
    }

    /// The recovered/live in-memory store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consume the wrapper, keeping the in-memory store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The live snapshot epoch (0 until the first compaction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Has a log-write failure wedged this handle? A poisoned store
    /// rejects every further write until reopened (recovery truncates the
    /// torn tail the failure may have left).
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Force-fsync every delta log and the commit log, regardless of the
    /// per-batch sync setting — the flush half of a graceful drain: after
    /// admissions stop and in-flight batches land, one `sync` makes every
    /// committed batch power-loss durable before the process exits.
    /// Fires the `drain.flush` failpoint first, so shutdown chaos tests
    /// can kill or stall the flush deterministically.
    pub fn sync(&mut self) -> Result<()> {
        self.ensure_live()?;
        failpoint::check("drain.flush")?;
        let _t = self.fsync_us.start_timer();
        for log in &mut self.logs {
            log.sync()?;
        }
        self.commit.sync()
    }

    fn ensure_live(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::invalid(
                "durable store poisoned by an earlier write failure; reopen to recover",
            ));
        }
        Ok(())
    }

    fn log_path_in(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("delta_{shard}.log"))
    }

    fn commit_path_in(dir: &Path) -> PathBuf {
        dir.join("commit.log")
    }

    fn epoch_collection(epoch: u64) -> String {
        format!("tokens__e{epoch}")
    }

    /// Parse the epoch out of a `tokens__e{E}`-prefixed collection name
    /// (the epoch snapshot itself or any of its nested shard/generation
    /// collections). Number-parsing, not string-prefixing: `e1` must not
    /// swallow `e10`.
    fn collection_epoch(name: &str) -> Option<u64> {
        let rest = name.strip_prefix("tokens__e")?;
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if end == 0 || (end < rest.len() && !rest[end..].starts_with("__")) {
            return None;
        }
        rest[..end].parse().ok()
    }

    /// The live manifest's `(epoch, shards, included_batch)`, or `None`
    /// when there is no manifest collection yet — the only first-open
    /// state, since the collection is created by a rename of a staged,
    /// complete document. A document missing, or a field missing, of the
    /// wrong type or out of range, is [`Error::Corrupt`] naming it: opening
    /// over it as a first open would drop every record of the live epoch.
    fn read_manifest(store: &Database) -> Result<Option<(u64, usize, u64)>> {
        if !store.has_collection(MANIFEST) {
            return Ok(None);
        }
        store.read_collection(MANIFEST, |docs| {
            let (_, doc) = docs
                .scan()
                .min_by_key(|&(id, _)| id)
                .ok_or_else(|| Error::corrupt(format!("manifest {MANIFEST} has no document")))?;
            let field = |name: &str, min: i64| match doc.get(name) {
                Some(Value::Int(v)) if *v >= min => Ok(*v as u64),
                Some(v) => Err(Error::corrupt(format!(
                    "manifest {MANIFEST}: {name} is {v}, not an integer >= {min}"
                ))),
                None => Err(Error::corrupt(format!("manifest {MANIFEST} has no {name}"))),
            };
            let epoch = field("epoch", 0)?;
            let shards = field("shards", 1)? as usize;
            let included = field("included_batch", 0)?;
            Ok(Some((epoch, shards, included)))
        })?
    }

    /// Build the manifest under a staging name and rename it over the
    /// live one — a single WAL record, the durable layer's commit point.
    fn swap_manifest(store: &Database, epoch: u64, shards: usize, included: u64) -> Result<()> {
        if store.has_collection(MANIFEST_STAGING) {
            store.drop_collection(MANIFEST_STAGING)?;
        }
        store.create_collection(MANIFEST_STAGING)?;
        store.insert(
            MANIFEST_STAGING,
            Document::new()
                .with("epoch", epoch as i64)
                .with("shards", shards as i64)
                .with("included_batch", included as i64),
        )?;
        failpoint::check("compact.manifest.swap")?;
        store.rename_collection(MANIFEST_STAGING, MANIFEST)
    }

    /// Append this batch's shard frames, then its commit record. Any
    /// failure (injected or real) poisons the handle: nothing was
    /// applied, and the tail of some log may be torn.
    fn log_batch(&mut self, frames: Vec<(usize, Vec<u8>)>) -> Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        let _t = self.append_us.start_timer();
        let seq = self.next_batch;
        let res = (|| -> Result<()> {
            for (s, payload) in &frames {
                self.logs[*s].append_frame(payload)?;
            }
            if self.sync_every_batch {
                for (s, _) in &frames {
                    self.logs[*s].sync()?;
                }
            }
            self.commit.append_frame(&seq.to_le_bytes())?;
            if self.sync_every_batch {
                self.commit.sync()?;
            }
            Ok(())
        })();
        match res {
            Ok(()) => {
                self.next_batch = seq + 1;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Log a prepared batch — one delta frame per touched shard, then the
    /// commit record — and merge it. On `Err` nothing was applied.
    fn log_and_merge(&mut self, batch: PreparedBatch<'_>) -> Result<usize> {
        self.log_batch(delta_frames(self.next_batch, &batch))?;
        Ok(self.inner.merge(batch))
    }

    /// Durably ingest one batch of texts: prepare it once in the inner
    /// store, log it (one frame per touched shard + the commit record),
    /// then merge the same prepared batch. On `Err` nothing was applied.
    pub fn try_ingest_texts<T: AsRef<str> + Sync>(&mut self, texts: &[T]) -> Result<usize> {
        self.ensure_live()?;
        let texts = texts.iter().map(AsRef::as_ref);
        self.log_and_merge(self.inner.prepare(texts, Inputs::Texts))
    }

    /// Durably ingest one text as one batch. On `Err` nothing was applied.
    pub fn try_ingest_text(&mut self, text: &str) -> Result<usize> {
        self.try_ingest_texts(&[text])
    }

    /// Durably ingest one raw token occurrence (its own tiny batch).
    pub fn try_ingest_token(&mut self, token: &str) -> Result<()> {
        self.ensure_live()?;
        self.log_and_merge(self.inner.prepare([token], Inputs::Tokens))
            .map(drop)
    }

    /// Durably seed the English lexicon: one marker frame per shard log
    /// (replay re-derives each shard's slice deterministically).
    pub fn try_seed_lexicon(&mut self) -> Result<()> {
        self.ensure_live()?;
        let seq = self.next_batch;
        let frames = (0..self.inner.num_shards())
            .map(|s| (s, encode_seed_frame(seq)))
            .collect();
        self.log_batch(frames)?;
        self.inner.seed_lexicon();
        Ok(())
    }

    /// Fold the delta logs into a fresh epoch snapshot and truncate them.
    ///
    /// Steps: (1) persist the in-memory store under `tokens__e{E+1}`
    /// (itself a staged, crash-safe persist); (2) atomically swap the
    /// manifest — the commit point; (3) with `sync_every_batch` on, fsync
    /// the docstore WAL, so the truncation cannot outlive the new epoch
    /// on power loss; (4) truncate the logs; (5) sweep stale epochs and
    /// checkpoint the docstore. A crash before (2)
    /// changes nothing (the next open replays snapshot `E` + logs); a
    /// crash after (2) is cosmetic (surviving frames sit at or below the
    /// new `included_batch` watermark and are filtered on replay).
    pub fn compact(&mut self) -> Result<()> {
        self.ensure_live()?;
        let _t = self.compact_us.start_timer();
        let new_epoch = self.epoch + 1;
        let included = self.next_batch - 1;
        self.inner
            .persist_to(&self.store, &Self::epoch_collection(new_epoch))?;
        Self::swap_manifest(&self.store, new_epoch, self.inner.num_shards(), included)?;
        self.epoch = new_epoch;

        // Committed: failures past this point poison the handle (writer
        // state is being replaced) but can never lose data.
        let truncate = |this: &mut Self| -> Result<()> {
            if this.sync_every_batch {
                // The new epoch and the manifest swap sit in the docstore's
                // OS-buffered WAL; the logs hold the only power-loss-safe
                // copy of their batches until that WAL is on disk.
                this.store.sync()?;
            }
            for s in 0..this.logs.len() {
                failpoint::check("compact.truncate")?;
                let p = Self::log_path_in(&this.dir, s);
                std::fs::write(&p, [])?;
                this.logs[s] = FrameWriter::open(&p, false, "delta.append")?;
            }
            failpoint::check("compact.truncate")?;
            let p = Self::commit_path_in(&this.dir);
            std::fs::write(&p, [])?;
            this.commit = FrameWriter::open(&p, false, "delta.commit")?;
            Ok(())
        };
        if let Err(e) = truncate(self) {
            self.poisoned = true;
            return Err(e);
        }

        for name in self.store.collections_with_prefix("tokens__e") {
            match Self::collection_epoch(&name) {
                Some(e) if e != new_epoch => self.store.drop_collection(&name)?,
                _ => {}
            }
        }
        self.store.checkpoint()
    }
}

impl DurableTokenStore<ShardedTokenDatabase> {
    /// Grow the durable store by one shard while keeping every guarantee:
    /// compact at N (so no N-routed frame outlives the old routing), grow
    /// the in-memory store (movers only — see
    /// [`ShardedTokenDatabase::grow_one_shard`]), open the new shard's
    /// log, and compact at N+1. The second compaction's manifest swap is
    /// the reshard's commit point: a crash anywhere earlier recovers at N
    /// shards with all data, and the grow reruns. Returns the number of
    /// records moved.
    pub fn grow_one_shard(&mut self) -> Result<usize> {
        self.compact()?;
        let moved = self.inner.grow_one_shard();
        let grown = (|| -> Result<()> {
            let s = self.logs.len();
            let p = Self::log_path_in(&self.dir, s);
            std::fs::write(&p, [])?;
            self.logs
                .push(FrameWriter::open(&p, false, "delta.append")?);
            self.compact()
        })();
        match grown {
            Ok(()) => Ok(moved),
            Err(e) => {
                // The in-memory store is at N+1 but the durable state is
                // still N: block further writes so nothing is logged
                // under a routing the manifest does not record.
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

/// The infallible [`TokenStore`] surface: reads delegate to the inner
/// store; writes go through the durable `try_*` paths and, on a log
/// failure, apply **nothing** (the handle is poisoned — see
/// [`DurableTokenStore::poisoned`] — and a batch is never half-applied).
impl<S: DeltaStore> TokenStore for DurableTokenStore<S> {
    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn for_each_sound_mate<'a, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(u32, &'a TokenRecord) -> ControlFlow<()>,
    {
        self.inner.for_each_sound_mate(query, scratch, f)
    }

    fn get(&self, token: &str) -> Option<&TokenRecord> {
        self.inner.get(token)
    }

    fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_histogram(
            "cryptext_durable_append_us",
            "Durable-ingest batch append latency (shard frames + commit record, microseconds)",
            &[],
            &self.append_us,
        );
        registry.register_histogram(
            "cryptext_durable_fsync_us",
            "Durable-ingest drain-flush sync latency (microseconds)",
            &[],
            &self.fsync_us,
        );
        registry.register_histogram(
            "cryptext_durable_compact_us",
            "Durable-ingest compaction latency (microseconds)",
            &[],
            &self.compact_us,
        );
        self.inner.register_metrics(registry);
    }

    fn stats(&self) -> TokenStats {
        self.inner.stats()
    }

    fn unique_tokens(&self) -> usize {
        self.inner.unique_tokens()
    }

    fn clean_sentences(&self) -> &[String] {
        self.inner.clean_sentences()
    }

    fn soundex(&self, k: usize) -> Result<&CustomSoundex> {
        self.inner.soundex(k)
    }

    fn hashmap_view(&self, k: usize) -> Result<Vec<(String, Vec<String>)>> {
        self.inner.hashmap_view(k)
    }

    fn ingest_token(&mut self, token: &str) {
        let _ = self.try_ingest_token(token);
    }

    fn ingest_text(&mut self, text: &str) -> usize {
        self.try_ingest_text(text).unwrap_or(0)
    }

    fn ingest_texts<T: AsRef<str> + Sync>(&mut self, texts: &[T]) -> usize {
        self.try_ingest_texts(texts).unwrap_or(0)
    }

    fn record_clean_sentence(&mut self, text: &str) {
        // Clean sentences are LM-training scratch state; no persist path
        // stores them, so the delta logs do not either.
        self.inner.record_clean_sentence(text);
    }

    fn seed_lexicon(&mut self) {
        let _ = self.try_seed_lexicon();
    }

    fn persist_to(&self, store: &Database, collection: &str) -> Result<()> {
        // A monolithic export of the current state — unrelated to the
        // store's own epoch snapshots (and pinned byte-identical to a
        // never-crashed store's export by the recovery tests).
        self.inner.persist_to(store, collection)
    }

    fn load_from(_store: &Database, _collection: &str) -> Result<Self> {
        Err(Error::invalid(
            "DurableTokenStore recovers via DurableTokenStore::open, not load_from",
        ))
    }
}

/// One delta frame per touched shard of a prepared batch: the shard's
/// queue coalesced by token at first occurrence, which preserves the
/// id-assignment order of the uncoalesced merge.
fn delta_frames(seq: u64, batch: &PreparedBatch<'_>) -> Vec<(usize, Vec<u8>)> {
    // Sized once for the batch: no queue holds more entries than the
    // batch has words, so no shard's coalescing grows either.
    let mut at: FxHashMap<&str, usize> =
        FxHashMap::with_capacity_and_hasher(batch.words, Default::default());
    let mut ops: Vec<(&str, u64)> = Vec::with_capacity(batch.words);
    let mut frames = Vec::new();
    for (s, queue) in batch.queues.iter().enumerate() {
        if queue.is_empty() {
            continue;
        }
        at.clear();
        ops.clear();
        for word in queue.iter().flatten() {
            let token = word.token();
            match at.get(token) {
                Some(&i) => ops[i].1 += 1,
                None => {
                    at.insert(token, ops.len());
                    ops.push((token, 1));
                }
            }
        }
        frames.push((s, encode_delta_frame(seq, &ops)));
    }
    frames
}

fn encode_delta_frame(seq: u64, ops: &[(&str, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + ops.len() * 20);
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(FRAME_DELTAS);
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for (token, delta) in ops {
        out.extend_from_slice(&(token.len() as u32).to_le_bytes());
        out.extend_from_slice(token.as_bytes());
        out.extend_from_slice(&delta.to_le_bytes());
    }
    out
}

fn encode_seed_frame(seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(FRAME_SEED);
    out
}

fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if data.len() < n {
        return Err(Error::corrupt("delta frame underrun"));
    }
    let (head, rest) = data.split_at(n);
    *data = rest;
    Ok(head)
}

fn take_u32(data: &mut &[u8]) -> Result<u32> {
    Ok(u32::from_le_bytes(take(data, 4)?.try_into().unwrap()))
}

fn take_u64(data: &mut &[u8]) -> Result<u64> {
    Ok(u64::from_le_bytes(take(data, 8)?.try_into().unwrap()))
}

/// Decode a shard-log frame. CRC framing already vouches for integrity,
/// but decoding still never panics on any byte sequence (proptested).
fn decode_shard_frame(frame: &[u8]) -> Result<(u64, FrameBody)> {
    let mut d = frame;
    let seq = take_u64(&mut d)?;
    let kind = take(&mut d, 1)?[0];
    match kind {
        FRAME_SEED => {
            if !d.is_empty() {
                return Err(Error::corrupt("seed frame with trailing bytes"));
            }
            Ok((seq, FrameBody::SeedLexicon))
        }
        FRAME_DELTAS => {
            let n = take_u32(&mut d)? as usize;
            // Each op occupies ≥ 12 bytes; reject fabricated counts
            // before reserving memory for them.
            if n > d.len() / 12 + 1 {
                return Err(Error::corrupt("delta frame op count exceeds payload"));
            }
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let len = take_u32(&mut d)? as usize;
                let token = std::str::from_utf8(take(&mut d, len)?)
                    .map_err(|_| Error::corrupt("delta frame token not utf-8"))?
                    .to_string();
                let delta = take_u64(&mut d)?;
                ops.push((token, delta));
            }
            if !d.is_empty() {
                return Err(Error::corrupt("delta frame with trailing bytes"));
            }
            Ok((seq, FrameBody::Deltas(ops)))
        }
        _ => Err(Error::corrupt("unknown delta frame kind")),
    }
}

fn decode_commit_frame(frame: &[u8]) -> Result<u64> {
    if frame.len() != 8 {
        return Err(Error::corrupt("commit frame must be exactly 8 bytes"));
    }
    let mut d = frame;
    take_u64(&mut d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TokenDatabase;
    use crate::ingest::Crawler;
    use crate::lookup::LookupParams;
    use crate::CrypText;
    use cryptext_stream::{SocialPlatform, StreamConfig};

    pub(super) fn tmp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "cryptext-durable-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    pub(super) fn opts(shards: usize) -> DurableOptions {
        DurableOptions {
            shards,
            sync_every_batch: false,
        }
    }

    /// A mixed workload of ingest batches and compactions. Every batch
    /// carries at least one unique token, so each committed prefix is
    /// distinguishable from every other — the crash sweeps rely on that
    /// to identify exactly which prefix a recovery landed on.
    enum Step {
        Ingest(&'static [&'static str]),
        Compact,
    }

    const WORKLOAD: [Step; 6] = [
        Step::Ingest(&["the dirrty republicans", "thee dirty repubLIEcans"]),
        Step::Compact,
        Step::Ingest(&["vacc1ne mandate"]),
        Step::Ingest(&["thinking about suic1de"]),
        Step::Compact,
        Step::Ingest(&["the demokRATs and the democrats"]),
    ];

    fn ingest_batches() -> Vec<&'static [&'static str]> {
        WORKLOAD
            .iter()
            .filter_map(|s| match s {
                Step::Ingest(b) => Some(*b),
                Step::Compact => None,
            })
            .collect()
    }

    /// The reference state after the first `k` ingest batches (compactions
    /// are state-neutral), built through the ordinary in-memory path.
    fn prefix_store<S: DeltaStore>(shards: usize, k: usize) -> S {
        let mut db = S::fresh(shards);
        for batch in &ingest_batches()[..k] {
            TokenStore::ingest_texts(&mut db, batch);
        }
        db
    }

    fn apply<S: DeltaStore>(db: &mut DurableTokenStore<S>, step: &Step) -> Result<()> {
        match step {
            Step::Ingest(batch) => {
                db.try_ingest_texts(batch)?;
            }
            Step::Compact => db.compact()?,
        }
        Ok(())
    }

    fn same_flat(a: &TokenDatabase, b: &TokenDatabase) -> bool {
        a.records() == b.records()
    }

    fn same_sharded(a: &ShardedTokenDatabase, b: &ShardedTokenDatabase) -> bool {
        TokenStore::num_shards(a) == TokenStore::num_shards(b)
            && (0..TokenStore::num_shards(a)).all(|s| a.shard(s).records() == b.shard(s).records())
    }

    /// Kill the process model at every caller-thread write boundary of the
    /// mixed workload (wildcard failpoint, hit 1, 2, 3, …): after each
    /// crash, recovery must land byte-identical on some committed-batch
    /// prefix — never losing a committed batch, never surfacing a
    /// half-applied one — and resuming the missing batches must reach the
    /// uninterrupted reference exactly.
    fn crash_sweep<S: DeltaStore>(tag: &str, shards: usize, same: fn(&S, &S) -> bool) {
        let n_batches = ingest_batches().len();
        let full: S = prefix_store(shards, n_batches);

        // A clean run counts the boundaries the sweep must cover.
        let dir = tmp_dir(&format!("sweep-{tag}-count"));
        failpoint::reset_hits();
        {
            let mut db = DurableTokenStore::<S>::open(&dir, opts(shards)).unwrap();
            for step in &WORKLOAD {
                apply(&mut db, step).unwrap();
            }
        }
        let total = failpoint::hits("*");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            total > 10,
            "workload should cross many write boundaries, got {total}"
        );

        for i in 1..=total {
            let dir = tmp_dir(&format!("sweep-{tag}-{i}"));
            failpoint::reset_hits();
            let guard = failpoint::arm("*", &format!("kill@{i}"));
            let mut applied = 0usize;
            let outcome = (|| -> Result<()> {
                let mut db = DurableTokenStore::<S>::open(&dir, opts(shards))?;
                for step in &WORKLOAD {
                    apply(&mut db, step)?;
                    if matches!(step, Step::Ingest(_)) {
                        applied += 1;
                    }
                }
                Ok(())
            })();
            drop(guard);
            if let Err(e) = &outcome {
                assert!(failpoint::is_injected(e), "kill@{i}: unexpected error {e}");
            }

            let mut db = DurableTokenStore::<S>::open(&dir, opts(shards))
                .unwrap_or_else(|e| panic!("kill@{i}: recovery must never fail: {e}"));
            let k = (0..=n_batches)
                .find(|&k| same(&prefix_store(shards, k), db.inner()))
                .unwrap_or_else(|| {
                    panic!("kill@{i}: recovered state is not a committed-batch prefix")
                });
            assert!(
                k >= applied,
                "kill@{i}: lost a committed batch (prefix {k} < applied {applied})"
            );
            assert!(
                k <= applied + 1,
                "kill@{i}: more than the in-flight batch became visible"
            );
            if outcome.is_ok() {
                assert_eq!(k, n_batches, "kill@{i}: a clean run keeps every batch");
            }

            // Resume the batches the crash cost and land on the reference.
            for batch in &ingest_batches()[k..] {
                db.try_ingest_texts(batch).unwrap();
            }
            db.compact().unwrap();
            drop(db);
            let db = DurableTokenStore::<S>::open(&dir, opts(shards)).unwrap();
            assert!(
                same(&full, db.inner()),
                "kill@{i}: resumed state diverges from the reference"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn kill_at_every_boundary_flat_recovers_a_committed_prefix() {
        crash_sweep::<TokenDatabase>("flat", 1, same_flat);
    }

    #[test]
    fn kill_at_every_boundary_sharded_recovers_a_committed_prefix() {
        crash_sweep::<ShardedTokenDatabase>("sharded", 2, same_sharded);
    }

    #[test]
    fn uncompacted_batches_survive_reopen() {
        let dir = tmp_dir("reopen-flat");
        {
            let mut dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
            for batch in &ingest_batches() {
                dur.try_ingest_texts(batch).unwrap();
            }
            assert_eq!(dur.epoch(), 0, "no compaction ran");
        }
        let dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
        let want: TokenDatabase = prefix_store(1, ingest_batches().len());
        assert_eq!(dur.inner().records(), want.records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_logs_and_preserves_state() {
        let dir = tmp_dir("compact");
        let batches = ingest_batches();
        let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        dur.try_ingest_texts(batches[0]).unwrap();
        dur.try_ingest_texts(batches[1]).unwrap();
        assert_eq!(dur.epoch(), 0);
        dur.compact().unwrap();
        assert_eq!(dur.epoch(), 1);
        for s in 0..2 {
            let p = DurableTokenStore::<ShardedTokenDatabase>::log_path_in(&dir, s);
            assert_eq!(
                std::fs::metadata(&p).unwrap().len(),
                0,
                "delta log {s} truncated after compaction"
            );
        }
        let cp = DurableTokenStore::<ShardedTokenDatabase>::commit_path_in(&dir);
        assert_eq!(std::fs::metadata(&cp).unwrap().len(), 0);

        // Post-compaction batches replay on top of the epoch snapshot.
        dur.try_ingest_texts(batches[2]).unwrap();
        dur.try_ingest_texts(batches[3]).unwrap();
        drop(dur);
        let dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        assert_eq!(dur.epoch(), 1);
        let want: ShardedTokenDatabase = prefix_store(2, 4);
        assert!(same_sharded(&want, dur.inner()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ISSUE acceptance pin: a recovered delta-log store is
    /// byte-identical to a monolithic persist/load of the same final state.
    #[test]
    fn recovered_state_matches_monolithic_persist_round_trip() {
        let dir = tmp_dir("monolithic");
        let batches = ingest_batches();
        let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(3)).unwrap();
        dur.try_ingest_texts(batches[0]).unwrap();
        dur.try_ingest_texts(batches[1]).unwrap();
        dur.compact().unwrap();
        dur.try_ingest_texts(batches[2]).unwrap();
        dur.try_ingest_texts(batches[3]).unwrap();

        // Monolithic export of the live state, round-tripped.
        let mono = Database::in_memory();
        TokenStore::persist_to(&dur, &mono, "tokens").unwrap();
        let mono_loaded = ShardedTokenDatabase::load_from(&mono, "tokens").unwrap();

        drop(dur);
        let dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(3)).unwrap();
        assert!(same_sharded(&mono_loaded, dur.inner()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Power-loss durability of compaction in sync mode: the truncation
    /// must wait until the docstore WAL holding the new epoch is synced.
    /// A kill at that sync leaves every log whole, and a reopen recovers
    /// every batch.
    #[test]
    fn sync_mode_compaction_syncs_the_snapshot_before_truncating() {
        let dir = tmp_dir("sync-compact");
        let sync_opts = DurableOptions {
            shards: 2,
            sync_every_batch: true,
        };
        let batches = ingest_batches();
        let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, sync_opts).unwrap();
        for batch in &batches {
            dur.try_ingest_texts(batch).unwrap();
        }
        let mut logs: Vec<PathBuf> = (0..2)
            .map(|s| DurableTokenStore::<ShardedTokenDatabase>::log_path_in(&dir, s))
            .collect();
        logs.push(DurableTokenStore::<ShardedTokenDatabase>::commit_path_in(
            &dir,
        ));
        for p in &logs {
            assert!(
                std::fs::metadata(p).unwrap().len() > 0,
                "{p:?} holds frames"
            );
        }

        failpoint::reset_hits();
        let guard = failpoint::arm("db.sync", "kill@1");
        let err = dur.compact().unwrap_err();
        assert!(failpoint::is_injected(&err));
        assert!(dur.poisoned());
        drop(guard);
        drop(dur);
        for p in &logs {
            assert!(
                std::fs::metadata(p).unwrap().len() > 0,
                "{p:?} not truncated before the sync"
            );
        }

        let dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, sync_opts).unwrap();
        let want: ShardedTokenDatabase = prefix_store(2, batches.len());
        assert!(same_sharded(&want, dur.inner()), "every batch recovered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_poisons_handle_until_reopen() {
        let dir = tmp_dir("torn");
        let mut dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
        dur.try_ingest_text("the dirrty republicans").unwrap();

        failpoint::reset_hits();
        let guard = failpoint::arm("delta.append", "torn@1:5");
        let err = dur.try_ingest_text("vacc1ne mandate").unwrap_err();
        assert!(failpoint::is_injected(&err));
        assert!(dur.poisoned());
        drop(guard);

        // Poisoned stays poisoned after disarm: torn bytes sit at the log
        // tail, so appending would shadow later frames from recovery.
        assert!(dur.try_ingest_text("mandate").is_err());
        assert_eq!(TokenStore::ingest_text(&mut dur, "mandate"), 0);
        assert_eq!(dur.inner().records().len(), 3, "nothing was applied");
        drop(dur);

        // Reopen truncates the torn tail: pre-batch state, writable again.
        let mut dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
        assert!(!dur.poisoned());
        let mut want = TokenDatabase::in_memory();
        want.ingest_text("the dirrty republicans");
        assert_eq!(dur.inner().records(), want.records());
        dur.try_ingest_text("vacc1ne mandate").unwrap();
        drop(dur);
        let dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
        want.ingest_text("vacc1ne mandate");
        assert_eq!(dur.inner().records(), want.records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gated_tokens_are_neither_logged_nor_applied() {
        let dir = tmp_dir("gated");
        let mut dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
        dur.try_ingest_token("a").unwrap(); // under the 2-char floor
        dur.try_ingest_token("💀💀").unwrap(); // no phonetic content
        assert_eq!(dur.inner().records().len(), 0);
        let log = DurableTokenStore::<TokenDatabase>::log_path_in(&dir, 0);
        assert_eq!(std::fs::metadata(&log).unwrap().len(), 0, "nothing logged");

        dur.try_ingest_token("republicans").unwrap();
        assert_eq!(dur.inner().records().len(), 1);
        assert!(std::fs::metadata(&log).unwrap().len() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_lexicon_survives_reopen() {
        let dir = tmp_dir("seed");
        {
            let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(3)).unwrap();
            dur.try_ingest_text("the dirrty republicans").unwrap();
            dur.try_seed_lexicon().unwrap();
            dur.try_ingest_text("vacc1ne mandate").unwrap();
        }
        let dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(3)).unwrap();
        let mut want = ShardedTokenDatabase::in_memory(3);
        TokenStore::ingest_text(&mut want, "the dirrty republicans");
        TokenStore::seed_lexicon(&mut want);
        TokenStore::ingest_text(&mut want, "vacc1ne mandate");
        assert!(same_sharded(&want, dur.inner()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_grow_commits_or_recovers_at_old_shard_count() {
        let dir = tmp_dir("grow");
        let texts = [
            "the dirrty republicans",
            "thee dirty repubLIEcans",
            "the dirty republic@@ns",
            "the demokRATs and the democrats",
            "thinking about suic1de",
            "suicide prevention matters",
        ];
        let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        for t in texts {
            dur.try_ingest_text(t).unwrap();
        }

        let mut before_grow = ShardedTokenDatabase::in_memory(2);
        let mut after_grow = ShardedTokenDatabase::in_memory(2);
        for t in texts {
            TokenStore::ingest_text(&mut before_grow, t);
            TokenStore::ingest_text(&mut after_grow, t);
        }
        let moved_want = after_grow.grow_one_shard();

        // Crash at the second compaction's manifest swap — one step short
        // of the reshard's commit point.
        failpoint::reset_hits();
        let guard = failpoint::arm("compact.manifest.swap", "kill@2");
        let err = dur.grow_one_shard().unwrap_err();
        assert!(failpoint::is_injected(&err));
        assert!(dur.poisoned(), "in-memory N+1 vs durable N must wedge");
        drop(guard);
        drop(dur);

        // Recovery: still 2 shards, nothing lost; the grow simply reruns.
        let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        assert_eq!(TokenStore::num_shards(dur.inner()), 2);
        assert!(same_sharded(&before_grow, dur.inner()));
        let moved = dur.grow_one_shard().unwrap();
        assert_eq!(moved, moved_want);
        assert_eq!(TokenStore::num_shards(dur.inner()), 3);
        assert!(same_sharded(&after_grow, dur.inner()));

        // Post-grow ingest routes under the new ring and survives reopen.
        dur.try_ingest_text("vacc1ne mandate").unwrap();
        TokenStore::ingest_text(&mut after_grow, "vacc1ne mandate");
        drop(dur);
        let dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        assert_eq!(TokenStore::num_shards(dur.inner()), 3);
        assert!(same_sharded(&after_grow, dur.inner()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crawler (§III-F) drives durable ingest end to end: a stream
    /// crawl that crashes repeatedly — mid-batch and mid-compaction —
    /// and resumes from the persisted cursor ingests every post exactly
    /// once, landing byte-identical to an uninterrupted crawl.
    #[test]
    fn crawler_crash_resume_ingests_every_post_exactly_once() {
        let p = SocialPlatform::simulate(StreamConfig {
            n_posts: 60,
            seed: 11,
            ..StreamConfig::default()
        });
        let mut reference = ShardedTokenDatabase::in_memory(2);
        Crawler::new().run_once(&p, &mut reference, 0);

        let dir = tmp_dir("crawler");
        let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        let mut crawler = Crawler::new();
        let mut good_cursor;
        let mut crashes = 0usize;
        let mut posts_done = 0usize;
        loop {
            // Arm a kill a few dozen write boundaries out, then crawl one
            // post at a time (with periodic compactions) until it fires or
            // the stream drains.
            failpoint::reset_hits();
            let drained = {
                let _guard = failpoint::arm("*", "kill@40");
                let mut drained = false;
                loop {
                    // Snapshot the resume point before the in-flight post:
                    // a poisoned ingest applied nothing, so rewind to it.
                    good_cursor = crawler.cursor();
                    let stats = crawler.run_once(&p, &mut dur, 1);
                    if dur.poisoned() {
                        crashes += 1;
                        break;
                    }
                    if stats.posts == 0 {
                        drained = true;
                        break;
                    }
                    posts_done += 1;
                    if posts_done.is_multiple_of(20) && dur.compact().is_err() {
                        // The post itself committed; resume after it.
                        good_cursor = crawler.cursor();
                        crashes += 1;
                        break;
                    }
                }
                drained
            };
            if drained {
                break;
            }
            dur = DurableTokenStore::open(&dir, opts(2)).unwrap();
            crawler = Crawler::from_cursor(good_cursor);
        }
        assert!(
            crashes >= 2,
            "the sweep should crash mid-crawl, got {crashes}"
        );
        assert!(
            same_sharded(&reference, dur.inner()),
            "crash/resume crawl must equal the uninterrupted crawl"
        );
        drop(dur);
        let dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        assert!(same_sharded(&reference, dur.inner()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_store_serves_lookups_through_cryptext() {
        let dir = tmp_dir("cryptext");
        {
            let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
            for t in [
                "the dirrty republicans",
                "thee dirty repubLIEcans",
                "the dirty republic@@ns",
            ] {
                dur.try_ingest_text(t).unwrap();
            }
            dur.compact().unwrap();
        }
        let dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        let cx = CrypText::with_store(dur);
        let hits = cx.look_up("republicans", LookupParams::new(1, 1)).unwrap();
        let tokens: Vec<&str> = hits.iter().map(|h| h.token.as_str()).collect();
        assert!(tokens.contains(&"republicans"));
        assert!(tokens.contains(&"repubLIEcans"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Decode a hex string into bytes.
    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The delta-log bytes of one batch into a fresh, lexicon-seeded
    /// 2-shard store are pinned. The batch repeats `dirrty` within and
    /// across texts, holds the 1-char `a` (a stored lexicon word, still
    /// under the 2-char gate), lexicon words already stored (`the`,
    /// `democrats`, `and`) and `漢字`/`ёё` (no phonetic content). Each log
    /// holds its shard's seed frame (batch 1), then the batch's frame
    /// (batch 2) with its tokens coalesced in first-occurrence order:
    /// shard 0 `the`×2, `republicans`, `democrats`, `and`, `vacc1ne`×2;
    /// shard 1 `dirrty`×4. A frame is a little-endian length and CRC, the
    /// batch sequence and the frame kind (2 seed, 1 deltas: op count, then
    /// length-prefixed token and count per op).
    #[test]
    fn delta_log_bytes_are_pinned() {
        let dir = tmp_dir("golden");
        let mut dur = DurableTokenStore::<ShardedTokenDatabase>::open(&dir, opts(2)).unwrap();
        dur.try_seed_lexicon().unwrap();
        dur.try_ingest_texts(&[
            "the dirrty dirrty republicans a",
            "dirrty 漢字 democrats and ёё vacc1ne",
            "a vacc1ne the dirrty",
        ])
        .unwrap();
        drop(dur);
        let read = |p: PathBuf| std::fs::read(p).unwrap();
        let log = |s| {
            read(DurableTokenStore::<ShardedTokenDatabase>::log_path_in(
                &dir, s,
            ))
        };
        let seed_frame = "09000000c1617c1f010000000000000002";
        let delta_0 = [
            seed_frame,
            "6a000000e7b858fc02000000000000000105000000", // 5 ops
            "030000007468650200000000000000",             // the ×2
            "0b00000072657075626c6963616e730100000000000000", // republicans
            "0900000064656d6f63726174730100000000000000", // democrats
            "03000000616e640100000000000000",             // and
            "0700000076616363316e650200000000000000",     // vacc1ne ×2
        ];
        let delta_1 = [
            seed_frame,
            "1f000000c83521a302000000000000000101000000", // 1 op
            "060000006469727274790400000000000000",       // dirrty ×4
        ];
        let commit = [
            "08000000f7df88a90100000000000000", // batch 1
            "0800000014d807270200000000000000", // batch 2
        ];
        assert_eq!(log(0), hex(&delta_0.concat()));
        assert_eq!(log(1), hex(&delta_1.concat()));
        assert_eq!(
            read(DurableTokenStore::<ShardedTokenDatabase>::commit_path_in(
                &dir
            )),
            hex(&commit.concat())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch killed at its commit record — its shard frame whole on
    /// disk, its commit record missing — never comes back: the next open
    /// numbers new batches past it, so a later batch's commit record can
    /// never adopt its frame, even across a second open without a
    /// compaction in between.
    #[test]
    fn a_batch_killed_at_its_commit_record_never_comes_back() {
        let dir = tmp_dir("commit-kill");
        let (a, b, c) = (
            "the dirrty republicans",
            "vacc1ne mandate",
            "thinking about suic1de",
        );
        let log = DurableTokenStore::<TokenDatabase>::log_path_in(&dir, 0);
        let mut dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
        dur.try_ingest_text(a).unwrap();
        let log_after_a = std::fs::metadata(&log).unwrap().len();

        failpoint::reset_hits();
        let guard = failpoint::arm("delta.commit", "kill@1");
        let err = dur.try_ingest_text(b).unwrap_err();
        assert!(failpoint::is_injected(&err));
        drop(guard);
        drop(dur);
        assert!(
            std::fs::metadata(&log).unwrap().len() > log_after_a,
            "the killed batch's shard frame is on disk"
        );

        let mut dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
        dur.try_ingest_text(c).unwrap();
        drop(dur);
        let dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
        let mut want = TokenDatabase::in_memory();
        want.ingest_text(a);
        want.ingest_text(c);
        assert_eq!(dur.inner().records(), want.records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Only a missing manifest collection is a first open. A manifest
    /// whose fields a swap never writes is corrupt, naming the field —
    /// opening it as a fresh store would drop the live epoch's records.
    #[test]
    fn a_bad_manifest_is_corrupt_not_a_first_open() {
        let dir = tmp_dir("bad-manifest");
        {
            let mut dur = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1)).unwrap();
            dur.try_ingest_text("the dirrty republicans").unwrap();
            dur.compact().unwrap();
        }
        let snapshots = dir.join("snapshots");
        // The manifest collection's one document, as `read_manifest` reads it.
        let first = |store: &Database| {
            store
                .read_collection(MANIFEST, |docs| {
                    let (id, doc) = docs.scan().min_by_key(|&(id, _)| id).unwrap();
                    (id, doc.clone())
                })
                .unwrap()
        };
        let manifest = {
            let store = Database::open(&snapshots, DbOptions::default()).unwrap();
            first(&store).1
        };
        // Write the manifest back through `tamper`, then open.
        let open_tampered = |tamper: &dyn Fn(&mut Document)| {
            {
                let store = Database::open(&snapshots, DbOptions::default()).unwrap();
                let (id, _) = first(&store);
                let mut doc = manifest.clone();
                tamper(&mut doc);
                store.update(MANIFEST, id, doc).unwrap();
            }
            let err = DurableTokenStore::<TokenDatabase>::open(&dir, opts(1))
                .err()
                .expect("a tampered manifest must not open");
            assert!(matches!(err, Error::Corrupt(_)), "{err}");
            err.to_string()
        };
        let err = open_tampered(&|m| m.set("shards", Value::Int(0)));
        assert!(err.contains("shards is 0"), "{err}");
        let err = open_tampered(&|m| {
            m.remove("included_batch");
        });
        assert!(err.contains("has no included_batch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_from_refuses_durable_stores() {
        let store = Database::in_memory();
        let err = <DurableTokenStore<TokenDatabase> as TokenStore>::load_from(&store, "tokens")
            .err()
            .expect("load_from must refuse");
        assert!(err.to_string().contains("DurableTokenStore::open"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::database::TokenDatabase;
    use proptest::prelude::*;

    /// Ingest words: perturbation-shaped strings (some a single char),
    /// dictionary words the seeded lexicon already stores (`a` among them,
    /// under the 2-char gate), and words with no phonetic content.
    fn word() -> impl Strategy<Value = String> {
        const STORED: [&str; 6] = ["the", "democrats", "and", "a", "vaccine", "dirty"];
        const NO_SOUND: [&str; 2] = ["漢字", "ёё"];
        prop_oneof![
            "[a-eA-E1@3$]{1,6}",
            (0..STORED.len()).prop_map(|i| STORED[i].to_string()),
            (0..NO_SOUND.len()).prop_map(|i| NO_SOUND[i].to_string()),
        ]
    }

    fn batches() -> impl Strategy<Value = Vec<Vec<String>>> {
        let text = proptest::collection::vec(word(), 0..6).prop_map(|ws| ws.join(" "));
        proptest::collection::vec(proptest::collection::vec(text, 1..4), 1..4)
    }

    /// Log the batches durably (seeding the lexicon first, compacting
    /// after batch `compact_after`), reopen, and return the recovered
    /// store next to the in-memory `ingest_texts` reference.
    fn recover<S: DeltaStore>(
        shards: usize,
        batches: &[Vec<String>],
        lexicon: bool,
        compact_after: Option<usize>,
    ) -> (S, S) {
        let mut want = S::fresh(shards);
        let dir = super::tests::tmp_dir(&format!("prop-{shards}"));
        let mut dur = DurableTokenStore::<S>::open(&dir, super::tests::opts(shards)).unwrap();
        if lexicon {
            TokenStore::seed_lexicon(&mut want);
            dur.try_seed_lexicon().unwrap();
        }
        for (i, batch) in batches.iter().enumerate() {
            TokenStore::ingest_texts(&mut want, batch);
            dur.try_ingest_texts(batch).unwrap();
            if compact_after == Some(i) {
                dur.compact().unwrap();
            }
        }
        drop(dur);
        let got = DurableTokenStore::<S>::open(&dir, super::tests::opts(shards))
            .unwrap()
            .into_inner();
        let _ = std::fs::remove_dir_all(&dir);
        (got, want)
    }

    proptest! {
        /// CRC framing vouches for integrity, but decoding must never
        /// panic on any byte sequence regardless.
        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..80),
        ) {
            let _ = decode_shard_frame(&bytes);
            let _ = decode_commit_frame(&bytes);
        }

        #[test]
        fn delta_frames_round_trip(
            seq in 0u64..1_000_000,
            tokens in proptest::collection::vec("[a-z@1]{1,8}", 0..6),
            deltas in proptest::collection::vec(1u64..1_000, 0..6),
        ) {
            let ops: Vec<(&str, u64)> = tokens.iter().map(String::as_str).zip(deltas).collect();
            let frame = encode_delta_frame(seq, &ops);
            let (got_seq, body) = decode_shard_frame(&frame).unwrap();
            prop_assert_eq!(got_seq, seq);
            match body {
                FrameBody::Deltas(got) => {
                    let got: Vec<(&str, u64)> = got.iter().map(|(t, d)| (t.as_str(), *d)).collect();
                    prop_assert_eq!(got, ops);
                }
                FrameBody::SeedLexicon => prop_assert!(false, "wrong frame kind"),
            }
            let seed = encode_seed_frame(seq);
            prop_assert!(matches!(
                decode_shard_frame(&seed),
                Ok((s, FrameBody::SeedLexicon)) if s == seq
            ));
        }

        /// Reopening lands on exactly the records in-memory ingest of the
        /// same batches produces: the flat store (`shards == 0`) and 1–4
        /// shards, with and without a seeded lexicon and a compaction.
        #[test]
        fn reopen_equals_in_memory_ingest(
            batches in batches(),
            shards in 0usize..=4,
            lexicon in any::<bool>(),
            compact_after in proptest::option::of(0usize..4),
        ) {
            if shards == 0 {
                let (got, want) = recover::<TokenDatabase>(1, &batches, lexicon, compact_after);
                prop_assert_eq!(got.records(), want.records());
            } else {
                let (got, want) =
                    recover::<ShardedTokenDatabase>(shards, &batches, lexicon, compact_after);
                for s in 0..shards {
                    prop_assert_eq!(got.shard(s).records(), want.shard(s).records(), "shard {}", s);
                }
            }
        }
    }
}
