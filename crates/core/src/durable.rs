//! Durable streaming ingest: a delta log + crash recovery.
//!
//! The paper's crawler (§III-F) enriches the token database continuously,
//! but until now every durability point was a *full* persist — O(corpus)
//! per save, so a crash between saves lost every batch since the last
//! one. [`DurableTokenStore`] makes ingest itself durable at batch
//! granularity, reusing the docstore's CRC-framed WAL layer
//! ([`cryptext_docstore::wal::FrameWriter`]) for an append-only **delta
//! log**:
//!
//! * **One delta frame per batch** — an ingest batch is prepared once by
//!   the inner store ([`PreparedBatch`]: tokenized, gated, encoded), and
//!   its word queue, coalesced by token in first-occurrence order, becomes
//!   one `(token, +count)` frame in the delta log (`delta_0.log`). The
//!   same prepared batch is then merged, so the frames recovery replays
//!   and the state live ingest applies come from one prepare. An append is
//!   O(batch), not O(corpus).
//! * **Two-phase batch commit** — the delta frame carries a monotonic
//!   `batch_seq`; a record in the separate **commit log**, appended
//!   *after* the delta frame, is the batch's atomicity point. Recovery
//!   replays only committed batches, so a crash mid-batch yields exactly
//!   the pre-batch state — never a half-applied batch.
//! * **Snapshot + log recovery** — [`DurableTokenStore::open`] loads the
//!   newest epoch snapshot from the embedded docstore, then replays
//!   committed delta frames with `batch_seq` beyond the snapshot's
//!   `included_batch` watermark, in batch order. Replaying an upsert
//!   reproduces live ingest exactly (same insert order, same counts, same
//!   codes), so the recovered store is byte-identical to one that never
//!   crashed.
//! * **Compaction** — [`DurableTokenStore::compact`] folds the logs into
//!   a fresh epoch snapshot (`tokens__e{E}`, written with the crash-safe
//!   staged persist: the records as a few block documents of
//!   [`crate::database::PERSIST_BLOCK_RECORDS`] each), atomically swaps
//!   the `tokens__ingest` manifest (epoch, delta-log count, always 1,
//!   and `included_batch`) via a staging-collection rename, then truncates
//!   the logs and sweeps stale epochs. With `sync_every_batch` on, the
//!   docstore WAL is fsynced between the swap and the truncation. The
//!   manifest swap is the only commit point; `batch_seq` never resets, so
//!   frames surviving a crash mid-truncation are filtered by the watermark
//!   on the next open.
//!
//! # Failure semantics
//!
//! The crash model is process death (every test boundary) plus power
//! loss when `sync_every_batch` is on. A *live* process that observes a
//! write error is different from a dead one: torn bytes may sit at a log
//! tail, and appending after them would shadow every later frame from
//! recovery (the frame scan stops at the first bad frame). The store
//! therefore **poisons** itself on any log-write failure — subsequent
//! ingests and compactions fail fast until the store is reopened, which
//! truncates the torn tail and resumes cleanly. The fallible `try_*`
//! ingest methods surface these errors; the infallible [`TokenStore`]
//! ingest surface applies *nothing* on failure and leaves the error
//! visible through [`DurableTokenStore::poisoned`].
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
use crate::store::TokenStore;

/// The manifest collection: one document holding `epoch`, `shards` (the
/// delta-log count, always [`DELTA_LOGS`]), and `included_batch` (the
/// highest batch folded into the live snapshot).
const MANIFEST: &str = "tokens__ingest";
/// Staging name the manifest is built under before the atomic rename.
const MANIFEST_STAGING: &str = "tokens__ingest_staging";
/// The manifest's `shards` value: the store keeps one delta log,
/// `delta_0.log`. A manifest that names another count describes logs this
/// store would not read, so it opens as [`Error::Corrupt`].
const DELTA_LOGS: i64 = 1;

/// Log-frame kind: a batch of `(token, delta)` upserts.
const FRAME_DELTAS: u8 = 1;
/// Log-frame kind: seed the English lexicon.
const FRAME_SEED: u8 = 2;

/// A [`TokenStore`] whose ingest the durable layer can log and replay.
/// [`crate::TokenDatabase`] implements it next to its own code.
///
/// The contract: ingest is a [`PreparedBatch`] — one queue of words —
/// merged into the state it was prepared against; the store's own
/// `ingest_texts` is exactly that. The durable layer writes its frame
/// from the prepared batch between the two steps. Replaying a frame's
/// `apply_upsert(token, count)` calls in order reproduces the merge of
/// the batch's queue (both funnel into the same record insert, in
/// first-occurrence order).
pub trait DeltaStore: TokenStore + Sized {
    /// An empty store.
    fn fresh() -> Self;
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
}

/// Tuning knobs for [`DurableTokenStore::open`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// `fsync` the delta log and the commit log at every batch commit.
    /// Off, a batch survives process death (writes are flushed in commit
    /// order) but not power loss.
    pub sync_every_batch: bool,
}

/// One decoded delta-log frame.
enum FrameBody {
    Deltas(Vec<(String, u64)>),
    SeedLexicon,
}

/// A crash-recoverable token store: an in-memory [`DeltaStore`] backed by
/// a delta log, a commit log, and epoch snapshots in an embedded docstore.
/// See the module docs for the protocol.
pub struct DurableTokenStore<S: DeltaStore> {
    inner: S,
    store: Database,
    dir: PathBuf,
    log: FrameWriter,
    commit: FrameWriter,
    /// Sequence the next batch will commit under (monotonic forever).
    next_batch: u64,
    /// Live snapshot epoch (0 = no snapshot yet).
    epoch: u64,
    poisoned: bool,
    sync_every_batch: bool,
    /// Batch append latency (delta frame + commit record, per-batch
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

        let (epoch, included) = match Self::read_manifest(&store)? {
            Some(m) => m,
            None => {
                // First open (or a crash before the first manifest swap
                // landed — no batch can have been logged yet).
                Self::swap_manifest(&store, 0, 0)?;
                (0, 0)
            }
        };

        let mut inner = if epoch == 0 {
            S::fresh()
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

        // Replay committed frames beyond the snapshot watermark. A frame's
        // sequence is always past every sequence already in the log, so
        // log order is batch order, the order live ingest applied them.
        let log_path = Self::log_path_in(dir);
        for frame in read_frames(&log_path)?.frames {
            let (seq, body) = decode_log_frame(&frame)?;
            // Every observed sequence — committed or not — bounds the
            // next batch number, so a torn batch's number is never reused
            // (a reused number would resurrect its stale frame on the next
            // replay).
            max_seq = max_seq.max(seq);
            if seq <= included || !committed.contains(&seq) {
                continue;
            }
            match body {
                FrameBody::Deltas(ops) => {
                    for (token, delta) in ops {
                        inner.apply_upsert(&token, delta);
                    }
                }
                FrameBody::SeedLexicon => inner.seed_lexicon(),
            }
        }

        // Opening the writers truncates any torn tail before appending.
        let log = FrameWriter::open(&log_path, false, "delta.append")?;
        let commit = FrameWriter::open(&commit_path, false, "delta.commit")?;

        Ok(DurableTokenStore {
            inner,
            store,
            dir: dir.to_path_buf(),
            log,
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

    /// Force-fsync the delta log and the commit log, regardless of the
    /// per-batch sync setting — the flush half of a graceful drain: after
    /// admissions stop and in-flight batches land, one `sync` makes every
    /// committed batch power-loss durable before the process exits.
    /// Fires the `drain.flush` failpoint first, so shutdown chaos tests
    /// can kill or stall the flush deterministically.
    pub fn sync(&mut self) -> Result<()> {
        self.ensure_live()?;
        failpoint::check("drain.flush")?;
        let _t = self.fsync_us.start_timer();
        self.log.sync()?;
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

    fn log_path_in(dir: &Path) -> PathBuf {
        dir.join("delta_0.log")
    }

    fn commit_path_in(dir: &Path) -> PathBuf {
        dir.join("commit.log")
    }

    fn epoch_collection(epoch: u64) -> String {
        format!("tokens__e{epoch}")
    }

    /// Parse the epoch out of a `tokens__e{E}`-prefixed collection name
    /// (the epoch snapshot itself, or the staging collection a crashed
    /// persist of it left behind). Number-parsing, not string-prefixing:
    /// `e1` must not swallow `e10`.
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

    /// The live manifest's `(epoch, included_batch)`, or `None` when there
    /// is no manifest collection yet — the only first-open state, since
    /// the collection is created by a rename of a staged, complete
    /// document. A document missing, or a field missing, of the wrong type
    /// or out of range, is [`Error::Corrupt`] naming it: opening over it as
    /// a first open would drop every record of the live epoch. So is a
    /// delta-log count other than [`DELTA_LOGS`]: replay would skip the
    /// logs past the first.
    fn read_manifest(store: &Database) -> Result<Option<(u64, u64)>> {
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
            let logs = field("shards", 1)?;
            if logs != DELTA_LOGS as u64 {
                return Err(Error::corrupt(format!(
                    "manifest {MANIFEST}: shards is {logs}, but this store keeps {DELTA_LOGS} delta log"
                )));
            }
            let included = field("included_batch", 0)?;
            Ok(Some((epoch, included)))
        })?
    }

    /// Build the manifest under a staging name and rename it over the
    /// live one — a single WAL record, the durable layer's commit point.
    fn swap_manifest(store: &Database, epoch: u64, included: u64) -> Result<()> {
        if store.has_collection(MANIFEST_STAGING) {
            store.drop_collection(MANIFEST_STAGING)?;
        }
        store.create_collection(MANIFEST_STAGING)?;
        store.insert(
            MANIFEST_STAGING,
            Document::new()
                .with("epoch", epoch as i64)
                .with("shards", DELTA_LOGS)
                .with("included_batch", included as i64),
        )?;
        failpoint::check("compact.manifest.swap")?;
        store.rename_collection(MANIFEST_STAGING, MANIFEST)
    }

    /// Append one batch's log frame, then its commit record. Any failure
    /// (injected or real) poisons the handle: nothing was applied, and the
    /// tail of either log may be torn.
    fn log_batch(&mut self, frame: &[u8]) -> Result<()> {
        let _t = self.append_us.start_timer();
        let seq = self.next_batch;
        let res = (|| -> Result<()> {
            self.log.append_frame(frame)?;
            if self.sync_every_batch {
                self.log.sync()?;
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

    /// Log a prepared batch — its delta frame, unless it stores no word,
    /// then the commit record — and merge it. On `Err` nothing was
    /// applied.
    fn log_and_merge(&mut self, batch: PreparedBatch<'_>) -> Result<usize> {
        if let Some(frame) = delta_frame(self.next_batch, &batch) {
            self.log_batch(&frame)?;
        }
        Ok(self.inner.merge(batch))
    }

    /// Durably ingest one batch of texts: prepare it once in the inner
    /// store, log it (its delta frame + the commit record), then merge the
    /// same prepared batch. On `Err` nothing was applied.
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

    /// Durably seed the English lexicon: one marker frame (replay seeds
    /// the same lexicon).
    pub fn try_seed_lexicon(&mut self) -> Result<()> {
        self.ensure_live()?;
        self.log_batch(&encode_seed_frame(self.next_batch))?;
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
        Self::swap_manifest(&self.store, new_epoch, included)?;
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
            failpoint::check("compact.truncate")?;
            let p = Self::log_path_in(&this.dir);
            std::fs::write(&p, [])?;
            this.log = FrameWriter::open(&p, false, "delta.append")?;
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

/// The infallible [`TokenStore`] surface: reads delegate to the inner
/// store; writes go through the durable `try_*` paths and, on a log
/// failure, apply **nothing** (the handle is poisoned — see
/// [`DurableTokenStore::poisoned`] — and a batch is never half-applied).
impl<S: DeltaStore> TokenStore for DurableTokenStore<S> {
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

    fn record(&self, id: u32) -> &TokenRecord {
        self.inner.record(id)
    }

    fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_histogram(
            "cryptext_durable_append_us",
            "Durable-ingest batch append latency (delta frame + commit record, microseconds)",
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

/// The delta frame of a prepared batch: its queue coalesced by token at
/// first occurrence, which preserves the id-assignment order of the
/// uncoalesced merge. `None` when the batch stores no word.
fn delta_frame(seq: u64, batch: &PreparedBatch<'_>) -> Option<Vec<u8>> {
    if batch.queue.is_empty() {
        return None;
    }
    // Sized once for the batch: the queue holds at most one entry per
    // word, so coalescing never grows either.
    let mut at: FxHashMap<&str, usize> =
        FxHashMap::with_capacity_and_hasher(batch.words, Default::default());
    let mut ops: Vec<(&str, u64)> = Vec::with_capacity(batch.words);
    for word in batch.queue.iter().flatten() {
        let token = word.token();
        match at.get(token) {
            Some(&i) => ops[i].1 += 1,
            None => {
                at.insert(token, ops.len());
                ops.push((token, 1));
            }
        }
    }
    Some(encode_delta_frame(seq, &ops))
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

/// Decode a delta-log frame. CRC framing already vouches for integrity,
/// but decoding still never panics on any byte sequence (proptested).
fn decode_log_frame(frame: &[u8]) -> Result<(u64, FrameBody)> {
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

    type Durable = DurableTokenStore<TokenDatabase>;

    pub(super) fn tmp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "cryptext-durable-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    pub(super) fn open(dir: &Path) -> Result<Durable> {
        Durable::open(dir, DurableOptions::default())
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
    fn prefix_store(k: usize) -> TokenDatabase {
        let mut db = TokenDatabase::in_memory();
        for batch in &ingest_batches()[..k] {
            db.ingest_texts(batch);
        }
        db
    }

    fn apply(db: &mut Durable, step: &Step) -> Result<()> {
        match step {
            Step::Ingest(batch) => {
                db.try_ingest_texts(batch)?;
            }
            Step::Compact => db.compact()?,
        }
        Ok(())
    }

    /// Kill the process model at every write boundary of the mixed
    /// workload (wildcard failpoint, hit 1, 2, 3, …): after each crash,
    /// recovery must land byte-identical on some committed-batch prefix —
    /// never losing a committed batch, never surfacing a half-applied one —
    /// and resuming the missing batches must reach the uninterrupted
    /// reference exactly.
    #[test]
    fn kill_at_every_boundary_recovers_a_committed_prefix() {
        let n_batches = ingest_batches().len();
        let full = prefix_store(n_batches);

        // A clean run counts the boundaries the sweep must cover.
        let dir = tmp_dir("sweep-count");
        failpoint::reset_hits();
        {
            let mut db = open(&dir).unwrap();
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
            let dir = tmp_dir(&format!("sweep-{i}"));
            failpoint::reset_hits();
            let guard = failpoint::arm("*", &format!("kill@{i}"));
            let mut applied = 0usize;
            let outcome = (|| -> Result<()> {
                let mut db = open(&dir)?;
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

            let mut db =
                open(&dir).unwrap_or_else(|e| panic!("kill@{i}: recovery must never fail: {e}"));
            let k = (0..=n_batches)
                .find(|&k| prefix_store(k).records() == db.inner().records())
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
            let db = open(&dir).unwrap();
            assert_eq!(
                db.inner().records(),
                full.records(),
                "kill@{i}: resumed state diverges from the reference"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn uncompacted_batches_survive_reopen() {
        let dir = tmp_dir("reopen");
        {
            let mut dur = open(&dir).unwrap();
            for batch in &ingest_batches() {
                dur.try_ingest_texts(batch).unwrap();
            }
            assert_eq!(dur.epoch(), 0, "no compaction ran");
        }
        let dur = open(&dir).unwrap();
        let want = prefix_store(ingest_batches().len());
        assert_eq!(dur.inner().records(), want.records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_logs_and_preserves_state() {
        let dir = tmp_dir("compact");
        let batches = ingest_batches();
        let mut dur = open(&dir).unwrap();
        dur.try_ingest_texts(batches[0]).unwrap();
        dur.try_ingest_texts(batches[1]).unwrap();
        assert_eq!(dur.epoch(), 0);
        dur.compact().unwrap();
        assert_eq!(dur.epoch(), 1);
        for p in [Durable::log_path_in(&dir), Durable::commit_path_in(&dir)] {
            assert_eq!(
                std::fs::metadata(&p).unwrap().len(),
                0,
                "{p:?} truncated after compaction"
            );
        }

        // Post-compaction batches replay on top of the epoch snapshot.
        dur.try_ingest_texts(batches[2]).unwrap();
        dur.try_ingest_texts(batches[3]).unwrap();
        drop(dur);
        let dur = open(&dir).unwrap();
        assert_eq!(dur.epoch(), 1);
        assert_eq!(dur.inner().records(), prefix_store(4).records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A recovered delta-log store is byte-identical to a monolithic
    /// persist/load of the same final state.
    #[test]
    fn recovered_state_matches_monolithic_persist_round_trip() {
        let dir = tmp_dir("monolithic");
        let batches = ingest_batches();
        let mut dur = open(&dir).unwrap();
        dur.try_ingest_texts(batches[0]).unwrap();
        dur.try_ingest_texts(batches[1]).unwrap();
        dur.compact().unwrap();
        dur.try_ingest_texts(batches[2]).unwrap();
        dur.try_ingest_texts(batches[3]).unwrap();

        // Monolithic export of the live state, round-tripped.
        let mono = Database::in_memory();
        TokenStore::persist_to(&dur, &mono, "tokens").unwrap();
        let mono_loaded = TokenDatabase::load_from(&mono, "tokens").unwrap();

        drop(dur);
        let dur = open(&dir).unwrap();
        assert_eq!(mono_loaded.records(), dur.inner().records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Power-loss durability of compaction in sync mode: the truncation
    /// must wait until the docstore WAL holding the new epoch is synced.
    /// A kill at that sync leaves both logs whole, and a reopen recovers
    /// every batch.
    #[test]
    fn sync_mode_compaction_syncs_the_snapshot_before_truncating() {
        let dir = tmp_dir("sync-compact");
        let sync_opts = DurableOptions {
            sync_every_batch: true,
        };
        let batches = ingest_batches();
        let mut dur = Durable::open(&dir, sync_opts).unwrap();
        for batch in &batches {
            dur.try_ingest_texts(batch).unwrap();
        }
        let logs = [Durable::log_path_in(&dir), Durable::commit_path_in(&dir)];
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

        let dur = Durable::open(&dir, sync_opts).unwrap();
        assert_eq!(
            dur.inner().records(),
            prefix_store(batches.len()).records(),
            "every batch recovered"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_poisons_handle_until_reopen() {
        let dir = tmp_dir("torn");
        let mut dur = open(&dir).unwrap();
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
        let mut dur = open(&dir).unwrap();
        assert!(!dur.poisoned());
        let mut want = TokenDatabase::in_memory();
        want.ingest_text("the dirrty republicans");
        assert_eq!(dur.inner().records(), want.records());
        dur.try_ingest_text("vacc1ne mandate").unwrap();
        drop(dur);
        let dur = open(&dir).unwrap();
        want.ingest_text("vacc1ne mandate");
        assert_eq!(dur.inner().records(), want.records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gated_tokens_are_neither_logged_nor_applied() {
        let dir = tmp_dir("gated");
        let mut dur = open(&dir).unwrap();
        dur.try_ingest_token("a").unwrap(); // under the 2-char floor
        dur.try_ingest_token("💀💀").unwrap(); // no phonetic content
        assert_eq!(dur.inner().records().len(), 0);
        let log = Durable::log_path_in(&dir);
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
            let mut dur = open(&dir).unwrap();
            dur.try_ingest_text("the dirrty republicans").unwrap();
            dur.try_seed_lexicon().unwrap();
            dur.try_ingest_text("vacc1ne mandate").unwrap();
        }
        let dur = open(&dir).unwrap();
        let mut want = TokenDatabase::in_memory();
        want.ingest_text("the dirrty republicans");
        want.seed_lexicon();
        want.ingest_text("vacc1ne mandate");
        assert_eq!(dur.inner().records(), want.records());
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
        let mut reference = TokenDatabase::in_memory();
        Crawler::new().run_once(&p, &mut reference, 0);

        let dir = tmp_dir("crawler");
        let mut dur = open(&dir).unwrap();
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
            dur = open(&dir).unwrap();
            crawler = Crawler::from_cursor(good_cursor);
        }
        assert!(
            crashes >= 2,
            "the sweep should crash mid-crawl, got {crashes}"
        );
        assert_eq!(
            reference.records(),
            dur.inner().records(),
            "crash/resume crawl must equal the uninterrupted crawl"
        );
        drop(dur);
        let dur = open(&dir).unwrap();
        assert_eq!(reference.records(), dur.inner().records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_store_serves_lookups_through_cryptext() {
        let dir = tmp_dir("cryptext");
        {
            let mut dur = open(&dir).unwrap();
            for t in [
                "the dirrty republicans",
                "thee dirty repubLIEcans",
                "the dirty republic@@ns",
            ] {
                dur.try_ingest_text(t).unwrap();
            }
            dur.compact().unwrap();
        }
        let cx = CrypText::with_store(open(&dir).unwrap());
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
    /// store are pinned. The batch repeats `dirrty` within and across
    /// texts, holds the 1-char `a` (a stored lexicon word, still under the
    /// 2-char gate), lexicon words already stored (`the`, `democrats`,
    /// `and`) and `漢字`/`ёё` (no phonetic content). The log holds the
    /// seed frame (batch 1), then the batch's frame (batch 2) with its
    /// tokens coalesced in first-occurrence order: `the`×2, `dirrty`×4,
    /// `republicans`, `democrats`, `and`, `vacc1ne`×2. A frame is a
    /// little-endian length and CRC, the batch sequence and the frame kind
    /// (2 seed, 1 deltas: op count, then length-prefixed token and count
    /// per op).
    #[test]
    fn delta_log_bytes_are_pinned() {
        let dir = tmp_dir("golden");
        let mut dur = open(&dir).unwrap();
        dur.try_seed_lexicon().unwrap();
        dur.try_ingest_texts(&[
            "the dirrty dirrty republicans a",
            "dirrty 漢字 democrats and ёё vacc1ne",
            "a vacc1ne the dirrty",
        ])
        .unwrap();
        drop(dur);
        let read = |p: PathBuf| std::fs::read(p).unwrap();
        let delta = [
            "09000000c1617c1f010000000000000002",             // seed
            "7c00000006a6a73402000000000000000106000000",     // 6 ops
            "030000007468650200000000000000",                 // the ×2
            "060000006469727274790400000000000000",           // dirrty ×4
            "0b00000072657075626c6963616e730100000000000000", // republicans
            "0900000064656d6f63726174730100000000000000",     // democrats
            "03000000616e640100000000000000",                 // and
            "0700000076616363316e650200000000000000",         // vacc1ne ×2
        ];
        let commit = [
            "08000000f7df88a90100000000000000", // batch 1
            "0800000014d807270200000000000000", // batch 2
        ];
        assert_eq!(read(Durable::log_path_in(&dir)), hex(&delta.concat()));
        assert_eq!(read(Durable::commit_path_in(&dir)), hex(&commit.concat()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch killed at its commit record — its delta frame whole on
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
        let log = Durable::log_path_in(&dir);
        let mut dur = open(&dir).unwrap();
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
            "the killed batch's delta frame is on disk"
        );

        let mut dur = open(&dir).unwrap();
        dur.try_ingest_text(c).unwrap();
        drop(dur);
        let dur = open(&dir).unwrap();
        let mut want = TokenDatabase::in_memory();
        want.ingest_text(a);
        want.ingest_text(c);
        assert_eq!(dur.inner().records(), want.records());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The manifest collection's one document, as `read_manifest` reads it.
    fn manifest_doc(store: &Database) -> (cryptext_docstore::DocId, Document) {
        store
            .read_collection(MANIFEST, |docs| {
                let (id, doc) = docs.scan().min_by_key(|&(id, _)| id).unwrap();
                (id, doc.clone())
            })
            .unwrap()
    }

    /// Write a compacted store's manifest back through `tamper`.
    fn tamper_manifest(dir: &Path, tamper: impl FnOnce(&mut Document)) {
        let store = Database::open(&dir.join("snapshots"), DbOptions::default()).unwrap();
        let (id, mut doc) = manifest_doc(&store);
        tamper(&mut doc);
        store.update(MANIFEST, id, doc).unwrap();
    }

    /// Only a missing manifest collection is a first open. A manifest
    /// whose fields a swap never writes is corrupt, naming the field —
    /// opening it as a fresh store would drop the live epoch's records.
    #[test]
    fn a_bad_manifest_is_corrupt_not_a_first_open() {
        let dir = tmp_dir("bad-manifest");
        {
            let mut dur = open(&dir).unwrap();
            dur.try_ingest_text("the dirrty republicans").unwrap();
            dur.compact().unwrap();
        }
        let manifest = {
            let store = Database::open(&dir.join("snapshots"), DbOptions::default()).unwrap();
            manifest_doc(&store).1
        };
        // Write the manifest back through `tamper`, then open.
        let open_tampered = |tamper: &dyn Fn(&mut Document)| {
            tamper_manifest(&dir, |doc| {
                *doc = manifest.clone();
                tamper(doc);
            });
            let err = open(&dir).err().expect("a tampered manifest must not open");
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

    /// Every file under `dir` with its bytes, by path.
    fn files(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
        let mut out = std::collections::BTreeMap::new();
        let mut todo = vec![dir.to_path_buf()];
        while let Some(d) = todo.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    todo.push(path);
                } else {
                    out.insert(path.clone(), std::fs::read(&path).unwrap());
                }
            }
        }
        out
    }

    /// A manifest that names more than one delta log describes logs this
    /// store does not read (`delta_1.log`, …). It opens as corrupt rather
    /// than replaying `delta_0.log` alone, and the refused open leaves
    /// every file as it found it, logs and snapshots included.
    #[test]
    fn a_manifest_naming_two_logs_is_corrupt_and_left_untouched() {
        let dir = tmp_dir("two-logs");
        {
            let mut dur = open(&dir).unwrap();
            dur.try_ingest_text("the dirrty republicans").unwrap();
            dur.compact().unwrap();
            dur.try_ingest_text("vacc1ne mandate").unwrap();
        }
        tamper_manifest(&dir, |m| m.set("shards", Value::Int(2)));
        std::fs::write(dir.join("delta_1.log"), b"frames of another log").unwrap();
        let before = files(&dir);
        assert!(before.len() > 3, "logs and snapshot files: {before:?}");

        let err = open(&dir).err().expect("two logs must not open");
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("shards is 2"), "{err}");
        assert!(files(&dir) == before, "a refused open changes no file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_from_refuses_durable_stores() {
        let store = Database::in_memory();
        let err = <Durable as TokenStore>::load_from(&store, "tokens")
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

    proptest! {
        /// CRC framing vouches for integrity, but decoding must never
        /// panic on any byte sequence regardless.
        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..80),
        ) {
            let _ = decode_log_frame(&bytes);
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
            let (got_seq, body) = decode_log_frame(&frame).unwrap();
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
                decode_log_frame(&seed),
                Ok((s, FrameBody::SeedLexicon)) if s == seq
            ));
        }

        /// Reopening lands on exactly the records in-memory ingest of the
        /// same batches produces, with and without a seeded lexicon (logged
        /// first) and a compaction after some batch.
        #[test]
        fn reopen_equals_in_memory_ingest(
            batches in batches(),
            lexicon in any::<bool>(),
            compact_after in proptest::option::of(0usize..4),
        ) {
            let mut want = TokenDatabase::in_memory();
            let dir = super::tests::tmp_dir("prop");
            let mut dur = super::tests::open(&dir).unwrap();
            if lexicon {
                want.seed_lexicon();
                dur.try_seed_lexicon().unwrap();
            }
            for (i, batch) in batches.iter().enumerate() {
                want.ingest_texts(batch);
                dur.try_ingest_texts(batch).unwrap();
                if compact_after == Some(i) {
                    dur.compact().unwrap();
                }
            }
            drop(dur);
            let got = super::tests::open(&dir).unwrap().into_inner();
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert_eq!(got.records(), want.records());
        }
    }
}
