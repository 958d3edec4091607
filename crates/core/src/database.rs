//! The human-written token database (§III-A): the single-instance backend
//! of the [`crate::store::TokenStore`] trait.
//!
//! Stores **raw case-sensitive tokens** exactly as found in the corpus,
//! encoded with the customized Soundex at every phonetic level `k ∈
//! {0, 1, 2}`, and maintains the `H_k` hash maps from Soundex code to the
//! set of tokens sharing that sound (Table I of the paper).
//!
//! # Storage backends
//!
//! [`TokenDatabase`] is one of two [`crate::store::TokenStore`] backends:
//!
//! * **`TokenDatabase`** (this module) — one in-memory instance, the right
//!   choice for corpora that fit one machine.
//! * **[`crate::shard::ShardedTokenDatabase`]** — N independent
//!   `TokenDatabase` shards behind a consistent-hash router
//!   ([`cryptext_common::hash::jump_hash`] on the token's primary `H_1`
//!   Soundex code), for corpora that need to scale out. Every record lives
//!   in exactly one shard, so shard-local record ids stay dense; the
//!   router remaps them to globally unique ids at the trait boundary
//!   (`global = local * n_shards + shard`). Both backends produce
//!   byte-identical Look Up / Normalization results (proptest-pinned in
//!   `shard.rs`).
//!
//! The engines ([`crate::lookup`], [`crate::normalize`],
//! [`crate::perturb`], [`crate::listening`], [`crate::ingest`]) are generic
//! over the trait and never name a backend.
//!
//! # Hot-path data layout
//!
//! The Look Up read path (§III-B) touches every record in a bucket, so the
//! in-memory layout is organized for scan speed, not update convenience:
//!
//! * **Records are a dense `Vec<TokenRecord>`** addressed by a `u32` id.
//!   Every index (by-token map, buckets) stores ids, never owned strings.
//! * **Soundex codes are interned per level** in a `CodeIndex`: each
//!   distinct code gets a dense `u32` code id; `H_k` is then plain
//!   `postings: Vec<Vec<u32>>` indexed by code id, with a side
//!   `FxHashMap<Box<str>, u32>` used only to resolve a query's code
//!   string to its id (one probe per query code, not per candidate).
//! * **Case folding is precomputed at ingest**: [`TokenRecord::folded`]
//!   holds the lowercased form and [`TokenRecord::folded_chars`] its
//!   scalar count, so the per-candidate filter never calls
//!   `to_lowercase()` or decodes chars — it length-prefilters on the
//!   stored count and runs the scratch-buffer bounded Levenshtein
//!   directly on the stored strings.
//! * **Candidate iteration is visitor-based**:
//!   [`TokenDatabase::for_each_sound_mate`] walks the union of a token's
//!   bucket postings, deduplicating across ambiguous codes with a
//!   generation-marked [`SoundScratch`] (O(1) per candidate, no per-query
//!   set allocation) instead of the old `Vec::contains` linear scan. The
//!   visitor may return [`std::ops::ControlFlow::Break`] to stop early.
//! * **Queries encode once**: the walk takes an [`EncodedQuery`] — level,
//!   deduplicated code set, code hashes, case fold — built a single time
//!   per query, so a sharded deployment's N per-shard walks share one
//!   encoding instead of re-running the multi-variant encoder per shard.
//! * **Each per-level code interner keeps a [`Bloom`] summary** of its
//!   interned codes, current by construction (codes are only interned,
//!   never removed). [`TokenDatabase::may_match`] answers "could any of
//!   this query's codes be indexed here?" without probing the map — the
//!   skip-empty shard routing of `shard.rs` is built on it.
//!
//! Ingest runs through one batch prepare shared by every backend,
//! [`PreparedBatch`]: each text is tokenized once, across cores; each word
//! passes the ingest gates (at least 2 chars; some phonetic content when
//! new to its shard), is routed to its shard (always shard 0 here) and,
//! when new, is encoded at every level from one skeleton expansion
//! ([`CustomSoundex::encode_all_levels`]), giving one word queue per
//! shard. [`TokenDatabase::ingest_texts`] merges the queue in input order,
//! byte-identical to calling [`TokenDatabase::ingest_text`] per text,
//! whose words pass the same gates one at a time. The durable store writes
//! its delta-log frames from the same prepared batch before merging it.
//!
//! [`TokenDatabase::persist_to`] and [`TokenDatabase::load_from`] move the
//! whole database through the embedded document store (the MongoDB
//! substitute) as a snapshot: the records in id order, packed into block
//! documents of at most [`PERSIST_BLOCK_RECORDS`] records each. A block
//! holds parallel arrays — the raw tokens, their counts, and each record's
//! level-1 Soundex codes as a check value — and no secondary index, so a
//! persist writes one document (one WAL frame) per few thousand records.
//! Everything else (folds, codes at every level, `is_english`, the `H_k`
//! buckets) is recomputed on load by the encode ingest runs, all three
//! levels from one skeleton expansion, and the recomputed level-1 codes
//! must equal the stored `codes_k1`. The docstore is the durable copy,
//! the in-memory layout above is the one that answers queries.

use std::cell::RefCell;
use std::ops::ControlFlow;

use cryptext_common::failpoint;
use cryptext_common::hash::{fx_hash_str, Bloom, FxHashMap};
use cryptext_common::par::par_map;
use cryptext_common::{Error, Result};
use cryptext_docstore::{Database, Document, Value};
use cryptext_phonetics::{CustomSoundex, SoundexCode, MAX_PHONETIC_LEVEL};
use cryptext_tokenizer::tokenize_spans;

use crate::durable::DeltaStore;
use crate::store::TokenStore;

/// Number of materialized phonetic levels (`k = 0, 1, 2`).
pub const NUM_LEVELS: usize = MAX_PHONETIC_LEVEL + 1;

/// Most records one persisted block document holds. A block is one WAL
/// frame, so this bounds a frame (~150 KB of tokens and codes) while a
/// 2M-token database still persists as a few hundred documents.
pub const PERSIST_BLOCK_RECORDS: usize = 4096;

/// Block field: the records' raw tokens, in id order.
const BLOCK_TOKENS: &str = "tokens";
/// Block field: the records' occurrence counts, index-aligned.
const BLOCK_COUNTS: &str = "counts";
/// Block field: each record's level-1 codes (see [`write_code_check`]),
/// compared with the recomputed codes on load.
const BLOCK_CODES_K1: &str = "codes_k1";

/// Write a record's stored `codes_k1` check value into `out`: its level-1
/// Soundex codes, space-separated (codes are ASCII letters and digits).
fn write_code_check(codes: &[SoundexCode], out: &mut String) {
    out.clear();
    for (i, code) in codes.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(code.as_str());
    }
}

/// One stored token with its phonetic signature.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenRecord {
    /// The raw case-sensitive surface form.
    pub token: String,
    /// The case-folded form, precomputed at ingest so the Look Up filter
    /// never lowercases per candidate.
    pub folded: String,
    /// Unicode scalar count of [`TokenRecord::folded`], precomputed for the
    /// Levenshtein length pre-filter.
    pub folded_chars: u32,
    /// Number of corpus occurrences (0 for lexicon-seeded entries).
    pub count: u64,
    /// Is this a correctly-spelled dictionary word?
    pub is_english: bool,
    /// All Soundex codes per phonetic level (ambiguous leet glyphs give
    /// several codes per level).
    pub codes: [Vec<SoundexCode>; NUM_LEVELS],
}

/// Aggregate database statistics (the paper quotes >2M tokens across
/// >400K sounds for the production instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenStats {
    /// Distinct case-sensitive tokens.
    pub unique_tokens: usize,
    /// Total token occurrences ingested.
    pub total_occurrences: u64,
    /// Distinct Soundex codes per level.
    pub unique_sounds: [usize; NUM_LEVELS],
    /// How many tokens are dictionary words.
    pub english_tokens: usize,
}

/// One level's interned code table: dense code ids over append-only
/// posting lists. The string map is touched once per *query code*; the
/// per-candidate scan runs over plain `u32` postings. A [`Bloom`] summary
/// of the interned code set rides along (kept current by `intern`, which
/// is the only insertion point), so a shard router can rule the whole
/// level out for a query without probing the map — the skip-empty routing
/// of [`crate::shard::ShardedTokenDatabase`].
#[derive(Debug, Default)]
struct CodeIndex {
    ids: FxHashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
    postings: Vec<Vec<u32>>,
    summary: Bloom,
}

impl CodeIndex {
    #[inline]
    fn id_of(&self, code: &str) -> Option<u32> {
        self.ids.get(code).copied()
    }

    fn intern(&mut self, code: &str) -> u32 {
        if let Some(&id) = self.ids.get(code) {
            return id;
        }
        let id = self.names.len() as u32;
        let boxed: Box<str> = code.into();
        self.summary.insert(fx_hash_str(&boxed));
        self.names.push(boxed.clone());
        self.ids.insert(boxed, id);
        self.postings.push(Vec::new());
        if self.summary.needs_grow() {
            self.rebuild_summary();
        }
        id
    }

    /// Rebuild the Bloom summary from the exact interned code set, sized
    /// for the current count. The interner is append-only, so the rebuilt
    /// filter covers precisely the same keys at a healthy fill ratio —
    /// the growth policy that keeps shard skip rates high as a shard's
    /// code universe outgrows the summary it started with.
    fn rebuild_summary(&mut self) {
        let mut summary = Bloom::with_capacity(self.names.len());
        for name in &self.names {
            summary.insert(fx_hash_str(name));
        }
        self.summary = summary;
    }

    fn add(&mut self, code: &str, record: u32) {
        let id = self.intern(code);
        self.postings[id as usize].push(record);
    }

    #[inline]
    fn members(&self, code: &str) -> &[u32] {
        self.id_of(code)
            .map(|id| self.postings[id as usize].as_slice())
            .unwrap_or(&[])
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// A Look Up query encoded **exactly once**: the phonetic level, the
/// deduplicated Soundex codes of every visual reading at that level (with
/// their Fx hashes, precomputed for Bloom routing), and the case fold the
/// distance filter compares against.
///
/// Before this type existed, every shard of a
/// [`crate::shard::ShardedTokenDatabase`] re-ran the multi-variant Soundex
/// encoder on the raw token — the dominant per-shard overhead of a
/// cross-shard query. Engines now build one `EncodedQuery` per query
/// (reusing its buffers across queries via
/// [`crate::lookup::LookupScratch`]) and thread it through the
/// [`crate::store::TokenStore`] walk methods, so the encoding cost is
/// independent of the shard count.
///
/// Construction validates the phonetic level, so every walk taking an
/// `EncodedQuery` is infallible — the `Result` lives at the encode site.
#[derive(Debug, Default, Clone)]
pub struct EncodedQuery {
    k: usize,
    codes: Vec<SoundexCode>,
    code_hashes: Vec<u64>,
    folded: String,
    folded_chars: usize,
}

impl EncodedQuery {
    /// An empty query holder (encode into it with [`EncodedQuery::encode`]).
    pub fn new() -> Self {
        EncodedQuery::default()
    }

    /// Encode `token` at phonetic level `k`, reusing this query's buffers.
    /// Errors on an unmaterialized level (same contract as
    /// [`TokenDatabase::check_level`]).
    pub fn encode(&mut self, token: &str, k: usize) -> Result<()> {
        TokenDatabase::check_level(k)?;
        self.k = k;
        // The per-level encoders are stateless (`CustomSoundex::new(k)`),
        // so the query encodes without borrowing any backend.
        CustomSoundex::new(k).encode_all_into(token, &mut self.codes);
        self.code_hashes.clear();
        self.code_hashes
            .extend(self.codes.iter().map(|c| fx_hash_str(c.as_str())));
        // ASCII folding equals `str::to_lowercase` for ASCII input and
        // reuses the buffer; non-ASCII takes the allocating Unicode path
        // (final-sigma etc. must match the reference engines).
        self.folded.clear();
        if token.is_ascii() {
            self.folded.push_str(token);
            self.folded.make_ascii_lowercase();
        } else {
            self.folded = token.to_lowercase();
        }
        self.folded_chars = self.folded.chars().count();
        Ok(())
    }

    /// Encode a fresh query for `token` at level `k`.
    pub fn for_token(token: &str, k: usize) -> Result<Self> {
        let mut q = EncodedQuery::new();
        q.encode(token, k)?;
        Ok(q)
    }

    /// The phonetic level this query was encoded at (always valid).
    #[inline]
    pub fn level(&self) -> usize {
        self.k
    }

    /// The deduplicated Soundex codes of every visual reading, primary
    /// reading first.
    #[inline]
    pub fn codes(&self) -> &[SoundexCode] {
        &self.codes
    }

    /// Fx hashes of [`EncodedQuery::codes`], index-aligned. These feed the
    /// per-shard Bloom summaries, so routing never rehashes per shard.
    #[inline]
    pub fn code_hashes(&self) -> &[u64] {
        &self.code_hashes
    }

    /// The case-folded form of the encoded token.
    #[inline]
    pub fn folded(&self) -> &str {
        &self.folded
    }

    /// Unicode scalar count of [`EncodedQuery::folded`].
    #[inline]
    pub fn folded_chars(&self) -> usize {
        self.folded_chars
    }
}

/// Generation-marked visited set: the working memory of
/// [`TokenDatabase::for_each_sound_mate`].
///
/// Marking a record visited is one `u32` compare-and-store; starting a new
/// query is one epoch increment (no clearing). Reuse one instance per
/// thread or per bulk request.
#[derive(Debug, Default)]
pub struct SoundScratch {
    visited: Vec<u32>,
    epoch: u32,
}

impl SoundScratch {
    /// Fresh scratch space (allocates lazily on first use).
    pub fn new() -> Self {
        SoundScratch::default()
    }

    fn begin(&mut self, n_records: usize) {
        if self.visited.len() < n_records {
            self.visited.resize(n_records, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old marks could alias. Reset once per 2^32.
            self.visited.fill(0);
            self.epoch = 1;
        }
    }

    /// Returns true on the first visit of `id` this epoch.
    #[inline]
    fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.visited[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

thread_local! {
    static SHARED_SOUND_SCRATCH: RefCell<SoundScratch> = RefCell::new(SoundScratch::new());
}

/// A word of a prepared batch, queued for the shard that owns it. Each
/// variant carries the word itself, borrowed from the batch's input.
pub(crate) enum PreparedWord<'t> {
    /// Stored in its shard when the batch was prepared, at this record id,
    /// so the merge bumps the count without a second `by_token` probe.
    Known(&'t str, u32),
    /// A new word first prepared earlier in the same input; that `Fresh`
    /// occurrence merges first, so the merge resolves this one against
    /// `by_token`.
    Repeat(&'t str),
    /// A new word with its codes at every level.
    Fresh(&'t str, Box<[Vec<SoundexCode>; NUM_LEVELS]>),
}

impl<'t> PreparedWord<'t> {
    /// The word as it appeared in the input.
    pub(crate) fn token(&self) -> &'t str {
        match *self {
            PreparedWord::Known(t, _) | PreparedWord::Repeat(t) | PreparedWord::Fresh(t, _) => t,
        }
    }
}

/// What the inputs of a [`PreparedBatch`] are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inputs {
    /// Texts: tokenized; a text with at least one word, all of them
    /// dictionary words, is kept as an LM training sentence.
    Texts,
    /// Raw token occurrences, one word each, never a sentence.
    Tokens,
}

/// A batch of ingest input prepared against one store state: every input
/// tokenized once, every word through the ingest gates, routed to its
/// shard and, when new, encoded at every level once. It borrows the
/// inputs and must be merged into the state it was prepared against.
/// Built and merged only inside this crate (see
/// [`crate::durable::DeltaStore`]).
pub struct PreparedBatch<'t> {
    /// One queue per shard: the words it merges, in input order.
    pub(crate) queues: Vec<Queue<'t>>,
    /// Texts that pass the clean-sentence rule, in input order.
    pub(crate) clean: Vec<&'t str>,
    /// Word tokens in the batch, gated-out ones included.
    pub(crate) words: usize,
}

/// A shard's merge queue: its words in input order, as runs. A single
/// shard's runs are the inputs' own word lists, moved out of the parallel
/// prepare uncopied; several shards gather each queue into one run.
pub(crate) type Queue<'t> = Vec<Vec<PreparedWord<'t>>>;

/// Per-input memo of the batch prepare, so a word repeated within one
/// input routes and encodes once.
#[derive(Default)]
struct WordMemo<'t> {
    /// Word → owning shard (multi-shard stores only).
    routed: FxHashMap<&'t str, usize>,
    /// New word → whether it has phonetic content (`Fresh` was emitted).
    fresh: FxHashMap<&'t str, bool>,
}

impl<'t> WordMemo<'t> {
    /// The ingest rule for one word occurrence, and the only copy of its
    /// gates: a word is stored only if it has at least 2 chars and, when
    /// its shard does not store it yet, some phonetic content (a level-0
    /// code). Returns the owning shard (`route` is not called for a single
    /// shard) and the prepared word, or `None` when the word is gated out.
    fn prepare_word(
        &mut self,
        t: &'t str,
        shards: &[TokenDatabase],
        route: &impl Fn(&str) -> usize,
    ) -> Option<(usize, PreparedWord<'t>)> {
        if t.chars().count() < 2 {
            return None;
        }
        let s = if shards.len() == 1 {
            0
        } else {
            *self.routed.entry(t).or_insert_with(|| route(t))
        };
        let shard = &shards[s];
        if let Some(&id) = shard.by_token.get(t) {
            return Some((s, PreparedWord::Known(t, id)));
        }
        let word = match self.fresh.get(t) {
            Some(true) => PreparedWord::Repeat(t),
            Some(false) => return None,
            None => {
                let codes = shard.compute_codes(t);
                let sounds = !codes[0].is_empty();
                self.fresh.insert(t, sounds);
                if !sounds {
                    return None;
                }
                PreparedWord::Fresh(t, Box::new(codes))
            }
        };
        Some((s, word))
    }
}

impl<'t> PreparedBatch<'t> {
    /// Prepare `inputs` against `shards`, routing each word with `route`
    /// (not called for a single shard, which owns every word). Inputs are
    /// prepared in parallel and scattered into the shard queues in input
    /// order; every word resolves against the pre-batch state.
    pub(crate) fn new(
        inputs: impl IntoIterator<Item = &'t str>,
        kind: Inputs,
        shards: &[TokenDatabase],
        route: impl Fn(&str) -> usize + Sync,
    ) -> Self {
        let inputs: Vec<&'t str> = inputs.into_iter().collect();
        let prepared = par_map(&inputs, |&input| {
            let mut memo = WordMemo::default();
            // The input's words, and with several shards each one's owner.
            let (mut words, mut owners) = (Vec::new(), Vec::new());
            let mut add = |t| {
                if let Some((s, word)) = memo.prepare_word(t, shards, &route) {
                    words.push(word);
                    if shards.len() > 1 {
                        owners.push(s);
                    }
                }
            };
            let (n, clean) = match kind {
                Inputs::Tokens => {
                    add(input);
                    (1, false)
                }
                Inputs::Texts => {
                    let (mut n, mut all_english) = (0, true);
                    for tok in tokenize_spans(input) {
                        if tok.is_word() {
                            let t = tok.text(input);
                            n += 1;
                            all_english &= cryptext_corpus::is_english_word(t);
                            add(t);
                        }
                    }
                    (n, n > 0 && all_english)
                }
            };
            (n, clean, words, owners)
        });
        // One shard: each input's words are a run of its queue, moved as
        // they are. Several: each shard's words gather into one run, sized
        // up front.
        let mut gathered: Vec<Vec<PreparedWord<'t>>> = Vec::new();
        if shards.len() > 1 {
            let mut lens = vec![0; shards.len()];
            for &s in prepared.iter().flat_map(|(_, _, _, owners)| owners) {
                lens[s] += 1;
            }
            gathered = lens.into_iter().map(Vec::with_capacity).collect();
        }
        let mut batch = PreparedBatch {
            queues: shards.iter().map(|_| Vec::new()).collect(),
            clean: Vec::new(),
            words: 0,
        };
        for (input, (n, clean, words, owners)) in inputs.into_iter().zip(prepared) {
            batch.words += n;
            if clean {
                batch.clean.push(input);
            }
            if shards.len() == 1 {
                if !words.is_empty() {
                    batch.queues[0].push(words);
                }
            } else {
                for (word, s) in words.into_iter().zip(owners) {
                    gathered[s].push(word);
                }
            }
        }
        for (queue, run) in batch.queues.iter_mut().zip(gathered) {
            if !run.is_empty() {
                queue.push(run);
            }
        }
        batch
    }
}

/// Cap on accumulated LM training sentences, shared by both
/// [`TokenStore`](crate::store::TokenStore) backends so their
/// `clean_sentences()` output stays byte-identical.
pub(crate) const MAX_CLEAN_SENTENCES: usize = 50_000;

/// The token database.
pub struct TokenDatabase {
    soundex: [CustomSoundex; NUM_LEVELS],
    records: Vec<TokenRecord>,
    by_token: FxHashMap<String, u32>,
    /// `H_k`: interned Soundex code → record ids sharing that sound.
    buckets: [CodeIndex; NUM_LEVELS],
    /// Clean sentences accumulated for LM training (bounded).
    clean_sentences: Vec<String>,
}

impl Default for TokenDatabase {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl TokenDatabase {
    /// An empty in-memory database.
    pub fn in_memory() -> Self {
        TokenDatabase {
            soundex: [
                CustomSoundex::new(0),
                CustomSoundex::new(1),
                CustomSoundex::new(2),
            ],
            records: Vec::new(),
            by_token: FxHashMap::default(),
            buckets: [
                CodeIndex::default(),
                CodeIndex::default(),
                CodeIndex::default(),
            ],
            clean_sentences: Vec::new(),
        }
    }

    /// An empty database pre-seeded with the English lexicon (count 0,
    /// `is_english = true`). Normalization needs dictionary words present
    /// even when the corpus never used them cleanly.
    pub fn with_lexicon() -> Self {
        let mut db = Self::in_memory();
        db.seed_lexicon();
        db
    }

    /// Seed/refresh every dictionary word as an `is_english` record.
    pub fn seed_lexicon(&mut self) {
        for w in cryptext_corpus::english_lexicon() {
            self.upsert_token(w, 0);
        }
    }

    /// A new record's codes at every level, from one skeleton expansion.
    /// Every record build goes through here: batch prepare, the lexicon
    /// seed, snapshot load and delta-log replay.
    fn compute_codes(&self, token: &str) -> [Vec<SoundexCode>; NUM_LEVELS] {
        CustomSoundex::encode_all_levels(&self.soundex, token)
    }

    fn insert_new(
        &mut self,
        token: &str,
        add_count: u64,
        codes: [Vec<SoundexCode>; NUM_LEVELS],
    ) -> u32 {
        let id = self.records.len() as u32;
        for (k, level_codes) in codes.iter().enumerate() {
            for code in level_codes {
                self.buckets[k].add(code.as_str(), id);
            }
        }
        let folded = token.to_lowercase();
        let folded_chars = folded.chars().count() as u32;
        self.records.push(TokenRecord {
            token: token.to_string(),
            folded,
            folded_chars,
            count: add_count,
            is_english: cryptext_corpus::is_english_word(token),
            codes,
        });
        self.by_token.insert(token.to_string(), id);
        id
    }

    /// Insert or count a token with an explicit occurrence delta. Crate
    /// internal: the shard router uses it to reshard existing records and
    /// to seed lexicons without re-running the ingest gates.
    pub(crate) fn upsert_token(&mut self, token: &str, add_count: u64) -> u32 {
        if let Some(&id) = self.by_token.get(token) {
            self.records[id as usize].count += add_count;
            return id;
        }
        let codes = self.compute_codes(token);
        self.insert_new(token, add_count, codes)
    }

    /// Ingest one raw token occurrence (case-sensitive, as the paper's
    /// curation does) through the batch prepare's gates, so tokens without
    /// letter interpretation are skipped.
    pub fn ingest_token(&mut self, token: &str) {
        let word = WordMemo::default().prepare_word(token, std::slice::from_ref(self), &|_| 0);
        if let Some((_, word)) = word {
            self.merge_word(word);
        }
    }

    /// Tokenize `text` and ingest every word token. Returns how many
    /// tokens were ingested. If the sentence is fully in-dictionary it is
    /// also recorded as LM training material. This is
    /// [`TokenStore::ingest_text`]'s sequential reference loop.
    pub fn ingest_text(&mut self, text: &str) -> usize {
        TokenStore::ingest_text(self, text)
    }

    /// Ingest a batch of texts: one [`PreparedBatch`] (tokenization,
    /// confusable folding and Soundex encoding at all levels, across
    /// cores), merged sequentially in input order. Tokens already present
    /// when the batch is prepared carry their resolved record id into the
    /// merge, so the sequential phase is a plain count bump per known
    /// token — no second `by_token` probe.
    ///
    /// The resulting database state — record ids, bucket posting order,
    /// counts, clean sentences — is **identical** to calling
    /// [`TokenDatabase::ingest_text`] on each text in order. Returns the
    /// total word-token count, i.e. the sum of the per-text returns.
    pub fn ingest_texts<S: AsRef<str> + Sync>(&mut self, texts: &[S]) -> usize {
        self.merge(self.prepare(texts.iter().map(AsRef::as_ref), Inputs::Texts))
    }

    /// Apply one prepared word — the sequential half of batch ingest.
    /// Shared with the shard router, which merges each shard's queue
    /// through this in parallel.
    pub(crate) fn merge_word(&mut self, word: PreparedWord<'_>) {
        match word {
            PreparedWord::Known(_, id) => {
                self.records[id as usize].count += 1;
            }
            PreparedWord::Repeat(t) => {
                let id = *self
                    .by_token
                    .get(t)
                    .expect("Repeat follows its Fresh within one input");
                self.records[id as usize].count += 1;
            }
            PreparedWord::Fresh(t, codes) => {
                // An earlier input in this batch may have inserted it
                // already; fall back to a plain count bump.
                if let Some(&id) = self.by_token.get(t) {
                    self.records[id as usize].count += 1;
                } else {
                    self.insert_new(t, 1, *codes);
                }
            }
        }
    }

    /// Consume the database, yielding its records in id order. Crate
    /// internal: live resharding drains a shard and redistributes the
    /// records without re-running the Soundex encoders.
    pub(crate) fn into_records(self) -> Vec<TokenRecord> {
        self.records
    }

    /// Append a fully-formed record, reusing its stored codes (no
    /// re-encoding) and assigning the next dense id. Crate internal: live
    /// resharding rebuilds shards from existing records; the caller
    /// guarantees the token is not already present.
    pub(crate) fn insert_record_raw(&mut self, rec: TokenRecord) {
        let id = self.records.len() as u32;
        for (k, level_codes) in rec.codes.iter().enumerate() {
            for code in level_codes {
                self.buckets[k].add(code.as_str(), id);
            }
        }
        self.by_token.insert(rec.token.clone(), id);
        self.records.push(rec);
    }

    /// Distinct interned code names at level `k`, in interning order.
    /// Crate internal: the shard router unions these across shards for
    /// [`TokenDatabase::stats`]-compatible sound counts.
    pub(crate) fn code_names(&self, k: usize) -> &[Box<str>] {
        &self.buckets[k].names
    }

    /// Record a known-clean sentence for LM training without ingesting
    /// perturbations (used when gold clean text is available).
    pub fn record_clean_sentence(&mut self, text: &str) {
        if self.clean_sentences.len() < MAX_CLEAN_SENTENCES {
            self.clean_sentences.push(text.to_string());
        }
    }

    /// Clean sentences accumulated so far (LM training corpus).
    pub fn clean_sentences(&self) -> &[String] {
        &self.clean_sentences
    }

    /// Fetch a token's record (case-sensitive).
    pub fn get(&self, token: &str) -> Option<&TokenRecord> {
        self.by_token
            .get(token)
            .map(|&id| &self.records[id as usize])
    }

    /// All records.
    pub fn records(&self) -> &[TokenRecord] {
        &self.records
    }

    /// Validate a phonetic level.
    pub fn check_level(k: usize) -> Result<()> {
        if k >= NUM_LEVELS {
            return Err(Error::invalid(format!(
                "phonetic level k={k} unsupported (materialized: k ≤ {MAX_PHONETIC_LEVEL})"
            )));
        }
        Ok(())
    }

    /// The members of bucket `H_k[code]`, if any.
    pub fn bucket(&self, k: usize, code: &str) -> Result<&[u32]> {
        Self::check_level(k)?;
        Ok(self.buckets[k].members(code))
    }

    /// Might this database index any of `query`'s codes at the query's
    /// level? A [`Bloom`]-summary check over the interned code set: `false`
    /// is authoritative (no bucket can match — the walk would visit
    /// nothing), `true` may be a false positive. The shard router uses
    /// this to skip shards that cannot contain a query's codes.
    #[inline]
    pub fn may_match(&self, query: &EncodedQuery) -> bool {
        let summary = &self.buckets[query.level()].summary;
        query.code_hashes().iter().any(|&h| summary.may_contain(h))
    }

    /// Bit width of the level-`k` code summary — growth diagnostics: the
    /// summary starts at a fixed width and is rebuilt wider once the
    /// interned code set outgrows it, which the shard growth tests pin.
    #[cfg(test)]
    pub(crate) fn summary_bits(&self, k: usize) -> usize {
        self.buckets[k].summary.bit_count()
    }

    /// Visit every record sharing a sound with the pre-encoded `query`
    /// (union over the token's ambiguous readings), including the token
    /// itself if stored. Each record is visited exactly once, in bucket
    /// insertion order — the Look Up hot loop drives this directly.
    ///
    /// The visitor may return [`ControlFlow::Break`] to stop the walk
    /// early; the return value reports whether it did. `scratch` carries
    /// the generation-marked visited set; reusing one instance across
    /// calls makes the walk allocation-free. The query carries its own
    /// codes, so sharded backends walk N shards with **one** encoding.
    pub fn for_each_sound_mate<'a, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        mut f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(u32, &'a TokenRecord) -> ControlFlow<()>,
    {
        scratch.begin(self.records.len());
        let bucket = &self.buckets[query.level()];
        for code in query.codes() {
            if let Some(cid) = bucket.id_of(code.as_str()) {
                for &id in &bucket.postings[cid as usize] {
                    if scratch.mark(id) {
                        f(id, &self.records[id as usize])?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// All records sharing a sound with `token` at level `k`, deduplicated,
    /// in insertion order. Convenience wrapper over
    /// [`TokenDatabase::for_each_sound_mate`] (same generation-marked
    /// dedup; allocates the query encoding and the returned `Vec`).
    pub fn sound_mates(&self, k: usize, token: &str) -> Result<Vec<&TokenRecord>> {
        let query = EncodedQuery::for_token(token, k)?;
        let mut out = Vec::new();
        let _ = SHARED_SOUND_SCRATCH.with(|scratch| {
            self.for_each_sound_mate(&query, &mut scratch.borrow_mut(), |_, rec| {
                out.push(rec);
                ControlFlow::Continue(())
            })
        });
        Ok(out)
    }

    /// The encoder for level `k`.
    pub fn soundex(&self, k: usize) -> Result<&CustomSoundex> {
        Self::check_level(k)?;
        Ok(&self.soundex[k])
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TokenStats {
        TokenStats {
            unique_tokens: self.records.len(),
            total_occurrences: self.records.iter().map(|r| r.count).sum(),
            unique_sounds: [
                self.buckets[0].len(),
                self.buckets[1].len(),
                self.buckets[2].len(),
            ],
            english_tokens: self.records.iter().filter(|r| r.is_english).count(),
        }
    }

    /// Materialize the `H_k` map at level `k` as `(code, tokens)` pairs,
    /// sorted by code — the exact shape of Table I.
    pub fn hashmap_view(&self, k: usize) -> Result<Vec<(String, Vec<String>)>> {
        Self::check_level(k)?;
        let idx = &self.buckets[k];
        let mut out: Vec<(String, Vec<String>)> = idx
            .names
            .iter()
            .zip(&idx.postings)
            .map(|(code, ids)| {
                let mut tokens: Vec<String> = ids
                    .iter()
                    .map(|&id| self.records[id as usize].token.clone())
                    .collect();
                tokens.sort();
                (code.to_string(), tokens)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Persist every record into `store[collection]`: the records in id
    /// order, [`PERSIST_BLOCK_RECORDS`] to a block document (see the module
    /// docs for the layout). Existing contents of the collection are
    /// replaced — including the per-shard collections of a previous
    /// *sharded* persist under the same name, so switching a deployment
    /// from the sharded backend to the single instance never leaks a stale
    /// corpus copy.
    ///
    /// Crash-safe: the new state is built in full under a staging name and
    /// committed by a single atomic collection rename; a crash at any point
    /// leaves either the complete previous state or the complete new one.
    /// Stale collections of other layouts are swept only after the commit.
    pub fn persist_to(&self, store: &Database, collection: &str) -> Result<()> {
        let staging = format!("{collection}__staging");
        if store.has_collection(&staging) {
            // Leftover from a persist that crashed before its commit.
            store.drop_collection(&staging)?;
        }
        store.create_collection(&staging)?;
        let mut check = String::new();
        for block in self.records.chunks(PERSIST_BLOCK_RECORDS) {
            let mut tokens = Vec::with_capacity(block.len());
            let mut counts = Vec::with_capacity(block.len());
            let mut checks = Vec::with_capacity(block.len());
            for rec in block {
                let count = i64::try_from(rec.count).map_err(|_| {
                    Error::invalid(format!(
                        "count {} of token {} exceeds the persisted range",
                        rec.count, rec.token
                    ))
                })?;
                tokens.push(Value::from(rec.token.as_str()));
                counts.push(Value::Int(count));
                write_code_check(&rec.codes[1], &mut check);
                checks.push(Value::from(check.as_str()));
            }
            let doc = Document::new()
                .with(BLOCK_TOKENS, Value::Array(tokens))
                .with(BLOCK_COUNTS, Value::Array(counts))
                .with(BLOCK_CODES_K1, Value::Array(checks));
            store.insert(&staging, doc)?;
        }
        failpoint::check("persist.commit")?;
        // The commit point: one WAL record swaps staging over live.
        store.rename_collection(&staging, collection)?;
        // Sweep stale layouts (old sharded generations, crashed stagings)
        // strictly after the commit.
        for name in store.collections_with_prefix(&format!("{collection}__")) {
            store.drop_collection(&name)?;
        }
        Ok(())
    }

    /// Rebuild a database from `store[collection]` (inverse of
    /// [`TokenDatabase::persist_to`]). Clean sentences are not persisted.
    ///
    /// The blocks are read in id order in place (no document is cloned)
    /// and each record is rebuilt by the ingest path's own upsert, so
    /// codes, folds and `is_english` are recomputed, the codes at all
    /// three levels from one skeleton expansion; no code is taken from
    /// disk, and the stored `codes_k1` check must agree with the
    /// recomputed level-1 codes. Anything `persist_to` never writes — a
    /// missing or non-array block field, ragged arrays, a value of the
    /// wrong type, a negative count, a token stored twice, a code
    /// mismatch, any other layout — is an [`Error::Corrupt`], never a
    /// silently repaired record.
    pub fn load_from(store: &Database, collection: &str) -> Result<TokenDatabase> {
        store.read_collection(collection, |blocks| {
            let mut docs: Vec<_> = blocks.scan().collect();
            docs.sort_unstable_by_key(|&(id, _)| id);
            let mut db = TokenDatabase::in_memory();
            let mut check = String::new();
            for (id, block) in docs {
                db.load_block(block, &mut check)
                    .map_err(|why| Error::corrupt(format!("{collection} block {id}: {why}")))?;
            }
            Ok(db)
        })?
    }

    /// Append one persisted block's records (see
    /// [`TokenDatabase::load_from`]); the error says what is corrupt.
    /// `check` is scratch for the recomputed code check.
    fn load_block(
        &mut self,
        block: &Document,
        check: &mut String,
    ) -> std::result::Result<(), String> {
        let field = |name: &str| {
            block
                .get(name)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("no {name} array"))
        };
        let (tokens, counts, checks) = (
            field(BLOCK_TOKENS)?,
            field(BLOCK_COUNTS)?,
            field(BLOCK_CODES_K1)?,
        );
        if counts.len() != tokens.len() || checks.len() != tokens.len() {
            return Err(format!(
                "ragged arrays: {} tokens, {} counts, {} code checks",
                tokens.len(),
                counts.len(),
                checks.len()
            ));
        }
        for (i, ((token, count), stored)) in tokens.iter().zip(counts).zip(checks).enumerate() {
            let token = token
                .as_str()
                .ok_or_else(|| format!("token {i} is not a string: {token}"))?;
            let count = count
                .as_int()
                .ok_or_else(|| format!("count of token {token} is not an int: {count}"))?;
            let count = u64::try_from(count)
                .map_err(|_| format!("negative count {count} for token {token}"))?;
            let stored = stored
                .as_str()
                .ok_or_else(|| format!("code check of token {token} is not a string: {stored}"))?;
            let before = self.records.len();
            let id = self.upsert_token(token, count);
            if self.records.len() == before {
                return Err(format!("token {token} stored twice"));
            }
            // Trust recomputed codes over stored ones (the algorithm is
            // the source of truth), but verify agreement for corruption
            // safety.
            write_code_check(&self.records[id as usize].codes[1], check);
            if check != stored {
                return Err(format!(
                    "code mismatch for token {token}: stored {stored:?}, recomputed {check:?}"
                ));
            }
        }
        Ok(())
    }
}

/// A single instance is one shard: every word routes to it.
impl DeltaStore for TokenDatabase {
    fn fresh(_shards: usize) -> Self {
        TokenDatabase::in_memory()
    }

    fn prepare<'t>(
        &self,
        inputs: impl IntoIterator<Item = &'t str>,
        kind: Inputs,
    ) -> PreparedBatch<'t> {
        PreparedBatch::new(inputs, kind, std::slice::from_ref(self), |_| 0)
    }

    /// The sequential merge, in input order.
    fn merge(&mut self, batch: PreparedBatch<'_>) -> usize {
        for word in batch.queues.into_iter().flatten().flatten() {
            self.merge_word(word);
        }
        for text in batch.clean {
            self.record_clean_sentence(text);
        }
        batch.words
    }

    fn apply_upsert(&mut self, token: &str, delta: u64) {
        self.upsert_token(token, delta);
    }

    fn seed_shard(&mut self, _shard: usize) {
        self.seed_lexicon();
    }
}

impl std::fmt::Debug for TokenDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TokenDatabase")
            .field("unique_tokens", &s.unique_tokens)
            .field("sounds_k1", &s.unique_sounds[1])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_db() -> TokenDatabase {
        let mut db = TokenDatabase::in_memory();
        for s in [
            "the dirrty republicans",
            "thee dirty repubLIEcans",
            "the dirty republic@@ns",
        ] {
            db.ingest_text(s);
        }
        db
    }

    #[test]
    fn table1_h1_groups() {
        let db = table1_db();
        let view = db.hashmap_view(1).unwrap();
        let get = |code: &str| -> Vec<String> {
            view.iter()
                .find(|(c, _)| c == code)
                .map(|(_, t)| t.clone())
                .unwrap_or_default()
        };
        // Table I, reproduced with our (documented) code literals.
        assert_eq!(get("TH000"), vec!["the", "thee"]);
        assert_eq!(get("DI630"), vec!["dirrty", "dirty"]);
        // The republicans row groups all three variants.
        let rep_code = db.soundex(1).unwrap().encode("republicans").unwrap();
        let group = get(rep_code.as_str());
        assert!(group.contains(&"republicans".to_string()));
        assert!(group.contains(&"repubLIEcans".to_string()));
        assert!(group.contains(&"republic@@ns".to_string()));
    }

    #[test]
    fn counts_accumulate_case_sensitively() {
        let db = table1_db();
        assert_eq!(db.get("the").unwrap().count, 2);
        assert_eq!(db.get("dirty").unwrap().count, 2);
        assert_eq!(db.get("repubLIEcans").unwrap().count, 1);
        // Case-sensitive: "The" absent.
        assert!(db.get("The").is_none());
    }

    #[test]
    fn stats_reflect_contents() {
        let db = table1_db();
        let s = db.stats();
        // the, thee, dirrty, dirty, republicans, repubLIEcans, republic@@ns
        assert_eq!(s.unique_tokens, 7);
        assert_eq!(s.total_occurrences, 9);
        assert!(s.english_tokens >= 3, "the, dirty, republicans");
        // H1 sounds: TH000, DI630, RE…, and dirrty≡dirty share DI630.
        assert!(s.unique_sounds[1] >= 3);
        assert!(s.unique_sounds[0] <= s.unique_sounds[1]);
    }

    #[test]
    fn ambiguous_tokens_live_in_multiple_buckets() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_token("suic1de");
        let mates = db.sound_mates(1, "suicide").unwrap();
        assert!(
            mates.iter().any(|r| r.token == "suic1de"),
            "query by the clean word finds the 1-perturbed token"
        );
    }

    #[test]
    fn short_and_unencodable_tokens_skipped() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_token("a");
        db.ingest_token("...");
        db.ingest_token("🙂🙂");
        assert_eq!(db.stats().unique_tokens, 0);
    }

    #[test]
    fn ingest_text_counts_words_only() {
        let mut db = TokenDatabase::in_memory();
        let n = db.ingest_text("@user check https://x.com the vaccine!! 123");
        // "check", "the", "vaccine" are word tokens (123 is a number,
        // @user a mention, the URL a url).
        assert_eq!(n, 3);
        assert!(db.get("vaccine").is_some());
        assert!(db.get("123").is_none());
    }

    #[test]
    fn clean_sentences_gate_on_dictionary() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_text("the vaccine mandate was announced");
        db.ingest_text("the vacc1ne mandate was announced");
        assert_eq!(db.clean_sentences().len(), 1);
        db.record_clean_sentence("manually recorded sentence");
        assert_eq!(db.clean_sentences().len(), 2);
    }

    #[test]
    fn lexicon_seeding_marks_english() {
        let db = TokenDatabase::with_lexicon();
        let s = db.stats();
        assert!(s.unique_tokens > 400);
        assert_eq!(s.english_tokens, s.unique_tokens);
        assert_eq!(s.total_occurrences, 0, "seeds carry no counts");
        let rec = db.get("democrats").unwrap();
        assert!(rec.is_english);
    }

    #[test]
    fn invalid_level_rejected() {
        let db = table1_db();
        assert!(db.bucket(3, "TH000").is_err());
        assert!(db.sound_mates(9, "the").is_err());
        assert!(db.hashmap_view(3).is_err());
        assert!(db.soundex(3).is_err());
    }

    #[test]
    fn bucket_lookup_by_code() {
        let db = table1_db();
        let ids = db.bucket(1, "TH000").unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(db.bucket(1, "ZZ999").unwrap().len(), 0);
    }

    #[test]
    fn persist_and_load_round_trip() {
        let db = table1_db();
        let store = Database::in_memory();
        db.persist_to(&store, "tokens").unwrap();
        assert_eq!(store.len("tokens").unwrap(), 1, "7 records fit one block");

        let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(restored.records(), db.records());
        assert_eq!(restored.stats(), db.stats());
        assert_eq!(
            restored.hashmap_view(1).unwrap(),
            db.hashmap_view(1).unwrap()
        );
    }

    #[test]
    fn persist_replaces_existing_collection() {
        let db = table1_db();
        let store = Database::in_memory();
        db.persist_to(&store, "tokens").unwrap();
        db.persist_to(&store, "tokens").unwrap();
        assert_eq!(store.len("tokens").unwrap(), 1, "one block, no duplicates");
        // Regression: double-persist then load must reconstruct the exact
        // database, not an appended/duplicated one.
        let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(restored.records(), db.records());
        assert_eq!(
            restored.hashmap_view(1).unwrap(),
            db.hashmap_view(1).unwrap()
        );
    }

    /// `n` distinct lowercase letter-only tokens (each has phonetic
    /// content).
    fn many_tokens(n: usize) -> Vec<String> {
        (0..n)
            .map(|mut i| {
                let mut t = String::from("qu");
                loop {
                    t.push((b'a' + (i % 26) as u8) as char);
                    i /= 26;
                    if i == 0 {
                        break t;
                    }
                }
            })
            .collect()
    }

    #[test]
    fn persist_spans_blocks_in_id_order_flat_and_sharded() {
        use crate::shard::ShardedTokenDatabase;
        use crate::store::TokenStore;

        let mut flat = TokenDatabase::with_lexicon();
        let mut wide = ShardedTokenDatabase::in_memory(2);
        TokenStore::seed_lexicon(&mut wide);
        for (i, t) in many_tokens(3 * PERSIST_BLOCK_RECORDS).iter().enumerate() {
            let t = if i % 4 == 0 {
                t.to_uppercase()
            } else {
                t.clone()
            };
            for _ in 0..=i % 3 {
                flat.ingest_token(&t);
                TokenStore::ingest_token(&mut wide, &t);
            }
        }

        // Flat: several blocks, loaded back in id order.
        let n = flat.records().len();
        assert!(n > 3 * PERSIST_BLOCK_RECORDS);
        let store = Database::in_memory();
        flat.persist_to(&store, "tokens").unwrap();
        assert_eq!(
            store.len("tokens").unwrap(),
            n.div_ceil(PERSIST_BLOCK_RECORDS)
        );
        let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(restored.records(), flat.records());

        // Sharded: each shard's collection spans blocks of its own.
        TokenStore::persist_to(&wide, &store, "wide").unwrap();
        let shards = store.collections_with_prefix("wide__g");
        assert_eq!(shards.len(), 2);
        for (s, name) in shards.iter().enumerate() {
            let records = wide.shard(s).records().len();
            assert!(records > PERSIST_BLOCK_RECORDS, "shard {s}: {records}");
            assert_eq!(
                store.len(name).unwrap(),
                records.div_ceil(PERSIST_BLOCK_RECORDS)
            );
        }
        let restored = ShardedTokenDatabase::load_from(&store, "wide").unwrap();
        for s in 0..2 {
            assert_eq!(restored.shard(s).records(), wide.shard(s).records());
        }
    }

    /// Persist the Table I corpus, rewrite its one block through `tamper`,
    /// and load: every tampering is a corrupt-data error, never a panic
    /// or a silently repaired record.
    fn load_tampered(tamper: impl FnOnce(&mut Document)) -> Error {
        let store = Database::in_memory();
        table1_db().persist_to(&store, "tokens").unwrap();
        let (id, mut block) = store
            .read_collection("tokens", |blocks| {
                assert_eq!(blocks.len(), 1, "one block");
                let (id, block) = blocks.scan().next().unwrap();
                (id, block.clone())
            })
            .unwrap();
        tamper(&mut block);
        store.update("tokens", id, block).unwrap();
        let err = TokenDatabase::load_from(&store, "tokens").unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        err
    }

    /// Replace entry `i` of a block's `field` array.
    fn set_entry(block: &mut Document, field: &str, i: usize, v: Value) {
        let mut items = block.get(field).unwrap().as_array().unwrap().to_vec();
        items[i] = v;
        block.set(field, Value::Array(items));
    }

    #[test]
    fn load_rejects_a_negative_count_naming_the_token() {
        // Before the block layout a negative count loaded as 0.
        let err = load_tampered(|b| set_entry(b, BLOCK_COUNTS, 0, Value::Int(-3)));
        assert!(
            err.to_string().contains("negative count -3 for token the"),
            "{err}"
        );
    }

    #[test]
    fn load_rejects_a_token_stored_twice() {
        // Before the block layout a duplicate merged into one record with
        // summed counts. Record 1 is "dirrty"; its codes_k1 check is
        // copied along so only the duplication is wrong.
        let err = load_tampered(|b| {
            let check = b.get(BLOCK_CODES_K1).unwrap().as_array().unwrap()[0].clone();
            set_entry(b, BLOCK_TOKENS, 1, Value::from("the"));
            set_entry(b, BLOCK_CODES_K1, 1, check);
        });
        assert!(err.to_string().contains("token the stored twice"), "{err}");
    }

    #[test]
    fn load_rejects_a_code_mismatch() {
        let err = load_tampered(|b| set_entry(b, BLOCK_CODES_K1, 0, Value::from("ZZ999")));
        assert!(
            err.to_string().contains("code mismatch for token the"),
            "{err}"
        );
    }

    #[test]
    fn load_rejects_ragged_arrays_and_wrong_types() {
        let err = load_tampered(|b| {
            let mut counts = b.get(BLOCK_COUNTS).unwrap().as_array().unwrap().to_vec();
            counts.pop();
            b.set(BLOCK_COUNTS, Value::Array(counts));
        });
        assert!(err.to_string().contains("ragged"), "{err}");
        load_tampered(|b| set_entry(b, BLOCK_TOKENS, 2, Value::Int(7)));
        load_tampered(|b| set_entry(b, BLOCK_COUNTS, 2, Value::from("3")));
        load_tampered(|b| set_entry(b, BLOCK_CODES_K1, 2, Value::Null));
        load_tampered(|b| b.set(BLOCK_TOKENS, Value::from("the")));
        load_tampered(|b| {
            b.remove(BLOCK_CODES_K1);
        });
    }

    #[test]
    fn load_rejects_the_per_record_layout() {
        // One document per token, the layout before block documents: it
        // has no block arrays, so it does not load.
        let store = Database::in_memory();
        store.create_collection("tokens").unwrap();
        store
            .insert(
                "tokens",
                Document::new()
                    .with("token", "the")
                    .with("count", 2i64)
                    .with("is_english", true)
                    .with("codes_k1", vec!["TH000"]),
            )
            .unwrap();
        let err = TokenDatabase::load_from(&store, "tokens").unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn repersist_after_new_ingest_replaces_stale_counts() {
        // Persist, ingest more occurrences, persist again: the collection
        // must reflect only the latest state after a round trip.
        let mut db = table1_db();
        let store = Database::in_memory();
        db.persist_to(&store, "tokens").unwrap();
        db.ingest_text("the dirty republicans again");
        db.persist_to(&store, "tokens").unwrap();
        let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(restored.stats(), db.stats());
        assert_eq!(restored.get("the").unwrap().count, 3);
    }

    #[test]
    fn reingest_increments_not_duplicates() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_token("vaccine");
        db.ingest_token("vaccine");
        assert_eq!(db.stats().unique_tokens, 1);
        assert_eq!(db.get("vaccine").unwrap().count, 2);
        // Bucket membership not duplicated either.
        let code = db.soundex(1).unwrap().encode("vaccine").unwrap();
        assert_eq!(db.bucket(1, code.as_str()).unwrap().len(), 1);
    }

    #[test]
    fn folded_fields_precomputed() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_token("demokRATs");
        db.ingest_token("vãccine");
        let rec = db.get("demokRATs").unwrap();
        assert_eq!(rec.folded, "demokrats");
        assert_eq!(rec.folded_chars, 9);
        let rec = db.get("vãccine").unwrap();
        assert_eq!(rec.folded, "vãccine");
        assert_eq!(rec.folded_chars, 7, "scalar count, not byte count");
    }

    #[test]
    fn visitor_visits_each_mate_exactly_once() {
        let mut db = TokenDatabase::in_memory();
        // suic1de sits in two H1 buckets (1→l and 1→i readings); a query
        // that probes both buckets must still see it once.
        db.ingest_token("suic1de");
        db.ingest_token("suicide");
        let mut scratch = SoundScratch::new();
        let mut query = EncodedQuery::new();
        query.encode("suic1de", 1).unwrap();
        let mut seen: Vec<String> = Vec::new();
        let _ = db.for_each_sound_mate(&query, &mut scratch, |_, rec| {
            seen.push(rec.token.clone());
            ControlFlow::Continue(())
        });
        let unique: std::collections::HashSet<&String> = seen.iter().collect();
        assert_eq!(unique.len(), seen.len(), "no duplicate visits: {seen:?}");
        assert!(seen.contains(&"suic1de".to_string()));
        assert!(seen.contains(&"suicide".to_string()));
        // Scratch and query-buffer reuse across queries stays correct.
        query.encode("suicide", 1).unwrap();
        let mut second: Vec<String> = Vec::new();
        let _ = db.for_each_sound_mate(&query, &mut scratch, |_, rec| {
            second.push(rec.token.clone());
            ControlFlow::Continue(())
        });
        assert!(second.contains(&"suic1de".to_string()));
    }

    #[test]
    fn visitor_break_stops_the_walk() {
        let mut db = TokenDatabase::in_memory();
        for t in ["dirty", "dirrty", "dirrrty", "dirrrrty"] {
            db.ingest_token(t);
        }
        let query = EncodedQuery::for_token("dirty", 1).unwrap();
        let mut scratch = SoundScratch::new();
        // Full walk first, as the reference sequence.
        let mut full: Vec<u32> = Vec::new();
        let flow = db.for_each_sound_mate(&query, &mut scratch, |id, _| {
            full.push(id);
            ControlFlow::Continue(())
        });
        assert!(flow.is_continue());
        assert_eq!(full.len(), 4);
        // Breaking after n visits yields exactly the n-prefix, and the
        // break is reported to the caller.
        for n in 1..=full.len() {
            let mut seen: Vec<u32> = Vec::new();
            let flow = db.for_each_sound_mate(&query, &mut scratch, |id, _| {
                seen.push(id);
                if seen.len() == n {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert!(flow.is_break());
            assert_eq!(seen, full[..n], "break after {n}");
        }
    }

    #[test]
    fn encoded_query_matches_engine_encoders() {
        let db = table1_db();
        for token in ["republicans", "suic1de", "the", "vãccine", "..."] {
            for k in 0..NUM_LEVELS {
                let q = EncodedQuery::for_token(token, k).unwrap();
                assert_eq!(q.level(), k);
                assert_eq!(
                    q.codes(),
                    db.soundex(k).unwrap().encode_all(token).as_slice(),
                    "query encoding equals the backend encoder for {token:?} k={k}"
                );
                assert_eq!(q.codes().len(), q.code_hashes().len());
                assert_eq!(q.folded(), token.to_lowercase());
                assert_eq!(q.folded_chars(), token.to_lowercase().chars().count());
            }
        }
        assert!(EncodedQuery::for_token("the", 9).is_err(), "invalid level");
    }

    #[test]
    fn may_match_never_false_negative() {
        let db = table1_db();
        for rec in db.records() {
            for k in 0..NUM_LEVELS {
                let q = EncodedQuery::for_token(&rec.token, k).unwrap();
                assert!(
                    db.may_match(&q),
                    "stored token {} must pass the level-{k} summary",
                    rec.token
                );
            }
        }
        // An empty database rules everything out.
        let empty = TokenDatabase::in_memory();
        let q = EncodedQuery::for_token("republicans", 1).unwrap();
        assert!(!empty.may_match(&q));
    }

    #[test]
    fn parallel_ingest_matches_sequential_exactly() {
        let texts: Vec<String> = (0..40)
            .map(|i| match i % 5 {
                0 => format!("the dirrty republicans round {i}"),
                1 => "thee dirty repubLIEcans".to_string(),
                2 => format!("vacc1ne mandate pushback {i}"),
                3 => "the vaccine mandate was announced".to_string(),
                _ => "thinking about suic1de 🙂 ok".to_string(),
            })
            .collect();

        let mut seq = TokenDatabase::in_memory();
        let mut expect_n = 0;
        for t in &texts {
            expect_n += seq.ingest_text(t);
        }

        let mut par = TokenDatabase::in_memory();
        let n = par.ingest_texts(&texts);

        assert_eq!(n, expect_n);
        assert_eq!(par.stats(), seq.stats());
        assert_eq!(par.clean_sentences(), seq.clean_sentences());
        for k in 0..NUM_LEVELS {
            assert_eq!(
                par.hashmap_view(k).unwrap(),
                seq.hashmap_view(k).unwrap(),
                "H_{k} identical"
            );
        }
        // Record ids and bucket posting order are identical too.
        assert_eq!(par.records(), seq.records());
    }

    #[test]
    fn parallel_ingest_repeated_new_token_within_one_text() {
        // A brand-new word repeated inside a single text must count every
        // occurrence while encoding only once (per-text dedup in prepare).
        let texts = [
            "zzyzxx zzyzxx zzyzxx and ...  ... again",
            "zzyzxx once more",
        ];
        let mut seq = TokenDatabase::in_memory();
        for t in texts {
            seq.ingest_text(t);
        }
        let mut par = TokenDatabase::in_memory();
        par.ingest_texts(&texts);
        assert_eq!(par.records(), seq.records());
        assert_eq!(par.get("zzyzxx").unwrap().count, 4);
    }

    #[test]
    fn parallel_ingest_on_prepopulated_database() {
        let mut seq = TokenDatabase::with_lexicon();
        let mut par = TokenDatabase::with_lexicon();
        let texts = ["the demokRATs rallied", "the demokRATs rallied again"];
        for t in texts {
            seq.ingest_text(t);
        }
        par.ingest_texts(&texts);
        assert_eq!(par.records(), seq.records());
        assert_eq!(par.get("demokRATs").unwrap().count, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cryptext_docstore::DbOptions;
    use proptest::prelude::*;

    /// Texts over case variants and leet spellings (`1`/`@`/`3`/`$` read
    /// as letters), so records carry several codes per level.
    fn text_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec("[a-eA-E1@3$]{1,8}", 0..8).prop_map(|ws| ws.join(" "))
    }

    fn corpus(texts: &[String], lexicon: bool) -> TokenDatabase {
        let mut db = if lexicon {
            TokenDatabase::with_lexicon()
        } else {
            TokenDatabase::in_memory()
        };
        db.ingest_texts(texts);
        db
    }

    proptest! {
        /// A persist/load round trip reproduces every record exactly —
        /// id order, token, count, codes at every level, fold and
        /// `is_english` — including the count-0 lexicon records.
        #[test]
        fn persist_load_reproduces_records_in_memory(
            texts in proptest::collection::vec(text_strategy(), 0..12),
            lexicon in any::<bool>(),
        ) {
            let db = corpus(&texts, lexicon);
            let store = Database::in_memory();
            db.persist_to(&store, "tokens").unwrap();
            let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
            prop_assert_eq!(restored.records(), db.records());
        }

        /// The same through a persistent docstore reopened from disk: the
        /// blocks survive WAL replay, and a checkpointed snapshot too.
        #[test]
        fn persist_load_reproduces_records_across_reopen(
            texts in proptest::collection::vec(text_strategy(), 0..12),
            lexicon in any::<bool>(),
            checkpoint in any::<bool>(),
        ) {
            let db = corpus(&texts, lexicon);
            let dir = std::env::temp_dir().join(format!(
                "cryptext-db-blocks-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            {
                let store = Database::open(&dir, DbOptions::default()).unwrap();
                db.persist_to(&store, "tokens").unwrap();
                if checkpoint {
                    store.checkpoint().unwrap();
                }
            }
            let store = Database::open(&dir, DbOptions::default()).unwrap();
            let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert_eq!(restored.records(), db.records());
        }
    }
}
