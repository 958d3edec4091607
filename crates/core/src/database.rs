//! The human-written token database (§III-A): the one in-memory store
//! behind the [`crate::store::TokenStore`] trait.
//!
//! Stores **raw case-sensitive tokens** exactly as found in the corpus,
//! encoded with the customized Soundex at every phonetic level `k ∈
//! {0, 1, 2}`, and maintains the `H_k` hash maps from Soundex code to the
//! set of tokens sharing that sound (Table I of the paper).
//!
//! The engines ([`crate::lookup`], [`crate::normalize`],
//! [`crate::perturb`], [`crate::listening`], [`crate::ingest`]) are generic
//! over the trait, so they serve [`TokenDatabase`] directly or through
//! [`crate::durable::DurableTokenStore`], which logs its ingest.
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
//! * **Records carry code ids, not code strings**: a [`TokenRecord`]
//!   keeps the ids its codes have in each level's `CodeIndex`, level by
//!   level in one boxed slice, and [`TokenDatabase::record_codes`]
//!   resolves them to strings through the level's names. The Look Up
//!   walk never reads them; persist writes the level-1 strings.
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
//!   deduplicated code set, case fold — built a single time per query and
//!   reused by every pass over its candidates.
//!
//! Every record's codes come from one [`LevelEncoder`] per thread: all
//! three levels from one skeleton expansion, each code lent to a visitor
//! from the encoder's reused buffer. The lexicon seed, snapshot load and
//! delta-log replay intern each code straight from the visitor.
//!
//! Ingest runs through one batch prepare, [`PreparedBatch`]: each text is
//! tokenized once, across cores; each word passes the ingest gates (at
//! least 2 chars; some phonetic content when new to the database) and,
//! when new, is encoded at every level, its codes packed into one
//! allocation that the merge interns, giving one word queue.
//! [`TokenDatabase::ingest_texts`] merges the queue in input order,
//! byte-identical to calling [`TokenDatabase::ingest_text`] per text,
//! whose words pass the same gates one at a time. The durable store writes
//! its delta-log frame from the same prepared batch before merging it.
//!
//! [`TokenDatabase::persist_to`] and [`TokenDatabase::load_from`] move the
//! whole database through the embedded document store (the MongoDB
//! substitute) as a snapshot: the records in id order, packed into block
//! documents of at most [`PERSIST_BLOCK_RECORDS`] records each. A block
//! holds parallel arrays — the raw tokens, their counts, and each record's
//! level-1 Soundex codes as a check value — and no secondary index, so a
//! persist writes one document (one WAL frame) per few thousand records,
//! resolving each record's level-1 code ids to their strings. Everything
//! else (folds, codes and code ids at every level, `is_english`, the
//! `H_k` buckets) is recomputed on load by the encoder ingest runs, and
//! the recomputed level-1 codes, resolved back to strings, must equal the
//! stored `codes_k1`. The docstore is the durable copy, the in-memory
//! layout above is the one that answers queries.

use std::cell::RefCell;
use std::ops::ControlFlow;

use cryptext_common::failpoint;
use cryptext_common::hash::FxHashMap;
use cryptext_common::par::par_map;
use cryptext_common::{Error, Result};
use cryptext_docstore::{Database, Document, Value};
use cryptext_phonetics::{CustomSoundex, LevelEncoder, SoundexCode, MAX_PHONETIC_LEVEL};
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
fn write_code_check<'a>(codes: impl Iterator<Item = &'a str>, out: &mut String) {
    out.clear();
    for (i, code) in codes.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(code);
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
    /// The ids of the record's Soundex codes in each level's code table,
    /// level by level, primary reading first within a level (ambiguous
    /// leet glyphs give several codes per level). Read them as strings
    /// through [`TokenDatabase::record_codes`].
    code_ids: Box<[u32]>,
    /// Where each level's ids end in `code_ids`.
    code_ends: [u8; NUM_LEVELS],
}

impl TokenRecord {
    /// The ids of the record's codes at level `k`.
    fn level_ids(&self, k: usize) -> &[u32] {
        let start = k.checked_sub(1).map_or(0, |j| self.code_ends[j]);
        &self.code_ids[usize::from(start)..usize::from(self.code_ends[k])]
    }
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
/// per-candidate scan runs over plain `u32` postings.
#[derive(Debug, Default)]
struct CodeIndex {
    ids: FxHashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
    postings: Vec<Vec<u32>>,
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
        self.names.push(boxed.clone());
        self.ids.insert(boxed, id);
        self.postings.push(Vec::new());
        id
    }

    /// File `record` under `code`; returns the code's id.
    fn add(&mut self, code: &str, record: u32) -> u32 {
        let id = self.intern(code);
        self.postings[id as usize].push(record);
        id
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
/// deduplicated Soundex codes of every visual reading at that level, and
/// the case fold the distance filter compares against.
///
/// Engines build one `EncodedQuery` per query (reusing its buffers across
/// queries via [`crate::lookup::LookupScratch`]) and thread it through the
/// [`crate::store::TokenStore`] walk methods.
///
/// Construction validates the phonetic level, so every walk taking an
/// `EncodedQuery` is infallible — the `Result` lives at the encode site.
#[derive(Debug, Default, Clone)]
pub struct EncodedQuery {
    k: usize,
    codes: Vec<SoundexCode>,
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
        // so the query encodes without borrowing a database.
        CustomSoundex::new(k).encode_all_into(token, &mut self.codes);
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

/// Working memory for encoding records, one per thread.
#[derive(Default)]
struct RecordEncoder {
    encoder: LevelEncoder,
    /// A prepared word's codes, space-separated, before they are boxed.
    packed: String,
}

thread_local! {
    static SHARED_SOUND_SCRATCH: RefCell<SoundScratch> = RefCell::new(SoundScratch::new());
    /// Every record's codes are built here: by the batch prepare's workers
    /// and by [`TokenDatabase::upsert_token`].
    static RECORD_ENCODER: RefCell<RecordEncoder> = RefCell::default();
}

/// A new word's codes at every level, from the batch prepare to the merge
/// in one allocation: the codes space-separated, level by level, and how
/// many each level has.
pub(crate) struct PreparedCodes {
    packed: Box<str>,
    per_level: [u8; NUM_LEVELS],
}

impl PreparedCodes {
    /// Encode `token` at `levels`; `None` when it has no code (no
    /// phonetic content).
    fn encode(levels: &[CustomSoundex; NUM_LEVELS], token: &str) -> Option<Self> {
        RECORD_ENCODER.with(|cell| {
            let RecordEncoder { encoder, packed } = &mut *cell.borrow_mut();
            packed.clear();
            let mut per_level = [0u8; NUM_LEVELS];
            encoder.for_each_code(levels, token, |k, code| {
                if !packed.is_empty() {
                    packed.push(' ');
                }
                packed.push_str(code);
                per_level[k] += 1;
            });
            (per_level[0] > 0).then(|| PreparedCodes {
                packed: packed.as_str().into(),
                per_level,
            })
        })
    }

    /// Hand `file` every code as `(level, code)`, levels in order.
    fn for_each(&self, file: &mut dyn FnMut(usize, &str)) {
        let mut codes = self.packed.split(' ');
        for (k, &n) in self.per_level.iter().enumerate() {
            for code in codes.by_ref().take(usize::from(n)) {
                file(k, code);
            }
        }
    }
}

/// A word of a prepared batch. Each variant carries the word itself,
/// borrowed from the batch's input.
pub(crate) enum PreparedWord<'t> {
    /// Stored when the batch was prepared, at this record id, so the merge
    /// bumps the count without a second `by_token` probe.
    Known(&'t str, u32),
    /// A new word first prepared earlier in the same input; that `Fresh`
    /// occurrence merges first, so the merge resolves this one against
    /// `by_token`.
    Repeat(&'t str),
    /// A new word with its codes at every level.
    Fresh(&'t str, PreparedCodes),
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

/// A batch of ingest input prepared against one database state: every
/// input tokenized once, every word through the ingest gates and, when
/// new, encoded at every level once. It borrows the inputs and must be
/// merged into the state it was prepared against. Built and merged only
/// inside this crate (see [`crate::durable::DeltaStore`]).
pub struct PreparedBatch<'t> {
    /// The words to merge, in input order, as one run per input: each
    /// input's word list moved out of the parallel prepare uncopied.
    pub(crate) queue: Vec<Vec<PreparedWord<'t>>>,
    /// Texts that pass the clean-sentence rule, in input order.
    pub(crate) clean: Vec<&'t str>,
    /// Word tokens in the batch, gated-out ones included.
    pub(crate) words: usize,
}

/// Per-input memo of the batch prepare, so a new word repeated within one
/// input encodes once.
#[derive(Default)]
struct WordMemo<'t> {
    /// New word → whether it has phonetic content (`Fresh` was emitted).
    fresh: FxHashMap<&'t str, bool>,
}

impl<'t> WordMemo<'t> {
    /// The ingest rule for one word occurrence, and the only copy of its
    /// gates: a word is stored only if it has at least 2 chars and, when
    /// `db` does not store it yet, some phonetic content (a level-0 code).
    /// Returns the prepared word, or `None` when the word is gated out.
    fn prepare_word(&mut self, t: &'t str, db: &TokenDatabase) -> Option<PreparedWord<'t>> {
        if t.chars().count() < 2 {
            return None;
        }
        if let Some(&id) = db.by_token.get(t) {
            return Some(PreparedWord::Known(t, id));
        }
        match self.fresh.get(t) {
            Some(true) => Some(PreparedWord::Repeat(t)),
            Some(false) => None,
            None => {
                let codes = PreparedCodes::encode(&db.soundex, t);
                self.fresh.insert(t, codes.is_some());
                codes.map(|codes| PreparedWord::Fresh(t, codes))
            }
        }
    }
}

impl<'t> PreparedBatch<'t> {
    /// Prepare `inputs` against `db`. Inputs are prepared in parallel and
    /// queued in input order; every word resolves against the pre-batch
    /// state.
    pub(crate) fn new(
        inputs: impl IntoIterator<Item = &'t str>,
        kind: Inputs,
        db: &TokenDatabase,
    ) -> Self {
        let inputs: Vec<&'t str> = inputs.into_iter().collect();
        let prepared = par_map(&inputs, |&input| {
            let mut memo = WordMemo::default();
            let mut words = Vec::new();
            let mut add = |t| words.extend(memo.prepare_word(t, db));
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
            (n, clean, words)
        });
        let mut batch = PreparedBatch {
            queue: Vec::new(),
            clean: Vec::new(),
            words: 0,
        };
        for (input, (n, clean, words)) in inputs.into_iter().zip(prepared) {
            batch.words += n;
            if clean {
                batch.clean.push(input);
            }
            if !words.is_empty() {
                batch.queue.push(words);
            }
        }
        batch
    }
}

/// Cap on accumulated LM training sentences.
const MAX_CLEAN_SENTENCES: usize = 50_000;

/// The token database.
pub struct TokenDatabase {
    soundex: [CustomSoundex; NUM_LEVELS],
    records: Vec<TokenRecord>,
    by_token: FxHashMap<String, u32>,
    /// `H_k`: interned Soundex code → record ids sharing that sound.
    buckets: [CodeIndex; NUM_LEVELS],
    /// The code ids of the record being inserted (reused).
    filing: Vec<u32>,
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
            filing: Vec::new(),
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

    /// Push a new record for `token`, filed under every `(level, code)`
    /// that `codes` hands the visitor it is given, levels in order.
    fn insert_new(
        &mut self,
        token: &str,
        add_count: u64,
        codes: impl FnOnce(&mut dyn FnMut(usize, &str)),
    ) -> u32 {
        let id = self.records.len() as u32;
        let (buckets, filing) = (&mut self.buckets, &mut self.filing);
        filing.clear();
        let mut code_ends = [0u8; NUM_LEVELS];
        codes(&mut |k, code| {
            debug_assert!(
                code_ends[k + 1..].iter().all(|&n| n == 0),
                "levels in order"
            );
            filing.push(buckets[k].add(code, id));
            code_ends[k] += 1;
        });
        for k in 1..NUM_LEVELS {
            code_ends[k] += code_ends[k - 1];
        }
        let folded = token.to_lowercase();
        let folded_chars = folded.chars().count() as u32;
        // An ASCII token's fold is the lowercase copy the lexicon probe
        // would otherwise allocate.
        let is_english =
            cryptext_corpus::is_english_word(if token.is_ascii() { &folded } else { token });
        self.records.push(TokenRecord {
            token: token.to_string(),
            folded,
            folded_chars,
            count: add_count,
            is_english,
            code_ids: self.filing.as_slice().into(),
            code_ends,
        });
        self.by_token.insert(token.to_string(), id);
        id
    }

    /// Insert or count a token with an explicit occurrence delta, without
    /// the ingest gates. Crate internal: the lexicon seed, snapshot load
    /// and delta-log replay use it. A new record's codes are interned
    /// straight from the thread's encoder.
    pub(crate) fn upsert_token(&mut self, token: &str, add_count: u64) -> u32 {
        if let Some(&id) = self.by_token.get(token) {
            self.records[id as usize].count += add_count;
            return id;
        }
        let levels = self.soundex;
        self.insert_new(token, add_count, |file| {
            RECORD_ENCODER.with(|cell| {
                cell.borrow_mut()
                    .encoder
                    .for_each_code(&levels, token, file)
            })
        })
    }

    /// Ingest one raw token occurrence (case-sensitive, as the paper's
    /// curation does) through the batch prepare's gates, so tokens without
    /// letter interpretation are skipped.
    pub fn ingest_token(&mut self, token: &str) {
        if let Some(word) = WordMemo::default().prepare_word(token, self) {
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
    fn merge_word(&mut self, word: PreparedWord<'_>) {
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
                    self.insert_new(t, 1, |file| codes.for_each(file));
                }
            }
        }
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

    /// The Soundex codes record `id` is filed under at level `k`, primary
    /// reading first: for a stored token, what
    /// [`CustomSoundex::encode_all`] gives at `k`. Panics if no record has
    /// id `id`.
    pub fn record_codes(&self, id: u32, k: usize) -> Result<impl Iterator<Item = &str>> {
        Self::check_level(k)?;
        Ok(self.level_codes(&self.records[id as usize], k))
    }

    /// `rec`'s codes at level `k`, resolved through the level's names.
    fn level_codes<'a>(&'a self, rec: &'a TokenRecord, k: usize) -> impl Iterator<Item = &'a str> {
        let names = &self.buckets[k].names;
        rec.level_ids(k).iter().map(move |&id| &*names[id as usize])
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

    /// Visit every record sharing a sound with the pre-encoded `query`
    /// (union over the token's ambiguous readings), including the token
    /// itself if stored. Each record is visited exactly once, in bucket
    /// insertion order — the Look Up hot loop drives this directly.
    ///
    /// The visitor may return [`ControlFlow::Break`] to stop the walk
    /// early; the return value reports whether it did. `scratch` carries
    /// the generation-marked visited set; reusing one instance across
    /// calls makes the walk allocation-free.
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
    /// replaced.
    ///
    /// Crash-safe: the new state is built in full under a staging name and
    /// committed by a single atomic collection rename; a crash at any point
    /// leaves either the complete previous state or the complete new one.
    /// A staging collection a crashed persist left behind is dropped
    /// before the next persist writes its own.
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
                write_code_check(self.level_codes(rec, 1), &mut check);
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
        store.rename_collection(&staging, collection)
    }

    /// Rebuild a database from `store[collection]` (inverse of
    /// [`TokenDatabase::persist_to`]). Clean sentences are not persisted.
    ///
    /// The blocks are read in id order in place (no document is cloned),
    /// the records and the token map are sized from them once, and each
    /// record is rebuilt by the ingest path's own upsert, so codes, folds
    /// and `is_english` are recomputed, the codes at all three levels from
    /// one skeleton expansion; no code is taken from disk, and the stored
    /// `codes_k1` check must agree with the recomputed level-1 codes.
    /// Anything `persist_to` never writes — a missing or non-array block
    /// field, ragged arrays, a value of the wrong type, a negative count,
    /// a token stored twice, a code mismatch, any other layout — is an
    /// [`Error::Corrupt`], never a silently repaired record.
    pub fn load_from(store: &Database, collection: &str) -> Result<TokenDatabase> {
        store.read_collection(collection, |blocks| {
            let mut docs: Vec<_> = blocks.scan().collect();
            docs.sort_unstable_by_key(|&(id, _)| id);
            let mut db = TokenDatabase::in_memory();
            let records: usize = docs
                .iter()
                .map(|(_, block)| {
                    let tokens = block.get(BLOCK_TOKENS).and_then(Value::as_array);
                    tokens.map_or(0, <[Value]>::len)
                })
                .sum();
            db.records.reserve_exact(records);
            db.by_token.reserve(records);
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
            write_code_check(self.level_codes(&self.records[id as usize], 1), check);
            if check != stored {
                return Err(format!(
                    "code mismatch for token {token}: stored {stored:?}, recomputed {check:?}"
                ));
            }
        }
        Ok(())
    }
}

impl DeltaStore for TokenDatabase {
    fn fresh() -> Self {
        TokenDatabase::in_memory()
    }

    fn prepare<'t>(
        &self,
        inputs: impl IntoIterator<Item = &'t str>,
        kind: Inputs,
    ) -> PreparedBatch<'t> {
        PreparedBatch::new(inputs, kind, self)
    }

    /// The sequential merge, in input order.
    fn merge(&mut self, batch: PreparedBatch<'_>) -> usize {
        for word in batch.queue.into_iter().flatten() {
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
    fn persist_spans_blocks_in_id_order() {
        let mut db = TokenDatabase::with_lexicon();
        for (i, t) in many_tokens(3 * PERSIST_BLOCK_RECORDS).iter().enumerate() {
            let t = if i % 4 == 0 {
                t.to_uppercase()
            } else {
                t.clone()
            };
            for _ in 0..=i % 3 {
                db.ingest_token(&t);
            }
        }

        // Several blocks, loaded back in id order.
        let n = db.records().len();
        assert!(n > 3 * PERSIST_BLOCK_RECORDS);
        let store = Database::in_memory();
        db.persist_to(&store, "tokens").unwrap();
        assert_eq!(
            store.len("tokens").unwrap(),
            n.div_ceil(PERSIST_BLOCK_RECORDS)
        );
        let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(restored.records(), db.records());
    }

    /// A persist killed at its commit point leaves the previous persist
    /// loadable, and the next persist replaces the crashed attempt's
    /// staging collection: nothing under `tokens__` survives it.
    #[test]
    fn flat_persist_kill_at_commit_preserves_previous_state() {
        let store = Database::in_memory();
        let old = table1_db();
        old.persist_to(&store, "tokens").unwrap();
        let mut newer = table1_db();
        newer.ingest_text("entirely fresh zebra vocabulary");

        let guard = failpoint::arm("persist.commit", "kill");
        let err = newer.persist_to(&store, "tokens").unwrap_err();
        assert!(failpoint::is_injected(&err));
        drop(guard);
        let loaded = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(loaded.stats(), old.stats(), "old state intact");

        newer.persist_to(&store, "tokens").unwrap();
        let loaded = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(loaded.stats(), newer.stats());
        assert!(
            store.collections_with_prefix("tokens__").is_empty(),
            "no staging collection survives the commit"
        );
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
                    "query encoding equals the database encoder for {token:?} k={k}"
                );
                assert_eq!(q.folded(), token.to_lowercase());
                assert_eq!(q.folded_chars(), token.to_lowercase().chars().count());
            }
        }
        assert!(EncodedQuery::for_token("the", 9).is_err(), "invalid level");
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
    use crate::durable::{DurableOptions, DurableTokenStore};
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

    /// Every record's code strings at every level, in id order. Records
    /// compare their code ids; these compare what the ids name.
    fn code_strings(db: &TokenDatabase) -> Vec<[Vec<String>; NUM_LEVELS]> {
        (0..db.records().len() as u32)
            .map(|id| {
                std::array::from_fn(|k| {
                    let codes = db.record_codes(id, k).unwrap();
                    codes.map(str::to_owned).collect()
                })
            })
            .collect()
    }

    /// Every record is filed under exactly the codes the encoder gives
    /// its token, at every level, in the encoder's order.
    fn filed_under_the_encoders_codes(db: &TokenDatabase, when: &str) {
        for (id, rec) in db.records().iter().enumerate() {
            for k in 0..NUM_LEVELS {
                let filed: Vec<&str> = db.record_codes(id as u32, k).unwrap().collect();
                let encoded = CustomSoundex::new(k).encode_all(&rec.token);
                let encoded: Vec<&str> = encoded.iter().map(SoundexCode::as_str).collect();
                prop_assert_eq!(filed, encoded, "{} at k={}: {:?}", when, k, rec.token);
            }
        }
    }

    /// A fresh directory for one case's docstore or durable store.
    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cryptext-db-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    proptest! {
        /// Batch ingest is byte-identical to sequential ingest of the same
        /// texts in order: records, clean sentences and the word count.
        #[test]
        fn batch_ingest_equals_sequential(
            texts in proptest::collection::vec(text_strategy(), 1..10),
            lexicon in any::<bool>(),
        ) {
            let mut seq = corpus(&[], lexicon);
            let mut expect_n = 0;
            for t in &texts {
                expect_n += seq.ingest_text(t);
            }
            let mut batch = corpus(&[], lexicon);
            prop_assert_eq!(batch.ingest_texts(&texts), expect_n);
            prop_assert_eq!(batch.records(), seq.records());
            prop_assert_eq!(code_strings(&batch), code_strings(&seq));
            prop_assert_eq!(batch.clean_sentences(), seq.clean_sentences());
        }

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
            prop_assert_eq!(code_strings(&restored), code_strings(&db));
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
            let dir = tmp_dir("blocks");
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
            prop_assert_eq!(code_strings(&restored), code_strings(&db));
        }

        /// Records are filed under exactly `CustomSoundex::encode_all`'s
        /// codes of their tokens at every level: after batch and
        /// sequential ingest, after a persist and load, and after a
        /// durable store reopens from its snapshot and delta log.
        #[test]
        fn record_codes_are_the_encoders_codes(
            texts in proptest::collection::vec(text_strategy(), 0..12),
            lexicon in any::<bool>(),
            compact in any::<bool>(),
        ) {
            let mut db = corpus(&texts, lexicon);
            filed_under_the_encoders_codes(&db, "after batch ingest");
            for text in &texts {
                db.ingest_text(&format!("{text} z{text}"));
            }
            filed_under_the_encoders_codes(&db, "after sequential ingest");

            let store = Database::in_memory();
            db.persist_to(&store, "tokens").unwrap();
            let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
            filed_under_the_encoders_codes(&restored, "after load");

            let dir = tmp_dir("codes");
            {
                let mut durable =
                    DurableTokenStore::<TokenDatabase>::open(&dir, DurableOptions::default())
                        .unwrap();
                if lexicon {
                    durable.try_seed_lexicon().unwrap();
                }
                let (first, rest) = texts.split_at(texts.len() / 2);
                durable.try_ingest_texts(first).unwrap();
                if compact {
                    durable.compact().unwrap();
                }
                durable.try_ingest_texts(rest).unwrap();
            }
            let reopened =
                DurableTokenStore::<TokenDatabase>::open(&dir, DurableOptions::default())
                    .unwrap()
                    .into_inner();
            let _ = std::fs::remove_dir_all(&dir);
            filed_under_the_encoders_codes(&reopened, "after reopen");
        }
    }
}
