//! The storage abstraction behind every CrypText engine.
//!
//! [`TokenStore`] is the contract the engines ([`crate::lookup`],
//! [`crate::normalize`], [`crate::perturb`], [`crate::listening`],
//! [`crate::ingest`]) are generic over. The one store is
//! [`TokenDatabase`], the paper's `H_k` maps in memory (§III-A);
//! [`crate::durable::DurableTokenStore`] wraps it to log ingest and
//! recover it after a crash. The choice is made in code, where the system
//! is assembled (`CrypText::new(db)` or `CrypText::with_store(store)`).
//!
//! Retrieval is **encode-once**: [`TokenStore::for_each_sound_mate`]
//! takes a pre-built [`EncodedQuery`] (Soundex code set + case fold), so
//! a query's encoding is paid once and reused by every pass over its
//! candidates. A query is answered by that one sequential walk, so a
//! [`ControlFlow::Break`] from the visitor stops it at the candidate where
//! it was returned.

use std::ops::ControlFlow;

use cryptext_common::metrics::MetricsRegistry;
use cryptext_common::Result;
use cryptext_docstore::Database;
use cryptext_phonetics::CustomSoundex;
use cryptext_tokenizer::tokenize_spans;

use crate::database::{EncodedQuery, SoundScratch, TokenDatabase, TokenRecord, TokenStats};

/// The storage contract of the token database (§III-A): phonetic-bucket
/// retrieval, ingest, statistics, and document-store persistence.
///
/// # Record ids
///
/// The `u32` ids handed to [`TokenStore::for_each_sound_mate`] callbacks
/// are the records' dense indexes in [`TokenDatabase::records`]. They are
/// unique per store and stable for the store's lifetime.
///
/// # Queries encode once
///
/// The walk takes a pre-built [`EncodedQuery`] rather than a raw token:
/// the caller encodes a query's Soundex codes and case fold exactly once.
/// Construction of the query validates the phonetic level, which is why
/// the walk is infallible ([`ControlFlow`], not `Result`).
pub trait TokenStore: Sync {
    /// Visit every record sharing a sound with the encoded `query` exactly
    /// once. The visitor may return [`ControlFlow::Break`] to stop early;
    /// the return value reports whether it did. See
    /// [`TokenDatabase::for_each_sound_mate`] for the scratch discipline
    /// and the visit order; every engine built on this is
    /// order-insensitive by construction.
    fn for_each_sound_mate<'a, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(u32, &'a TokenRecord) -> ControlFlow<()>;

    /// Fetch a token's record (case-sensitive).
    fn get(&self, token: &str) -> Option<&TokenRecord>;

    /// The record a walk named `id` (see *Record ids* above): how a Look
    /// Up hit list named by id ([`crate::lookup::HitId`]) is read back.
    ///
    /// # Panics
    ///
    /// If `id` is not a record id of this store.
    fn record(&self, id: u32) -> &TokenRecord;

    /// Aggregate statistics.
    fn stats(&self) -> TokenStats;

    /// Distinct stored tokens — the cheap subset of [`TokenStore::stats`]
    /// (O(1), no pass over the records) for callers like the crawler that
    /// only track growth.
    fn unique_tokens(&self) -> usize;

    /// Clean sentences accumulated for LM training.
    fn clean_sentences(&self) -> &[String];

    /// The phonetic encoder for level `k`.
    fn soundex(&self, k: usize) -> Result<&CustomSoundex>;

    /// Materialize the `H_k` map at level `k` as sorted `(code, tokens)`
    /// pairs — the exact shape of the paper's Table I.
    fn hashmap_view(&self, k: usize) -> Result<Vec<(String, Vec<String>)>>;

    /// Ingest one raw token occurrence (gates: ≥ 2 chars, phonetic
    /// content — the batch prepare's own, see
    /// [`crate::database::PreparedBatch`]).
    fn ingest_token(&mut self, token: &str);

    /// Tokenize and ingest one text; returns the word-token count. The
    /// default implementation is the sequential reference loop — word
    /// tokens through [`TokenStore::ingest_token`], fully-in-dictionary
    /// sentences recorded for LM training — that the batch-ingest tests
    /// compare [`TokenStore::ingest_texts`] against.
    /// [`TokenDatabase::ingest_text`] delegates here; the durable store
    /// overrides it with a logged one-text batch.
    fn ingest_text(&mut self, text: &str) -> usize {
        let mut n = 0;
        let mut all_english = true;
        let mut any_word = false;
        for tok in tokenize_spans(text) {
            if tok.is_word() {
                let word = tok.text(text);
                any_word = true;
                self.ingest_token(word);
                if !cryptext_corpus::is_english_word(word) {
                    all_english = false;
                }
                n += 1;
            }
        }
        if any_word && all_english {
            self.record_clean_sentence(text);
        }
        n
    }

    /// Batch ingest with the expensive per-token work parallelized;
    /// byte-identical to calling [`TokenStore::ingest_text`] per text in
    /// order.
    fn ingest_texts<T: AsRef<str> + Sync>(&mut self, texts: &[T]) -> usize;

    /// Record a known-clean sentence for LM training.
    fn record_clean_sentence(&mut self, text: &str);

    /// Seed/refresh every dictionary word as an `is_english` record.
    fn seed_lexicon(&mut self);

    /// Persist the whole store into `store` under `collection`,
    /// replacing any previous persist of the same name.
    fn persist_to(&self, store: &Database, collection: &str) -> Result<()>;

    /// Rebuild a store from a previous [`TokenStore::persist_to`]. Clean
    /// sentences are not persisted.
    fn load_from(store: &Database, collection: &str) -> Result<Self>
    where
        Self: Sized;

    /// Register this store's observability instruments (the durable
    /// log's timings) with `registry`. Stores with nothing to report keep
    /// the no-op default; the service facade calls this once at
    /// construction.
    fn register_metrics(&self, registry: &MetricsRegistry) {
        let _ = registry;
    }
}

impl TokenStore for TokenDatabase {
    fn for_each_sound_mate<'a, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(u32, &'a TokenRecord) -> ControlFlow<()>,
    {
        TokenDatabase::for_each_sound_mate(self, query, scratch, f)
    }

    fn get(&self, token: &str) -> Option<&TokenRecord> {
        TokenDatabase::get(self, token)
    }

    fn record(&self, id: u32) -> &TokenRecord {
        &self.records()[id as usize]
    }

    fn stats(&self) -> TokenStats {
        TokenDatabase::stats(self)
    }

    fn unique_tokens(&self) -> usize {
        self.records().len()
    }

    fn clean_sentences(&self) -> &[String] {
        TokenDatabase::clean_sentences(self)
    }

    fn soundex(&self, k: usize) -> Result<&CustomSoundex> {
        TokenDatabase::soundex(self, k)
    }

    fn hashmap_view(&self, k: usize) -> Result<Vec<(String, Vec<String>)>> {
        TokenDatabase::hashmap_view(self, k)
    }

    fn ingest_token(&mut self, token: &str) {
        TokenDatabase::ingest_token(self, token)
    }

    // `ingest_text` is the trait's default loop, which the inherent
    // `TokenDatabase::ingest_text` delegates to.

    fn ingest_texts<T: AsRef<str> + Sync>(&mut self, texts: &[T]) -> usize {
        TokenDatabase::ingest_texts(self, texts)
    }

    fn record_clean_sentence(&mut self, text: &str) {
        TokenDatabase::record_clean_sentence(self, text)
    }

    fn seed_lexicon(&mut self) {
        TokenDatabase::seed_lexicon(self)
    }

    fn persist_to(&self, store: &Database, collection: &str) -> Result<()> {
        TokenDatabase::persist_to(self, store, collection)
    }

    fn load_from(store: &Database, collection: &str) -> Result<Self> {
        TokenDatabase::load_from(store, collection)
    }
}
