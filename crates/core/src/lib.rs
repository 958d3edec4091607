//! # cryptext-core
//!
//! The CrypText system (§III of the paper): the human-written token
//! database and the four user-facing functions built on top of it.
//!
//! * [`database::TokenDatabase`] — raw case-sensitive tokens encoded with
//!   the customized Soundex at phonetic levels `k ∈ {0, 1, 2}`, bucketed
//!   into the `H_k` hash maps (Table I), persistable to the embedded
//!   document store.
//! * [`lookup`] — **Look Up** (§III-B): retrieve the perturbation set
//!   `P_x` of a token under the SMS property (same Sound at level `k`,
//!   same Meaning via Levenshtein ≤ `d`, different Spelling).
//! * [`normalize`] — **Normalization** (§III-C): detect and de-perturb
//!   tokens, ranking dictionary candidates with an n-gram coherency score
//!   (the BERT substitute).
//! * [`perturb`] — **Perturbation** (§III-D): rewrite a text at
//!   manipulation ratio `r` using only perturbations observed in the
//!   database — i.e. guaranteed human-written.
//! * [`listening`] — **Social Listening** (§III-E): expand a watch-list
//!   into perturbations, search the (simulated) platform, aggregate
//!   frequency/sentiment timelines.
//! * [`ingest`] — the crawler (§III-F) that continually feeds new tokens
//!   from the stream into the database.
//! * [`service`] — the public-API facade (§III-F): token auth, rate
//!   limiting, Redis-style result caching, bulk endpoints.
//! * [`store`] / [`shard`] — the storage abstraction: every engine is
//!   generic over the [`store::TokenStore`] trait, implemented by the
//!   single-instance [`database::TokenDatabase`] and the consistent-hash
//!   [`shard::ShardedTokenDatabase`]. The caller picks the backend when
//!   it assembles the system ([`CrypText::new`] for one instance,
//!   [`CrypText::with_store`] for any store); nothing is read from the
//!   environment.

#![warn(missing_docs)]

pub mod database;
pub mod durable;
pub mod ingest;
pub mod listening;
pub mod lookup;
pub mod metrics;
pub mod normalize;
pub mod perturb;
pub mod service;
pub mod shard;
pub mod store;

use cryptext_common::Result;

pub use database::{EncodedQuery, SoundScratch, TokenDatabase, TokenRecord, TokenStats};
pub use lookup::{
    for_each_hit, for_each_hit_until, look_up, look_up_cancellable, look_up_naive, look_up_with,
    LookupHit, LookupParams, LookupScratch,
};
pub use metrics::StageMetrics;
pub use normalize::{
    CandidateCache, CandidatePairs, NormalizeParams, NormalizeScratch, Normalizer,
};
pub use perturb::{PerturbParams, Perturber};
pub use shard::ShardedTokenDatabase;
pub use store::TokenStore;

/// The assembled CrypText system: a token store plus the language model
/// used by Normalization. Generic over the storage backend; the default
/// type parameter keeps single-instance callers (`CrypText::new(db)`)
/// source-compatible.
pub struct CrypText<S: TokenStore = TokenDatabase> {
    db: S,
    lm: cryptext_lm::NgramLm,
}

impl CrypText<TokenDatabase> {
    /// Assemble from a single-instance database; the normalization
    /// language model is trained on the database's accumulated clean
    /// sentences (see [`TokenDatabase::clean_sentences`]).
    pub fn new(db: TokenDatabase) -> Self {
        Self::with_store(db)
    }
}

impl<S: TokenStore> CrypText<S> {
    /// Assemble from any storage backend, training the normalization
    /// language model on the store's accumulated clean sentences.
    pub fn with_store(db: S) -> Self {
        let lm = cryptext_lm::NgramLm::train(db.clean_sentences().iter().map(|s| s.as_str()));
        CrypText { db, lm }
    }

    /// Assemble with an explicitly trained language model.
    pub fn with_lm(db: S, lm: cryptext_lm::NgramLm) -> Self {
        CrypText { db, lm }
    }

    /// The underlying token store.
    pub fn database(&self) -> &S {
        &self.db
    }

    /// The normalization language model.
    pub fn language_model(&self) -> &cryptext_lm::NgramLm {
        &self.lm
    }

    /// Look Up: the perturbation set `P_x` of `token` (§III-B).
    pub fn look_up(&self, token: &str, params: LookupParams) -> Result<Vec<LookupHit>> {
        lookup::look_up(&self.db, token, params)
    }

    /// Normalization: de-perturb `text` (§III-C).
    pub fn normalize(
        &self,
        text: &str,
        params: NormalizeParams,
    ) -> Result<normalize::NormalizationResult> {
        Normalizer::new(&self.lm).normalize(&self.db, text, params)
    }

    /// Perturbation: rewrite `text` at manipulation ratio `r` with
    /// database perturbations (§III-D).
    pub fn perturb(
        &self,
        text: &str,
        params: PerturbParams,
    ) -> Result<perturb::PerturbationOutcome> {
        Perturber::new(&self.db).perturb(text, params)
    }
}

impl<S: TokenStore> std::fmt::Debug for CrypText<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrypText")
            .field("db", &self.db.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example, end to end: Table I corpus → Look Up.
    #[test]
    fn paper_table1_lookup_flow() {
        let mut db = TokenDatabase::in_memory();
        for s in [
            "the dirrty republicans",
            "thee dirty repubLIEcans",
            "the dirty republic@@ns",
        ] {
            db.ingest_text(s);
        }
        let cx = CrypText::new(db);

        // §III-B: query "republicans" with k=1, d=1 →
        // {republicans, repubLIEcans}, excluding republic@@ns (d = 2).
        let hits = cx.look_up("republicans", LookupParams::new(1, 1)).unwrap();
        let tokens: Vec<&str> = hits.iter().map(|h| h.token.as_str()).collect();
        assert!(tokens.contains(&"republicans"));
        assert!(tokens.contains(&"repubLIEcans"));
        assert!(!tokens.contains(&"republic@@ns"));

        // With d=2 the third variant appears.
        let hits = cx.look_up("republicans", LookupParams::new(1, 2)).unwrap();
        let tokens: Vec<&str> = hits.iter().map(|h| h.token.as_str()).collect();
        assert!(tokens.contains(&"republic@@ns"));
    }
}
