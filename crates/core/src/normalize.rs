//! Normalization (§III-C): detecting and de-perturbing text.
//!
//! For each word token `xᵢ`: if it is already a dictionary word it stands.
//! Otherwise CrypText gathers candidate dictionary words that share an
//! `H_k` bucket within Levenshtein `d` (the SMS property again, restricted
//! to English candidates) and ranks them by
//!
//! ```text
//! score(w) = coherency(w | context)            (masked n-gram LM)
//!          − λ · lev(w, xᵢ)                    (edit penalty)
//!          + μ · ln P(w)                       (unigram prior)
//! ```
//!
//! mirroring the paper's BERT coherency ranking with a deterministic
//! substitute. The full candidate list with scores is exposed (the paper's
//! "advanced users can retrieve all candidates w* and their coherency
//! scores via a provided API").
//!
//! # Hot-path layout
//!
//! Normalization used to re-run an allocating [`look_up`] per
//! out-of-dictionary token — cloning every hit's token `String`, cloning
//! again into lowercased candidate words, and re-probing the LM hash
//! tables for every candidate of every token. The hot path now mirrors the
//! Look Up engine's zero-copy discipline:
//!
//! * **Candidates stream through the Look Up visitor walk** (the one
//!   behind [`crate::lookup::for_each_hit_until`]) — no intermediate owned
//!   hit vector. The walk takes a dictionary-only record predicate, so
//!   non-English records (most of a bucket in a database harvested from
//!   the wild) are skipped before the edit distance. Each
//!   out-of-dictionary token is encoded into an
//!   [`crate::database::EncodedQuery`] exactly once, so a sharded backend
//!   walks all of its Bloom-routed shards on one encoding, in the same
//!   single walk Look Up uses.
//! * **Candidate words borrow the database** (`Cow::Borrowed` into each
//!   record's precomputed fold for the ASCII common case); owned `String`s
//!   are materialized only for the final, truncated candidate list.
//! * **Each slot's context is resolved once**: an out-of-dictionary token
//!   gets one [`cryptext_lm::Slot`], built at its first candidate, which
//!   holds its four context words as LM symbols. Scoring a candidate then
//!   takes one vocabulary probe, whose symbol feeds both the coherency
//!   windows and the unigram prior, on the memo-replay path and on the
//!   walk path alike.
//! * **One [`NormalizeScratch`] serves a whole text**: the Look Up scratch
//!   (visited marks, Myers/DP buffers, query fold) plus a
//!   generation-marked [`CoherencyCache`] that memoizes LM scores per
//!   resolved `(context, candidate)` window, so candidates repeated across
//!   tokens never re-probe the n-gram tables.
//!
//! [`Normalizer::normalize_naive`] preserves the pre-optimization pipeline
//! verbatim; proptests pin the optimized output (text, corrections,
//! candidate ordering, scores) byte-identical against it.

use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::ControlFlow;

use cryptext_common::Result;
use cryptext_lm::{CoherencyCache, NgramLm, Slot};
use cryptext_tokenizer::{splice, tokenize, tokenize_spans, Token};

use crate::database::TokenDatabase;
use crate::lookup::{for_each_hit_where, look_up, LookupParams, LookupScratch};
use crate::store::TokenStore;

/// Parameters of a Normalization pass.
#[derive(Debug, Clone, Copy)]
pub struct NormalizeParams {
    /// Phonetic level for candidate retrieval.
    pub k: usize,
    /// Levenshtein bound for candidate retrieval.
    pub d: usize,
    /// Weight of the edit-distance penalty (λ).
    pub edit_penalty: f64,
    /// Weight of the unigram prior (μ).
    pub prior_weight: f64,
    /// Maximum candidates to keep per token.
    pub max_candidates: usize,
}

impl Default for NormalizeParams {
    fn default() -> Self {
        NormalizeParams {
            k: 1,
            d: 3,
            edit_penalty: 1.0,
            prior_weight: 0.3,
            max_candidates: 8,
        }
    }
}

/// A scored correction candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The dictionary word.
    pub word: String,
    /// Combined ranking score (higher = better).
    pub score: f64,
    /// Case-folded edit distance to the original token.
    pub distance: usize,
}

/// One corrected token.
#[derive(Debug, Clone, PartialEq)]
pub struct Correction {
    /// The perturbed surface form found in the input.
    pub original: String,
    /// The chosen dictionary replacement.
    pub replacement: String,
    /// Byte span of the original token in the input text.
    pub span: std::ops::Range<usize>,
    /// Winning score.
    pub score: f64,
    /// The full ranked candidate list (winner first).
    pub candidates: Vec<Candidate>,
}

/// Result of normalizing a text.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizationResult {
    /// The de-perturbed text.
    pub text: String,
    /// Every correction, in span order (Fig. 2 highlights these).
    pub corrections: Vec<Correction>,
}

impl NormalizationResult {
    /// Was anything corrected?
    pub fn changed(&self) -> bool {
        !self.corrections.is_empty()
    }
}

/// Reusable working memory for a Normalization pass: the Look Up retrieval
/// scratch plus the LM coherency memo table. One instance per thread (or
/// per bulk request) makes per-token candidate retrieval allocation-free
/// and de-duplicates LM probes across a text.
#[derive(Debug, Default)]
pub struct NormalizeScratch {
    lookup: LookupScratch,
    lm_cache: CoherencyCache,
}

impl NormalizeScratch {
    /// Fresh scratch space (allocates lazily on first use).
    pub fn new() -> Self {
        NormalizeScratch::default()
    }

    /// Attach (or, with `None`, detach) a stage-metrics bundle on the
    /// embedded Look Up scratch: candidate collection then records
    /// collect/re-score timings and scored-pair volumes. The nested
    /// per-token retrievals run with their own encode/walk timers
    /// detached — the collect histogram spans them, and per-token clock
    /// reads would dominate the instrumentation cost.
    pub fn attach_stages(&mut self, stages: Option<std::sync::Arc<crate::StageMetrics>>) {
        self.lookup.attach_stages(stages);
    }
}

thread_local! {
    static SHARED_NORM_SCRATCH: RefCell<NormalizeScratch> =
        RefCell::new(NormalizeScratch::new());
}

/// The context-independent half of one token's candidate retrieval: the
/// deduped `(word, distance)` pairs in ascending word order, exactly as
/// they stand after `Normalizer::collect_candidates`' dedup and before
/// context scoring reorders and truncates them. An **empty** list is a
/// negative entry — the token is out-of-dictionary with no candidates.
/// The walk skips non-dictionary records before the edit distance, so a
/// negative entry is not the expensive retrieval.
///
/// Equal words imply equal folds, distances, and (given a context) scores,
/// so replaying these pairs through the scorer reproduces the uncached
/// pipeline byte-identically: scoring is recomputed per call (it depends
/// on the token's context window), and the final rank sort is stable from
/// the same word-ascending start order.
pub type CandidatePairs = std::sync::Arc<Vec<(String, usize)>>;

/// A cross-text memo for candidate retrieval, consulted per
/// out-of-dictionary token by [`Normalizer::normalize_cached`]. Keys are
/// `(token, k, d)` — the caller owns versioning (generation, model
/// identity) inside its own key/namespace scheme.
pub trait CandidateCache {
    /// Fetch the pairs memoized for `(token, k, d)`, or `None` on miss.
    /// `Some` with an empty list is a cached negative result.
    fn get(&self, token: &str, k: usize, d: usize) -> Option<CandidatePairs>;

    /// Memoize freshly retrieved pairs (possibly empty = negative).
    fn put(&self, token: &str, k: usize, d: usize, pairs: CandidatePairs);
}

/// A candidate scored against the database without owning its word: the
/// common (ASCII) case borrows the record's precomputed fold. Owned
/// `Candidate`s are materialized only after dedup + rank + truncate.
struct ScoredCand<'d> {
    word: Cow<'d, str>,
    score: f64,
    distance: usize,
}

/// The Normalization engine: a language model for coherency scoring.
pub struct Normalizer<'a> {
    lm: &'a NgramLm,
}

impl<'a> Normalizer<'a> {
    /// Build from a trained language model.
    pub fn new(lm: &'a NgramLm) -> Self {
        Normalizer { lm }
    }

    /// Should this token be left alone? Dictionary words (case-folded)
    /// stand as written.
    fn is_clean(token: &str) -> bool {
        cryptext_corpus::is_english_word(token)
    }

    /// Stream, score, dedup, and rank dictionary candidates for one token
    /// into `buf`. Equivalent to the naive look-up-then-clone pipeline
    /// (see [`Normalizer::normalize_naive`]) but zero-copy per candidate.
    #[allow(clippy::too_many_arguments)]
    fn collect_candidates<'d, S: TokenStore>(
        &self,
        db: &'d S,
        token: &str,
        left: &[&str],
        right: &[&str],
        params: NormalizeParams,
        scratch: &mut NormalizeScratch,
        buf: &mut Vec<ScoredCand<'d>>,
        cache: Option<&dyn CandidateCache>,
    ) -> Result<()> {
        buf.clear();
        let NormalizeScratch { lookup, lm_cache } = scratch;
        // Take the bundle off the embedded scratch for the duration of
        // the call: the nested retrieval must run with its encode/walk
        // timers detached — the collect histogram below already spans
        // it, and a normalize call fans out to one retrieval per token,
        // so per-token clock reads are exactly what the bench-smoke
        // overhead gate would charge us for.
        let stages_owned = lookup.stages.take();
        let stages = stages_owned.as_deref();
        // The token's context, resolved to LM symbols at its first
        // candidate, so a token without candidates resolves nothing.
        let mut slot: Option<Slot> = None;
        let mut score = |word: &str, distance: usize| {
            let slot = slot.get_or_insert_with(|| self.lm.slot(left, right));
            let (coherency, prior) = slot.score(word, lm_cache);
            coherency - params.edit_penalty * distance as f64 + params.prior_weight * prior
        };
        // Cache hit: replay the memoized word-ascending pairs through the
        // scorer. The stable score sort below starts from the same order
        // the uncached path reaches after its dedup, so ties resolve
        // identically and the truncated list is byte-identical.
        if let Some(cache) = cache {
            if let Some(pairs) = cache.get(token, params.k, params.d) {
                let _t = stages.map(|s| s.normalize_rescore_us.start_timer());
                for (word, distance) in pairs.iter() {
                    buf.push(ScoredCand {
                        word: Cow::Owned(word.clone()),
                        score: score(word, *distance),
                        distance: *distance,
                    });
                }
                buf.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                buf.truncate(params.max_candidates);
                if let Some(s) = stages {
                    s.normalize_scored.add(pairs.len() as u64);
                }
                lookup.stages = stages_owned;
                return Ok(());
            }
        }
        // Cold path: the collect timer spans the whole of retrieval +
        // inline LM scoring + dedup/rank/truncate (the nested retrieval
        // runs detached, so `lookup_encode_us`/`lookup_walk_us` sample
        // direct Look Up calls only).
        let _t = stages.map(|s| s.normalize_collect_us.start_timer());
        let retrieval = LookupParams::new(params.k, params.d);
        // Only dictionary records can become candidates, so the walk drops
        // the rest before their edit distance is computed.
        let walked = for_each_hit_where(
            db,
            token,
            retrieval,
            lookup,
            |rec| rec.is_english,
            |_, rec, distance| {
                // The reference lowercases the raw surface form with
                // `to_ascii_lowercase`; for ASCII tokens that equals the
                // record's precomputed Unicode fold, so borrow it.
                let word: Cow<'d, str> = if rec.token.is_ascii() {
                    Cow::Borrowed(rec.folded.as_str())
                } else {
                    Cow::Owned(rec.token.to_ascii_lowercase())
                };
                let score = score(&word, distance);
                buf.push(ScoredCand {
                    word,
                    score,
                    distance,
                });
                ControlFlow::Continue(())
            },
        );
        // Reattach before the `?` so an error cannot leave the caller's
        // scratch permanently detached.
        lookup.stages = stages_owned;
        walked?;
        if let Some(s) = lookup.stages.as_deref() {
            // Every surviving hit above was scored exactly once.
            s.normalize_scored.add(buf.len() as u64);
        }
        // Same dictionary word may appear under several surface forms;
        // keep the best-scoring instance of each. Candidates tied on
        // (word, score) are interchangeable — equal word implies equal
        // fold, distance, and score — so visiting in bucket order rather
        // than hit-sorted order cannot change the surviving values.
        buf.sort_by(|a, b| {
            a.word.cmp(&b.word).then(
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        buf.dedup_by(|a, b| a.word == b.word);
        // Memoize the deduped pre-truncation pairs: truncation depends on
        // the context-sensitive score order, so it must not be cached.
        if let Some(cache) = cache {
            let pairs: Vec<(String, usize)> = buf
                .iter()
                .map(|c| (c.word.clone().into_owned(), c.distance))
                .collect();
            cache.put(token, params.k, params.d, std::sync::Arc::new(pairs));
        }
        buf.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        buf.truncate(params.max_candidates);
        Ok(())
    }

    /// The scratch-threading core of [`Normalizer::normalize_token`].
    #[allow(clippy::too_many_arguments)]
    fn normalize_token_with<'d, S: TokenStore>(
        &self,
        db: &'d S,
        token: &str,
        left: &[&str],
        right: &[&str],
        params: NormalizeParams,
        scratch: &mut NormalizeScratch,
        buf: &mut Vec<ScoredCand<'d>>,
        cache: Option<&dyn CandidateCache>,
    ) -> Result<Option<(String, f64, Vec<Candidate>)>> {
        if Self::is_clean(token) {
            return Ok(None);
        }
        self.collect_candidates(db, token, left, right, params, scratch, buf, cache)?;
        if buf.is_empty() {
            return Ok(None);
        }
        let cands: Vec<Candidate> = buf
            .iter()
            .map(|c| Candidate {
                word: c.word.clone().into_owned(),
                score: c.score,
                distance: c.distance,
            })
            .collect();
        let replacement = cands[0].word.clone();
        let score = cands[0].score;
        // Move the list out — the winner is duplicated once (the returned
        // replacement string), not the whole candidate vector.
        Ok(Some((replacement, score, cands)))
    }

    /// Normalize one token given its context; `None` when the token is
    /// clean or no candidate exists.
    pub fn normalize_token<S: TokenStore>(
        &self,
        db: &S,
        token: &str,
        left: &[&str],
        right: &[&str],
        params: NormalizeParams,
    ) -> Result<Option<(String, f64, Vec<Candidate>)>> {
        // No up-front level validation: like the seed, clean tokens stand
        // (`Ok(None)`) before the retrieval path ever inspects `params.k`.
        SHARED_NORM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.lm_cache.begin();
            let mut buf: Vec<ScoredCand> = Vec::new();
            self.normalize_token_with(db, token, left, right, params, scratch, &mut buf, None)
        })
    }

    /// Normalize a whole text (§III-C, Fig. 2).
    ///
    /// Uses a thread-local [`NormalizeScratch`]; callers managing their
    /// own scratch (bulk endpoints, benches) should call
    /// [`Normalizer::normalize_with`].
    pub fn normalize<S: TokenStore>(
        &self,
        db: &S,
        text: &str,
        params: NormalizeParams,
    ) -> Result<NormalizationResult> {
        SHARED_NORM_SCRATCH
            .with(|scratch| self.normalize_with(db, text, params, &mut scratch.borrow_mut()))
    }

    /// [`Normalizer::normalize`] with caller-provided scratch buffers. One
    /// scratch serves the whole text: candidate retrieval reuses the
    /// Look Up buffers per token and LM coherency probes are memoized
    /// across tokens (fresh memo generation per text).
    pub fn normalize_with<S: TokenStore>(
        &self,
        db: &S,
        text: &str,
        params: NormalizeParams,
        scratch: &mut NormalizeScratch,
    ) -> Result<NormalizationResult> {
        self.normalize_inner(db, text, params, scratch, None)
    }

    /// [`Normalizer::normalize_with`] consulting a cross-text
    /// [`CandidateCache`] for per-token retrieval. Byte-identical to the
    /// uncached path: only the context-independent `(word, distance)`
    /// pairs are memoized; coherency scoring, ranking, and truncation run
    /// fresh against each token's context.
    pub fn normalize_cached<S: TokenStore>(
        &self,
        db: &S,
        text: &str,
        params: NormalizeParams,
        scratch: &mut NormalizeScratch,
        cache: &dyn CandidateCache,
    ) -> Result<NormalizationResult> {
        self.normalize_inner(db, text, params, scratch, Some(cache))
    }

    fn normalize_inner<S: TokenStore>(
        &self,
        db: &S,
        text: &str,
        params: NormalizeParams,
        scratch: &mut NormalizeScratch,
        cache: Option<&dyn CandidateCache>,
    ) -> Result<NormalizationResult> {
        TokenDatabase::check_level(params.k)?;
        scratch.lm_cache.begin();
        // Zero-copy tokenization: word texts are slices of `text`, and the
        // lowercased context words borrow them unless a fold is needed.
        let word_spans: Vec<std::ops::Range<usize>> = tokenize_spans(text)
            .into_iter()
            .filter(|t| t.is_word())
            .map(|t| t.span)
            .collect();
        let words_lower: Vec<Cow<str>> = word_spans
            .iter()
            .map(|span| {
                let w = &text[span.clone()];
                if w.bytes().any(|b| b.is_ascii_uppercase()) {
                    Cow::Owned(w.to_ascii_lowercase())
                } else {
                    Cow::Borrowed(w)
                }
            })
            .collect();
        let word_refs: Vec<&str> = words_lower.iter().map(|s| s.as_ref()).collect();

        let mut buf: Vec<ScoredCand> = Vec::new();
        let mut corrections: Vec<Correction> = Vec::new();
        let mut replacements: Vec<(std::ops::Range<usize>, String)> = Vec::new();
        for (wi, span) in word_spans.iter().enumerate() {
            let token = &text[span.clone()];
            let left_start = wi.saturating_sub(2);
            let left = &word_refs[left_start..wi];
            let right_end = (wi + 3).min(word_refs.len());
            let right = &word_refs[wi + 1..right_end];
            if let Some((replacement, score, candidates)) =
                self.normalize_token_with(db, token, left, right, params, scratch, &mut buf, cache)?
            {
                replacements.push((span.clone(), replacement.clone()));
                corrections.push(Correction {
                    original: token.to_string(),
                    replacement,
                    span: span.clone(),
                    score,
                    candidates,
                });
            }
        }
        Ok(NormalizationResult {
            text: splice(text, &replacements),
            corrections,
        })
    }

    /// The pre-optimization Normalization, kept as the differential-testing
    /// and benchmarking reference. It reproduces the seed pipeline
    /// faithfully: every out-of-dictionary token re-runs an allocating
    /// [`look_up`] (cloning each hit), lowercases every candidate into a
    /// fresh `String`, re-probes the LM for every candidate of every
    /// token, and clones the winning candidate list on return. Must return
    /// byte-identical results to [`Normalizer::normalize`].
    pub fn normalize_naive(
        &self,
        db: &TokenDatabase,
        text: &str,
        params: NormalizeParams,
    ) -> Result<NormalizationResult> {
        TokenDatabase::check_level(params.k)?;
        let tokens = tokenize(text);
        let word_positions: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_word())
            .map(|(i, _)| i)
            .collect();
        let words_lower: Vec<String> = word_positions
            .iter()
            .map(|&i| tokens[i].text.to_ascii_lowercase())
            .collect();

        let mut corrections: Vec<Correction> = Vec::new();
        let mut replacements: Vec<(std::ops::Range<usize>, String)> = Vec::new();
        for (wi, &ti) in word_positions.iter().enumerate() {
            let tok: &Token = &tokens[ti];
            let left_start = wi.saturating_sub(2);
            let left: Vec<&str> = words_lower[left_start..wi]
                .iter()
                .map(|s| s.as_str())
                .collect();
            let right_end = (wi + 3).min(words_lower.len());
            let right: Vec<&str> = words_lower[wi + 1..right_end]
                .iter()
                .map(|s| s.as_str())
                .collect();
            if let Some((replacement, score, candidates)) =
                self.normalize_token_naive(db, &tok.text, &left, &right, params)?
            {
                replacements.push((tok.span.clone(), replacement.clone()));
                corrections.push(Correction {
                    original: tok.text.clone(),
                    replacement,
                    span: tok.span.clone(),
                    score,
                    candidates,
                });
            }
        }
        Ok(NormalizationResult {
            text: splice(text, &replacements),
            corrections,
        })
    }

    /// The seed's per-token path: allocating candidate retrieval and the
    /// double-clone return (`best.word.clone()` + `cands.clone()`).
    fn normalize_token_naive(
        &self,
        db: &TokenDatabase,
        token: &str,
        left: &[&str],
        right: &[&str],
        params: NormalizeParams,
    ) -> Result<Option<(String, f64, Vec<Candidate>)>> {
        if Self::is_clean(token) {
            return Ok(None);
        }
        let hits = look_up(db, token, LookupParams::new(params.k, params.d))?;
        let mut cands: Vec<Candidate> = hits
            .into_iter()
            .filter(|h| h.is_english)
            .map(|h| {
                let word = h.token.to_ascii_lowercase();
                let coherency = self.lm.coherency(&word, left, right);
                let prior = self.lm.unigram_log_prob(&word);
                let score = coherency - params.edit_penalty * h.distance as f64
                    + params.prior_weight * prior;
                Candidate {
                    word,
                    score,
                    distance: h.distance,
                }
            })
            .collect();
        cands.sort_by(|a, b| {
            a.word.cmp(&b.word).then(
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        cands.dedup_by(|a, b| a.word == b.word);
        cands.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        cands.truncate(params.max_candidates);
        match cands.first() {
            None => Ok(None),
            Some(best) => Ok(Some((best.word.clone(), best.score, cands.clone()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_lm::NgramLm;

    fn fixture() -> (TokenDatabase, NgramLm) {
        let mut db = TokenDatabase::with_lexicon();
        // Observed perturbations so buckets exist for them too.
        for s in [
            "the demokRATs rallied",
            "vacc1ne mandate pushback",
            "thinking about suic1de",
        ] {
            db.ingest_text(s);
        }
        let lm = NgramLm::train([
            "biden belongs to the democrats",
            "the democrats proposed the bill",
            "the republicans blocked the bill",
            "the vaccine mandate was announced",
            "people discussed the vaccine mandate online",
            "suicide prevention is important",
            "thinking about suicide is a warning sign",
            "the dirty campaign continued",
        ]);
        (db, lm)
    }

    #[test]
    fn paper_figure2_style_normalization() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let out = n
            .normalize(
                &db,
                "Biden belongs to the demokRATs",
                NormalizeParams::default(),
            )
            .unwrap();
        assert_eq!(out.text, "Biden belongs to the democrats");
        assert_eq!(out.corrections.len(), 1);
        let c = &out.corrections[0];
        assert_eq!(c.original, "demokRATs");
        assert_eq!(c.replacement, "democrats");
        assert!(!c.candidates.is_empty());
        assert_eq!(c.candidates[0].word, "democrats");
    }

    #[test]
    fn leet_and_ambiguous_tokens_normalize() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let out = n
            .normalize(
                &db,
                "the vacc1ne mandate was announced",
                NormalizeParams::default(),
            )
            .unwrap();
        assert_eq!(out.text, "the vaccine mandate was announced");

        let out = n
            .normalize(&db, "thinking about suic1de", NormalizeParams::default())
            .unwrap();
        assert_eq!(out.text, "thinking about suicide");
    }

    #[test]
    fn clean_text_untouched() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let text = "the democrats proposed the bill";
        let out = n.normalize(&db, text, NormalizeParams::default()).unwrap();
        assert_eq!(out.text, text);
        assert!(!out.changed());
    }

    #[test]
    fn unknown_gibberish_left_alone() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let out = n
            .normalize(&db, "qzxqzx happened", NormalizeParams::default())
            .unwrap();
        assert!(out.text.contains("qzxqzx"), "no candidates → unchanged");
    }

    #[test]
    fn context_breaks_ties() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        // "vacc1ne" in a mandate context → vaccine (not some other v-word).
        let (replacement, _, cands) = n
            .normalize_token(
                &db,
                "vacc1ne",
                &["the"],
                &["mandate", "was"],
                NormalizeParams::default(),
            )
            .unwrap()
            .unwrap();
        assert_eq!(replacement, "vaccine");
        assert!(!cands.is_empty());
    }

    #[test]
    fn candidate_list_is_ranked_and_deduped() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let (_, _, cands) = n
            .normalize_token(&db, "demokRATs", &["the"], &[], NormalizeParams::default())
            .unwrap()
            .unwrap();
        for w in cands.windows(2) {
            assert!(w[0].score >= w[1].score, "ranked descending");
        }
        let words: std::collections::HashSet<&str> =
            cands.iter().map(|c| c.word.as_str()).collect();
        assert_eq!(words.len(), cands.len(), "no duplicate words");
    }

    #[test]
    fn spans_point_into_original_text() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let text = "so the demokRATs and the vacc1ne push";
        let out = n.normalize(&db, text, NormalizeParams::default()).unwrap();
        assert_eq!(out.corrections.len(), 2);
        for c in &out.corrections {
            assert_eq!(&text[c.span.clone()], c.original);
        }
    }

    #[test]
    fn invalid_level_is_error() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let params = NormalizeParams {
            k: 7,
            ..NormalizeParams::default()
        };
        assert!(n.normalize(&db, "whatever", params).is_err());
        assert!(n.normalize_naive(&db, "whatever", params).is_err());
        assert!(n
            .normalize_token(&db, "whatever", &[], &[], params)
            .is_err());
        // Seed behavior: a clean token stands before the retrieval path
        // ever validates the level.
        assert!(n
            .normalize_token(&db, "the", &[], &[], params)
            .unwrap()
            .is_none());
    }

    #[test]
    fn max_candidates_truncates() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let params = NormalizeParams {
            max_candidates: 1,
            ..NormalizeParams::default()
        };
        if let Some((_, _, cands)) = n
            .normalize_token(&db, "demokRATs", &["the"], &[], params)
            .unwrap()
        {
            assert_eq!(cands.len(), 1);
        }
    }

    #[test]
    fn optimized_matches_naive_on_fixture_texts() {
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let mut scratch = NormalizeScratch::new();
        for text in [
            "Biden belongs to the demokRATs",
            "the vacc1ne mandate was announced and the vacc1ne again",
            "so the demokRATs and the vacc1ne push",
            "clean text stays clean",
            "qzxqzx happened 🙂 ok",
            "",
            "suic1de suic1de suic1de",
        ] {
            for params in [
                NormalizeParams::default(),
                NormalizeParams {
                    max_candidates: 1,
                    ..NormalizeParams::default()
                },
                NormalizeParams {
                    k: 0,
                    d: 2,
                    ..NormalizeParams::default()
                },
            ] {
                let fast = n.normalize_with(&db, text, params, &mut scratch).unwrap();
                let slow = n.normalize_naive(&db, text, params).unwrap();
                assert_eq!(fast, slow, "text {text:?} params {params:?}");
            }
        }
    }

    #[test]
    fn cached_normalization_is_byte_identical_and_memoizes_negatives() {
        use std::collections::HashMap;
        #[derive(Default)]
        struct MapCache {
            map: RefCell<HashMap<(String, usize, usize), CandidatePairs>>,
            gets: std::cell::Cell<u64>,
            hits: std::cell::Cell<u64>,
        }
        impl CandidateCache for MapCache {
            fn get(&self, token: &str, k: usize, d: usize) -> Option<CandidatePairs> {
                self.gets.set(self.gets.get() + 1);
                let got = self.map.borrow().get(&(token.to_string(), k, d)).cloned();
                if got.is_some() {
                    self.hits.set(self.hits.get() + 1);
                }
                got
            }
            fn put(&self, token: &str, k: usize, d: usize, pairs: CandidatePairs) {
                self.map
                    .borrow_mut()
                    .insert((token.to_string(), k, d), pairs);
            }
        }

        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let cache = MapCache::default();
        let mut scratch = NormalizeScratch::new();
        let texts = [
            "Biden belongs to the demokRATs",
            "so the demokRATs and the vacc1ne push",
            "qzxqzx happened",
            "qzxqzx happened again with the demokRATs",
        ];
        for text in texts {
            let uncached = n
                .normalize_with(&db, text, NormalizeParams::default(), &mut scratch)
                .unwrap();
            let cold = n
                .normalize_cached(&db, text, NormalizeParams::default(), &mut scratch, &cache)
                .unwrap();
            let warm = n
                .normalize_cached(&db, text, NormalizeParams::default(), &mut scratch, &cache)
                .unwrap();
            assert_eq!(cold, uncached, "cold pass byte-identical: {text:?}");
            assert_eq!(warm, uncached, "warm pass byte-identical: {text:?}");
        }
        assert!(cache.hits.get() > 0, "repeat tokens served from the memo");
        // The no-candidate gibberish token is negatively cached: an empty
        // entry exists and its repeat retrieval was a hit, not a re-walk.
        let neg = cache
            .map
            .borrow()
            .get(&("qzxqzx".to_string(), 1, 3))
            .cloned()
            .expect("negative entry present");
        assert!(neg.is_empty());
    }

    #[test]
    fn scratch_reuse_across_texts_is_clean() {
        // The same scratch (lookup buffers + LM memo generations) across
        // many different texts must never leak state between texts.
        let (db, lm) = fixture();
        let n = Normalizer::new(&lm);
        let mut scratch = NormalizeScratch::new();
        let texts = [
            "the demokRATs won",
            "the vacc1ne mandate",
            "thinking about suic1de",
            "the demokRATs won",
        ];
        let isolated: Vec<NormalizationResult> = texts
            .iter()
            .map(|t| {
                let mut fresh = NormalizeScratch::new();
                n.normalize_with(&db, t, NormalizeParams::default(), &mut fresh)
                    .unwrap()
            })
            .collect();
        let reused: Vec<NormalizationResult> = texts
            .iter()
            .map(|t| {
                n.normalize_with(&db, t, NormalizeParams::default(), &mut scratch)
                    .unwrap()
            })
            .collect();
        assert_eq!(isolated, reused);
        assert_eq!(isolated[0], isolated[3], "same text → same result");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cryptext_lm::NgramLm;
    use proptest::prelude::*;

    /// A corpus alphabet that exercises leet fan-out (1 ↔ i/l, @ ↔ a) and
    /// real dictionary collisions against the seeded lexicon.
    fn word() -> impl Strategy<Value = String> {
        "[a-e1@]{2,8}"
    }

    fn text_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(word(), 0..10).prop_map(|ws| ws.join(" "))
    }

    proptest! {
        /// Differential pin: the zero-copy scratch-reusing Normalization
        /// returns byte-identical results — de-perturbed text, corrections
        /// (spans, scores), and full candidate ordering — to the kept
        /// naive reference, across random corpora, texts, and parameters.
        #[test]
        fn optimized_equals_naive_reference(
            corpus in proptest::collection::vec(text_strategy(), 1..8),
            lm_texts in proptest::collection::vec(text_strategy(), 1..6),
            texts in proptest::collection::vec(text_strategy(), 1..6),
            k in 0usize..=2,
            d in 1usize..=3,
            max_candidates in 1usize..=8,
        ) {
            let mut db = TokenDatabase::with_lexicon();
            for t in &corpus {
                db.ingest_text(t);
            }
            let lm = NgramLm::train(lm_texts.iter().map(|s| s.as_str()));
            let n = Normalizer::new(&lm);
            let params = NormalizeParams {
                k,
                d,
                max_candidates,
                ..NormalizeParams::default()
            };
            let mut scratch = NormalizeScratch::new();
            // One cross-text candidate memo shared by every cached pass:
            // later texts hit entries populated by earlier ones, and the
            // result must stay pinned to the naive reference regardless.
            #[derive(Default)]
            struct MapCache(
                std::cell::RefCell<
                    std::collections::HashMap<(String, usize, usize), CandidatePairs>,
                >,
            );
            impl CandidateCache for MapCache {
                fn get(&self, token: &str, k: usize, d: usize) -> Option<CandidatePairs> {
                    self.0.borrow().get(&(token.to_string(), k, d)).cloned()
                }
                fn put(&self, token: &str, k: usize, d: usize, pairs: CandidatePairs) {
                    self.0.borrow_mut().insert((token.to_string(), k, d), pairs);
                }
            }
            let cache = MapCache::default();
            for text in &texts {
                let fast = n.normalize_with(&db, text, params, &mut scratch).unwrap();
                let slow = n.normalize_naive(&db, text, params).unwrap();
                prop_assert_eq!(&fast, &slow, "text {:?} params {:?}", text, params);
                // The thread-local convenience wrapper agrees too.
                let wrapped = n.normalize(&db, text, params).unwrap();
                prop_assert_eq!(&wrapped, &slow);
                // Candidate-cached passes (cold fill, then warm replay)
                // agree byte-for-byte with the reference.
                let cold = n
                    .normalize_cached(&db, text, params, &mut scratch, &cache)
                    .unwrap();
                prop_assert_eq!(&cold, &slow);
                let warm = n
                    .normalize_cached(&db, text, params, &mut scratch, &cache)
                    .unwrap();
                prop_assert_eq!(&warm, &slow);
            }
        }

        /// Corrections always carry their winner as the first candidate,
        /// and every candidate respects the retrieval bound `d`.
        #[test]
        fn corrections_are_internally_consistent(
            corpus in proptest::collection::vec(text_strategy(), 1..6),
            text in text_strategy(),
        ) {
            let mut db = TokenDatabase::with_lexicon();
            for t in &corpus {
                db.ingest_text(t);
            }
            let lm = NgramLm::train(corpus.iter().map(|s| s.as_str()));
            let n = Normalizer::new(&lm);
            let params = NormalizeParams::default();
            let out = n.normalize(&db, &text, params).unwrap();
            for c in &out.corrections {
                prop_assert!(!c.candidates.is_empty());
                prop_assert_eq!(&c.replacement, &c.candidates[0].word);
                prop_assert_eq!(c.score.to_bits(), c.candidates[0].score.to_bits());
                for cand in &c.candidates {
                    prop_assert!(cand.distance <= params.d);
                }
                prop_assert_eq!(&text[c.span.clone()], c.original.as_str());
            }
        }
    }
}
