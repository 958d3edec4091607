//! # cryptext-lm
//!
//! Word n-gram language model — CrypText's substitute for the BERT masked
//! language model used in the paper's Normalization function (§III-C).
//!
//! The paper ranks candidate corrections of a perturbed token by a
//! *coherency score*: "how likely w\* appears in the immediate context of
//! xᵢ". That only requires a **relative** ordering of candidate words given
//! a small context window, which an interpolated trigram model trained on
//! the clean corpus provides — deterministically, offline, and fast enough
//! to sit on the normalization hot path.
//!
//! The model:
//!
//! * interpolated maximum-likelihood trigram/bigram/unigram estimates with
//!   a uniform-vocabulary floor (Jelinek–Mercer smoothing),
//! * sentence boundary markers so leading/trailing context is meaningful,
//! * [`NgramLm::coherency`] — the masked-position score: the sum of the log
//!   probabilities of every trigram window that covers the masked slot,
//!   mirroring how a masked LM scores a fill-in,
//! * [`NgramLm::slot`] — the Normalization hot-path variant: a [`Slot`]
//!   resolves one masked position's four context words to symbols once,
//!   and [`Slot::score`] then scores each candidate from a single
//!   vocabulary probe, whose symbol feeds both the three trigram windows
//!   and the unigram prior. A caller-held, generation-marked
//!   [`CoherencyCache`] memoizes coherency per resolved `(context,
//!   candidate)` symbol window, so candidates repeated across the tokens
//!   of one text never re-probe the n-gram tables.
//!
//! Scores depend on words only through their interned [`Symbol`]s (unknown
//! words all resolve to the same "no symbol" state), which is what makes
//! symbol-window memoization exact rather than approximate.

#![warn(missing_docs)]

use cryptext_common::hash::FxHashMap;
use cryptext_common::{Interner, Symbol};

/// Sentinel for sentence start (never a real token).
const BOS: &str = "<s>";
/// Sentinel for sentence end.
const EOS: &str = "</s>";

/// Interpolation weights for trigram/bigram/unigram/uniform components.
/// Must sum to 1.
#[derive(Debug, Clone, Copy)]
pub struct Interpolation {
    /// Trigram ML weight.
    pub l3: f64,
    /// Bigram ML weight.
    pub l2: f64,
    /// Unigram ML weight.
    pub l1: f64,
    /// Uniform 1/V floor weight.
    pub l0: f64,
}

impl Default for Interpolation {
    fn default() -> Self {
        // Tuned for tiny corpora: heavy unigram/bigram mass, small uniform
        // floor so unseen words are penalized but not -inf.
        Interpolation {
            l3: 0.5,
            l2: 0.3,
            l1: 0.15,
            l0: 0.05,
        }
    }
}

/// Accumulates counts; call [`LmBuilder::build`] to freeze into an
/// [`NgramLm`].
#[derive(Default)]
pub struct LmBuilder {
    interner: Interner,
    unigrams: FxHashMap<Symbol, u64>,
    bigrams: FxHashMap<(Symbol, Symbol), u64>,
    trigrams: FxHashMap<(Symbol, Symbol, Symbol), u64>,
    total_unigrams: u64,
    sentences: u64,
}

impl LmBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one sentence (already split into word tokens). Tokens are
    /// lowercased; boundary markers are added internally.
    pub fn train_sentence<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.train_words(tokens.iter().map(|t| t.as_ref()))
    }

    /// The borrowed-token training core: interns every word straight from
    /// `&str` slices, allocating only when a token actually contains an
    /// ASCII uppercase letter (the fold is then unavoidable). Empty
    /// sentences are not counted.
    fn train_words<'x>(&mut self, tokens: impl Iterator<Item = &'x str>) {
        let bos = self.interner.get_or_intern(BOS);
        let eos = self.interner.get_or_intern(EOS);
        let mut syms = Vec::with_capacity(tokens.size_hint().0 + 4);
        syms.push(bos);
        syms.push(bos);
        for t in tokens {
            // Already-lowercase tokens (the common case: span-tokenized
            // clean sentences) intern without a per-token String.
            let sym = if t.bytes().any(|b| b.is_ascii_uppercase()) {
                self.interner.get_or_intern(&t.to_ascii_lowercase())
            } else {
                self.interner.get_or_intern(t)
            };
            syms.push(sym);
        }
        if syms.len() == 2 {
            return; // no word tokens — not a sentence
        }
        self.sentences += 1;
        syms.push(eos);
        syms.push(eos);

        // Unigrams over real tokens + one EOS (standard convention).
        for &s in &syms[2..syms.len() - 1] {
            *self.unigrams.entry(s).or_insert(0) += 1;
            self.total_unigrams += 1;
        }
        for w in syms.windows(2) {
            *self.bigrams.entry((w[0], w[1])).or_insert(0) += 1;
        }
        for w in syms.windows(3) {
            *self.trigrams.entry((w[0], w[1], w[2])).or_insert(0) += 1;
        }
    }

    /// Tokenize `text` with the social-media tokenizer and count every
    /// word token as one sentence per line. Runs on the zero-copy
    /// [`cryptext_tokenizer::word_spans`] path: token text is borrowed
    /// from `text` all the way into the interner.
    pub fn train_text(&mut self, text: &str) {
        for line in text.lines() {
            self.train_words(cryptext_tokenizer::word_spans(line));
        }
    }

    /// Freeze into an immutable model with the given interpolation.
    pub fn build(self, weights: Interpolation) -> NgramLm {
        let vocab_size = self.unigrams.len().max(1);
        // Content digest: XOR-accumulated per-unigram hashes (order
        // independent — FxHashMap iteration order is arbitrary) mixed with
        // the model's scalar shape and the interpolation weights. Two
        // replicas trained on the same corpus with the same weights agree;
        // any retrain that changes a count diverges. Cache namespaces key
        // on this so results scored by different models never alias.
        let mut fingerprint: u64 = 0;
        for (&sym, &count) in &self.unigrams {
            let word_hash = self
                .interner
                .with_resolved(sym, cryptext_common::hash::fx_hash_str)
                .unwrap_or(0);
            let mut h = cryptext_common::FxHasher::default();
            std::hash::Hasher::write_u64(&mut h, word_hash);
            std::hash::Hasher::write_u64(&mut h, count);
            fingerprint ^= std::hash::Hasher::finish(&h);
        }
        let mut h = cryptext_common::FxHasher::default();
        std::hash::Hasher::write_u64(&mut h, fingerprint);
        std::hash::Hasher::write_u64(&mut h, vocab_size as u64);
        std::hash::Hasher::write_u64(&mut h, self.total_unigrams);
        std::hash::Hasher::write_u64(&mut h, self.sentences);
        std::hash::Hasher::write_u64(&mut h, self.bigrams.len() as u64);
        std::hash::Hasher::write_u64(&mut h, self.trigrams.len() as u64);
        for w in [weights.l3, weights.l2, weights.l1, weights.l0] {
            std::hash::Hasher::write_u64(&mut h, w.to_bits());
        }
        let fingerprint = std::hash::Hasher::finish(&h);
        // History counts for symbols that never occur as unigrams (BOS in
        // practice) are a sum over every bigram starting with the symbol.
        // BOS is the history of *every* sentence-initial slot, so that sum
        // sat directly on the Normalization hot path — precompute it once.
        let mut history_fallback: FxHashMap<Symbol, u64> = FxHashMap::default();
        for (&(a, _), &c) in &self.bigrams {
            if !self.unigrams.contains_key(&a) {
                *history_fallback.entry(a).or_insert(0) += c;
            }
        }
        NgramLm {
            interner: self.interner,
            unigrams: self.unigrams,
            bigrams: self.bigrams,
            trigrams: self.trigrams,
            history_fallback,
            total_unigrams: self.total_unigrams.max(1),
            vocab_size,
            weights,
            sentences: self.sentences,
            fingerprint,
        }
    }
}

/// An immutable interpolated trigram language model.
pub struct NgramLm {
    interner: Interner,
    unigrams: FxHashMap<Symbol, u64>,
    bigrams: FxHashMap<(Symbol, Symbol), u64>,
    trigrams: FxHashMap<(Symbol, Symbol, Symbol), u64>,
    /// Precomputed history counts for symbols absent from `unigrams`
    /// (boundary markers); see [`LmBuilder::build`].
    history_fallback: FxHashMap<Symbol, u64>,
    total_unigrams: u64,
    vocab_size: usize,
    weights: Interpolation,
    sentences: u64,
    /// Build-time content digest; see [`LmBuilder::build`].
    fingerprint: u64,
}

impl NgramLm {
    /// Train from an iterator of sentences with default interpolation.
    /// Each sentence tokenizes through the zero-copy span path and interns
    /// directly from the borrowed text.
    pub fn train<'a>(sentences: impl IntoIterator<Item = &'a str>) -> Self {
        let mut b = LmBuilder::new();
        for s in sentences {
            b.train_words(cryptext_tokenizer::word_spans(s));
        }
        b.build(Interpolation::default())
    }

    /// Vocabulary size (distinct trained tokens incl. EOS).
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Number of training sentences.
    pub fn sentences(&self) -> u64 {
        self.sentences
    }

    /// A 64-bit content digest of the trained model (counts + weights):
    /// equal for identically-trained replicas, different after any
    /// retrain that changes a count. Cache namespaces include it so
    /// memoized scores never cross model identities.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Is `word` in the trained vocabulary?
    pub fn knows(&self, word: &str) -> bool {
        self.sym(word)
            .is_some_and(|s| self.unigrams.contains_key(&s))
    }

    fn sym(&self, word: &str) -> Option<Symbol> {
        // Candidate words on the Normalization hot path arrive already
        // lowercased; skip the per-call String allocation for them.
        if word.bytes().any(|b| b.is_ascii_uppercase()) {
            self.interner.get(&word.to_ascii_lowercase())
        } else {
            self.interner.get(word)
        }
    }

    fn unigram_count(&self, s: Option<Symbol>) -> u64 {
        s.and_then(|s| self.unigrams.get(&s)).copied().unwrap_or(0)
    }

    fn bigram_count(&self, a: Option<Symbol>, b: Option<Symbol>) -> u64 {
        match (a, b) {
            (Some(a), Some(b)) => self.bigrams.get(&(a, b)).copied().unwrap_or(0),
            _ => 0,
        }
    }

    fn trigram_count(&self, a: Option<Symbol>, b: Option<Symbol>, c: Option<Symbol>) -> u64 {
        match (a, b, c) {
            (Some(a), Some(b), Some(c)) => self.trigrams.get(&(a, b, c)).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Context-history count for bigram denominator: occurrences of `a` as
    /// a history token (= its unigram count, with BOS counted via bigram
    /// mass precomputed at build time).
    fn history_count(&self, a: Option<Symbol>) -> u64 {
        match a {
            None => 0,
            Some(s) => {
                // BOS never appears as a unigram; its bigram-mass sum was
                // folded into `history_fallback` by the builder.
                if let Some(&c) = self.unigrams.get(&s) {
                    c
                } else {
                    self.history_fallback.get(&s).copied().unwrap_or(0)
                }
            }
        }
    }

    /// Interpolated `P(w | a, b)` where `a, b` are the two history tokens
    /// (use `"<s>"` markers for sentence starts). Always > 0.
    pub fn prob(&self, w: &str, a: &str, b: &str) -> f64 {
        self.prob_syms(self.sym(w), self.sym(a), self.sym(b))
    }

    /// [`NgramLm::prob`] over pre-resolved symbols — the form every scoring
    /// path bottoms out in. Symbols fully determine the probability, so
    /// callers that resolve a window once (coherency, the memo cache) skip
    /// all repeated interner probes.
    fn prob_syms(&self, sw: Option<Symbol>, sa: Option<Symbol>, sb: Option<Symbol>) -> f64 {
        let tri_num = self.trigram_count(sa, sb, sw);
        let tri_den = self.bigram_count(sa, sb);
        let p3 = if tri_den > 0 {
            tri_num as f64 / tri_den as f64
        } else {
            0.0
        };

        let bi_num = self.bigram_count(sb, sw);
        let bi_den = self.history_count(sb);
        let p2 = if bi_den > 0 {
            bi_num as f64 / bi_den as f64
        } else {
            0.0
        };

        let p1 = self.unigram_count(sw) as f64 / self.total_unigrams as f64;
        let p0 = 1.0 / (self.vocab_size as f64 + 1.0);

        let w = &self.weights;
        (w.l3 * p3 + w.l2 * p2 + w.l1 * p1 + w.l0 * p0).max(f64::MIN_POSITIVE)
    }

    /// `ln P(w | a, b)`.
    pub fn log_prob(&self, w: &str, a: &str, b: &str) -> f64 {
        self.prob(w, a, b).ln()
    }

    #[inline]
    fn log_prob_syms(&self, w: Option<Symbol>, a: Option<Symbol>, b: Option<Symbol>) -> f64 {
        self.prob_syms(w, a, b).ln()
    }

    /// Resolve the coherency window — candidate plus the two context words
    /// on each side, padded with boundary markers — to symbols, once.
    fn resolve_window(
        &self,
        candidate: &str,
        left: &[&str],
        right: &[&str],
    ) -> [Option<Symbol>; 5] {
        let l1 = left.last().copied().unwrap_or(BOS);
        let l2 = if left.len() >= 2 {
            left[left.len() - 2]
        } else {
            BOS
        };
        let r1 = right.first().copied().unwrap_or(EOS);
        let r2 = if right.len() >= 2 { right[1] } else { EOS };
        [
            self.sym(candidate),
            self.sym(l2),
            self.sym(l1),
            self.sym(r1),
            self.sym(r2),
        ]
    }

    /// The coherency sum over a pre-resolved window (see
    /// [`NgramLm::coherency`] for the formula).
    fn coherency_syms(&self, [c, l2, l1, r1, r2]: [Option<Symbol>; 5]) -> f64 {
        self.log_prob_syms(c, l2, l1)
            + self.log_prob_syms(r1, l1, c)
            + self.log_prob_syms(r2, c, r1)
    }

    /// Masked coherency score for placing `candidate` in a slot with the
    /// given left and right context (nearest-first NOT required: pass
    /// contexts in natural reading order; missing context is padded with
    /// boundary markers).
    ///
    /// The score sums the log probability of each trigram window covering
    /// the masked slot:
    /// `ln P(c | l₋₂ l₋₁) + ln P(r₊₁ | l₋₁ c) + ln P(r₊₂ | c r₊₁)`.
    /// Higher is more coherent. Comparable **only** across candidates for
    /// the same slot.
    ///
    /// Resolves the whole window on every call; it is the reference
    /// [`Slot::score`] is pinned against, so it keeps its own resolution.
    pub fn coherency(&self, candidate: &str, left: &[&str], right: &[&str]) -> f64 {
        self.coherency_syms(self.resolve_window(candidate, left, right))
    }

    /// The slot scorer for one masked position: resolves the two context
    /// words on each side (padded with boundary markers, as in
    /// [`NgramLm::coherency`]) to symbols once, so that scoring each
    /// candidate with [`Slot::score`] costs one vocabulary probe.
    pub fn slot(&self, left: &[&str], right: &[&str]) -> Slot<'_> {
        let n = left.len();
        let l2 = if n >= 2 { left[n - 2] } else { BOS };
        let l1 = if n >= 1 { left[n - 1] } else { BOS };
        let r1 = right.first().copied().unwrap_or(EOS);
        let r2 = right.get(1).copied().unwrap_or(EOS);
        Slot {
            lm: self,
            context: [self.sym(l2), self.sym(l1), self.sym(r1), self.sym(r2)],
        }
    }

    /// `ln P(w)` under the unigram distribution (with floor).
    pub fn unigram_log_prob(&self, w: &str) -> f64 {
        self.unigram_log_prob_sym(self.sym(w))
    }

    fn unigram_log_prob_sym(&self, w: Option<Symbol>) -> f64 {
        let p = self.unigram_count(w) as f64 / self.total_unigrams as f64;
        let floor = self.weights.l0 / (self.vocab_size as f64 + 1.0);
        (p.max(floor)).ln()
    }

    /// Perplexity of a token sequence under the model (boundary markers
    /// added). Lower = better fit.
    pub fn perplexity<S: AsRef<str>>(&self, tokens: &[S]) -> f64 {
        if tokens.is_empty() {
            return f64::INFINITY;
        }
        let mut hist = (BOS.to_string(), BOS.to_string());
        let mut log_sum = 0.0;
        let mut n = 0usize;
        for t in tokens {
            let w = t.as_ref().to_ascii_lowercase();
            log_sum += self.log_prob(&w, &hist.0, &hist.1);
            n += 1;
            hist = (hist.1, w);
        }
        log_sum += self.log_prob(EOS, &hist.0, &hist.1);
        n += 1;
        (-log_sum / n as f64).exp()
    }
}

/// One masked position's context, resolved to symbols by
/// [`NgramLm::slot`].
#[derive(Debug, Clone, Copy)]
pub struct Slot<'m> {
    lm: &'m NgramLm,
    /// `[l₋₂, l₋₁, r₊₁, r₊₂]`.
    context: [Option<Symbol>; 4],
}

impl Slot<'_> {
    /// Score `candidate` in this slot: its coherency, memoized through
    /// `memo`, and its unigram log prior. Bit-identical to
    /// `(lm.coherency(candidate, left, right), lm.unigram_log_prob(candidate))`
    /// for the `left` and `right` the slot was built from. The memo key is
    /// the resolved symbol window, which fully determines the score (all
    /// out-of-vocabulary words share one "no symbol" state), so a
    /// candidate that recurs across the tokens of a text in the same
    /// context is scored once.
    pub fn score(&self, candidate: &str, memo: &mut CoherencyCache) -> (f64, f64) {
        let c = self.lm.sym(candidate);
        let [l2, l1, r1, r2] = self.context;
        let window = [c, l2, l1, r1, r2];
        let key = CoherencyCache::key_of(window);
        let coherency = match memo.get(key) {
            Some(v) => v,
            None => {
                let v = self.lm.coherency_syms(window);
                memo.put(key, v);
                v
            }
        };
        (coherency, self.lm.unigram_log_prob_sym(c))
    }
}

/// Number of slots in a [`CoherencyCache`] (power of two). A text rarely
/// produces more than a few hundred distinct `(context, candidate)`
/// windows, so 512 slots with a short probe window keeps the hit rate high
/// at 12 KiB per thread.
const COHERENCY_CACHE_SLOTS: usize = 512;
/// Linear-probe window before giving up on a slot (missing the cache is
/// always safe — the score is recomputed).
const COHERENCY_CACHE_PROBES: usize = 8;

#[derive(Clone, Copy)]
struct CoherencySlot {
    key: [u32; 5],
    gen: u32,
    val: f64,
}

/// Generation-marked coherency memo for [`Slot::score`].
///
/// Keys are resolved symbol windows (candidate + four context symbols), so
/// a hit returns the exact `f64` [`NgramLm::coherency`] computes. Starting a
/// new text is one [`CoherencyCache::begin`] generation bump — no clearing,
/// mirroring the Look Up engine's visited-set scratch. Stale entries from
/// earlier generations are simply treated as empty slots.
///
/// Reuse one instance per thread (or per bulk request); storage is
/// allocated lazily on first use.
#[derive(Default)]
pub struct CoherencyCache {
    slots: Vec<CoherencySlot>,
    gen: u32,
}

impl CoherencyCache {
    /// Fresh cache (allocates lazily on first probe).
    pub fn new() -> Self {
        CoherencyCache::default()
    }

    /// Start a new generation (typically: a new text). O(1) — entries from
    /// earlier generations become invisible without being cleared.
    pub fn begin(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation counter wrapped: old marks could alias. Reset the
            // slot generations once per 2^32 texts.
            for slot in &mut self.slots {
                slot.gen = 0;
            }
            self.gen = 1;
        }
    }

    /// Pack a resolved window into the cache key; `u32::MAX` encodes the
    /// shared out-of-vocabulary state (symbols are dense vector indices, so
    /// the sentinel cannot collide with a real symbol).
    fn key_of(window: [Option<Symbol>; 5]) -> [u32; 5] {
        window.map(|s| s.map_or(u32::MAX, |s| s.0))
    }

    #[inline]
    fn slot_index(key: [u32; 5]) -> usize {
        // FxHash-style multiply-mix over the five words.
        let mut h: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        for w in key {
            h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
        (h >> 32) as usize & (COHERENCY_CACHE_SLOTS - 1)
    }

    fn get(&mut self, key: [u32; 5]) -> Option<f64> {
        if self.gen == 0 {
            self.begin(); // used without an explicit begin(): lazily start
        }
        if self.slots.is_empty() {
            self.slots = vec![
                CoherencySlot {
                    key: [0; 5],
                    gen: 0,
                    val: 0.0,
                };
                COHERENCY_CACHE_SLOTS
            ];
        }
        let start = Self::slot_index(key);
        for i in 0..COHERENCY_CACHE_PROBES {
            let slot = &self.slots[(start + i) & (COHERENCY_CACHE_SLOTS - 1)];
            if slot.gen == self.gen && slot.key == key {
                return Some(slot.val);
            }
        }
        None
    }

    fn put(&mut self, key: [u32; 5], val: f64) {
        debug_assert!(!self.slots.is_empty(), "get() runs first and allocates");
        let start = Self::slot_index(key);
        let mut victim = start & (COHERENCY_CACHE_SLOTS - 1);
        for i in 0..COHERENCY_CACHE_PROBES {
            let idx = (start + i) & (COHERENCY_CACHE_SLOTS - 1);
            if self.slots[idx].gen != self.gen {
                victim = idx;
                break;
            }
        }
        // All probes current-generation: overwrite the home slot. Losing a
        // memoized entry only costs a recompute.
        self.slots[victim] = CoherencySlot {
            key,
            gen: self.gen,
            val,
        };
    }
}

impl std::fmt::Debug for CoherencyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoherencyCache")
            .field("slots", &self.slots.len())
            .field("gen", &self.gen)
            .finish()
    }
}

impl std::fmt::Debug for NgramLm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NgramLm")
            .field("vocab", &self.vocab_size)
            .field("unigrams", &self.unigrams.len())
            .field("bigrams", &self.bigrams.len())
            .field("trigrams", &self.trigrams.len())
            .field("sentences", &self.sentences)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn political_lm() -> NgramLm {
        NgramLm::train([
            "biden belongs to the democrats",
            "trump belongs to the republicans",
            "the democrats proposed the bill",
            "the republicans blocked the bill",
            "the vaccine mandate was announced",
            "people discussed the vaccine mandate online",
            "the democrats and the republicans argued",
        ])
    }

    #[test]
    fn knows_vocabulary_case_insensitively() {
        let lm = political_lm();
        assert!(lm.knows("democrats"));
        assert!(lm.knows("DEMOCRATS"));
        assert!(!lm.knows("demokrats"));
        assert!(lm.vocab_size() > 10);
        assert_eq!(lm.sentences(), 7);
    }

    #[test]
    fn probabilities_are_positive_and_at_most_one() {
        let lm = political_lm();
        for w in ["democrats", "unknownzzz", "the", "bill"] {
            let p = lm.prob(w, "to", "the");
            assert!(p > 0.0, "{w}: {p}");
            assert!(p <= 1.0, "{w}: {p}");
        }
    }

    #[test]
    fn seen_trigram_beats_unseen() {
        let lm = political_lm();
        let seen = lm.prob("democrats", "to", "the");
        let unseen = lm.prob("mandate", "to", "the");
        assert!(seen > unseen, "{seen} vs {unseen}");
    }

    #[test]
    fn coherency_prefers_contextual_fit() {
        let lm = political_lm();
        // Slot: "biden belongs to the ____"
        let left = ["belongs", "to", "the"];
        let demo = lm.coherency("democrats", &left, &[]);
        let mandate = lm.coherency("mandate", &left, &[]);
        let unknown = lm.coherency("zzzz", &left, &[]);
        assert!(demo > mandate, "{demo} vs {mandate}");
        assert!(mandate > unknown, "{mandate} vs {unknown}");
    }

    #[test]
    fn coherency_uses_right_context() {
        let lm = political_lm();
        // Slot: "the ____ mandate was announced"
        let vaccine = lm.coherency("vaccine", &["the"], &["mandate", "was"]);
        let bill = lm.coherency("bill", &["the"], &["mandate", "was"]);
        assert!(vaccine > bill, "{vaccine} vs {bill}");
    }

    #[test]
    fn coherency_handles_empty_context() {
        let lm = political_lm();
        let a = lm.coherency("the", &[], &[]);
        let b = lm.coherency("zzzz", &[], &[]);
        assert!(a.is_finite() && b.is_finite());
        assert!(a > b, "frequent word beats unknown even bare");
    }

    #[test]
    fn perplexity_lower_on_training_like_text() {
        let lm = political_lm();
        let fit = lm.perplexity(&["the", "democrats", "proposed", "the", "bill"]);
        let misfit = lm.perplexity(&["bill", "the", "proposed", "democrats", "the"]);
        assert!(fit < misfit, "{fit} vs {misfit}");
        let unknown = lm.perplexity(&["qqq", "www", "eee"]);
        assert!(misfit < unknown);
    }

    #[test]
    fn perplexity_of_empty_is_infinite() {
        let lm = political_lm();
        assert!(lm.perplexity::<&str>(&[]).is_infinite());
    }

    #[test]
    fn empty_model_does_not_panic() {
        let lm = LmBuilder::new().build(Interpolation::default());
        assert!(lm.prob("x", "a", "b") > 0.0);
        assert!(lm.coherency("x", &["a"], &["b"]).is_finite());
        assert_eq!(lm.vocab_size(), 1, "clamped to avoid div-by-zero");
    }

    #[test]
    fn fingerprint_is_content_derived() {
        let a = NgramLm::train(["the democrats won", "the vaccine mandate"]);
        let b = NgramLm::train(["the democrats won", "the vaccine mandate"]);
        let c = NgramLm::train(["the democrats won"]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "replicas agree");
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "different corpus diverges"
        );
        let reweighted = {
            let mut builder = LmBuilder::new();
            builder.train_text("the democrats won\nthe vaccine mandate");
            builder.build(Interpolation {
                l3: 0.4,
                l2: 0.4,
                l1: 0.15,
                l0: 0.05,
            })
        };
        assert_ne!(
            a.fingerprint(),
            reweighted.fingerprint(),
            "weights are part of the identity"
        );
    }

    #[test]
    fn builder_skips_empty_sentences() {
        let mut b = LmBuilder::new();
        b.train_sentence::<&str>(&[]);
        let lm = b.build(Interpolation::default());
        assert_eq!(lm.sentences(), 0);
    }

    #[test]
    fn train_text_splits_lines() {
        let mut b = LmBuilder::new();
        b.train_text("the cat sat\nthe dog ran");
        let lm = b.build(Interpolation::default());
        assert_eq!(lm.sentences(), 2);
        assert!(lm.knows("cat"));
        assert!(lm.knows("dog"));
    }

    #[test]
    fn borrowed_span_training_matches_owned_token_training() {
        // The zero-copy train_text path (conditional fold, interning from
        // borrowed text) must score bit-identically to a reference built
        // from owned, *pre-folded* token Strings. Pre-folding matters:
        // the reference side's internal conditional fold is then a no-op
        // by construction, so a bug in the skip-allocation fold on the
        // span side cannot cancel out — mixed-case inputs would diverge.
        // (Span-vs-owned tokenization equivalence is pinned separately in
        // cryptext-tokenizer's word_spans differential test.)
        let texts = [
            "the demokRATs proposed the bill",
            "check https://x.com the vacc1ne mandate!! 123",
            "@user thinking about suic1de 🙂 ok",
            "",
            "!!! 🙂 …",
            "CASE Folding MiXeD tokens",
        ];
        let mut spans = LmBuilder::new();
        let mut owned = LmBuilder::new();
        for t in texts {
            spans.train_text(t);
            for line in t.lines() {
                let lowered: Vec<String> = cryptext_tokenizer::words(line)
                    .iter()
                    .map(|w| w.to_ascii_lowercase())
                    .collect();
                owned.train_sentence(&lowered);
            }
        }
        let spans = spans.build(Interpolation::default());
        let owned = owned.build(Interpolation::default());
        assert_eq!(spans.sentences(), owned.sentences());
        assert_eq!(spans.vocab_size(), owned.vocab_size());
        // Word-less lines (punctuation/emoji only) are not sentences.
        assert_eq!(spans.sentences(), 4);
        for (word, left, right) in [
            ("democrats", vec!["the"], vec!["proposed"]),
            ("vacc1ne", vec!["the"], vec!["mandate"]),
            ("tokens", vec!["case", "folding"], vec![]),
            ("unknownzzz", vec![], vec![]),
        ] {
            assert_eq!(
                spans.coherency(word, &left, &right).to_bits(),
                owned.coherency(word, &left, &right).to_bits(),
                "coherency({word:?})"
            );
            assert_eq!(
                spans.unigram_log_prob(word).to_bits(),
                owned.unigram_log_prob(word).to_bits()
            );
        }
    }

    /// `lm.coherency` and `lm.unigram_log_prob` as bit patterns: what
    /// [`Slot::score`] must return.
    fn reference_bits(lm: &NgramLm, cand: &str, left: &[&str], right: &[&str]) -> (u64, u64) {
        (
            lm.coherency(cand, left, right).to_bits(),
            lm.unigram_log_prob(cand).to_bits(),
        )
    }

    fn bits((coherency, prior): (f64, f64)) -> (u64, u64) {
        (coherency.to_bits(), prior.to_bits())
    }

    #[test]
    fn slot_scores_are_bit_identical() {
        let lm = political_lm();
        let mut cache = CoherencyCache::new();
        cache.begin();
        let windows: Vec<(&str, Vec<&str>, Vec<&str>)> = vec![
            ("democrats", vec!["belongs", "to", "the"], vec![]),
            ("vaccine", vec!["the"], vec!["mandate", "was"]),
            ("zzzz", vec![], vec![]),
            ("DEMOCRATS", vec!["the"], vec!["proposed"]),
            ("unknownzz", vec!["alsounknown"], vec!["the"]),
        ];
        for (cand, left, right) in &windows {
            let expect = reference_bits(&lm, cand, left, right);
            let slot = lm.slot(left, right);
            assert_eq!(bits(slot.score(cand, &mut cache)), expect, "{cand}: miss");
            assert_eq!(bits(slot.score(cand, &mut cache)), expect, "{cand}: hit");
        }
    }

    #[test]
    fn cache_survives_generation_turnover() {
        let lm = political_lm();
        let mut cache = CoherencyCache::new();
        let left = ["the"];
        let slot = lm.slot(&left, &[]);
        for text in 0..50 {
            cache.begin();
            // Same windows every "text": hits within a generation, fresh
            // entries across generations, always the uncached value.
            for cand in ["democrats", "republicans", "neverseen"] {
                let expect = reference_bits(&lm, cand, &left, &[]);
                let got = bits(slot.score(cand, &mut cache));
                assert_eq!(expect, got, "text {text}, {cand}");
            }
        }
    }

    #[test]
    fn cache_distinguishes_oov_from_vocabulary_words() {
        // All OOV words share a key slot component; two different OOV words
        // in the same context legitimately share one (identical) score, but
        // an OOV word must never collide with a vocabulary word.
        let lm = political_lm();
        let mut cache = CoherencyCache::new();
        cache.begin();
        let slot = lm.slot(&["the"], &[]);
        let (oov_a, _) = slot.score("qqqq", &mut cache);
        let (oov_b, _) = slot.score("wwww", &mut cache);
        let (known, _) = slot.score("democrats", &mut cache);
        assert_eq!(oov_a.to_bits(), oov_b.to_bits(), "OOV words score alike");
        assert_ne!(known.to_bits(), oov_a.to_bits());
        assert_eq!(
            known.to_bits(),
            lm.coherency("democrats", &["the"], &[]).to_bits()
        );
    }

    #[test]
    fn bos_history_precompute_matches_bigram_mass() {
        // P(w | <s>, <s>) uses the BOS history count; the precomputed sum
        // must reproduce the brute-force bigram scan the seed used, which
        // existing ordering tests exercise only implicitly.
        let lm = political_lm();
        let sentence_starts = lm.prob("the", BOS, BOS)
            + lm.prob("biden", BOS, BOS)
            + lm.prob("trump", BOS, BOS)
            + lm.prob("people", BOS, BOS);
        // The four observed sentence-initial words carry most of the mass.
        assert!(sentence_starts > 0.5, "{sentence_starts}");
        assert!(lm.prob("mandate", BOS, BOS) < lm.prob("the", BOS, BOS));
    }

    #[test]
    fn unigram_log_prob_orders_by_frequency() {
        let lm = political_lm();
        assert!(lm.unigram_log_prob("the") > lm.unigram_log_prob("biden"));
        assert!(lm.unigram_log_prob("biden") > lm.unigram_log_prob("neverseen"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The conditional distribution over the full vocabulary (plus one
        /// unseen word) never sums above 1 + l0 (the uniform floor leaks at
        /// most l0 of extra mass to out-of-vocabulary words).
        #[test]
        fn conditional_mass_bounded(seed_sentences in proptest::collection::vec(
            proptest::collection::vec("[a-c]", 1..5), 1..6)
        ) {
            let mut b = LmBuilder::new();
            for s in &seed_sentences {
                b.train_sentence(s);
            }
            let lm = b.build(Interpolation::default());
            let vocab = ["a", "b", "c", "</s>"];
            let mass: f64 = vocab.iter().map(|w| lm.prob(w, "a", "b")).sum();
            prop_assert!(mass <= 1.0 + 0.05 + 1e-9, "mass {mass}");
        }

        /// Probabilities are always finite and positive regardless of input.
        #[test]
        fn prob_total(w in "\\PC{0,8}", a in "\\PC{0,8}", b in "\\PC{0,8}") {
            let lm = NgramLm::train(["hello world", "world hello again"]);
            let p = lm.prob(&w, &a, &b);
            prop_assert!(p.is_finite() && p > 0.0);
            prop_assert!(lm.coherency(&w, &[&a], &[&b]).is_finite());
        }

        /// Slot scoring is bit-identical to `coherency` plus
        /// `unigram_log_prob`, on the first (memo-filling) call and on the
        /// memoized one, over random models, contexts of 0–3 words per
        /// side and repeat patterns, including memo collisions, evictions
        /// and generation reuse. Candidates and context words mix
        /// in-vocabulary words (`[a-e]`), out-of-vocabulary ones (with
        /// `f`) and ASCII-uppercase spellings of both. Normalization's
        /// byte-identity pins compare against a naive path that shares
        /// this model, so this property is what catches a slip in slot
        /// scoring.
        #[test]
        fn slot_score_equals_coherency_and_prior(
            seed_sentences in proptest::collection::vec(
                proptest::collection::vec("[a-e]{1,3}", 1..6), 1..8),
            queries in proptest::collection::vec(
                ("[a-fA-F]{1,3}", proptest::collection::vec("[a-fA-F]{1,3}", 0..4),
                 proptest::collection::vec("[a-fA-F]{1,3}", 0..4)), 1..40),
            texts in 1usize..4,
        ) {
            let mut b = LmBuilder::new();
            for s in &seed_sentences {
                b.train_sentence(s);
            }
            let lm = b.build(Interpolation::default());
            let mut cache = CoherencyCache::new();
            for _ in 0..texts {
                cache.begin();
                for (cand, left, right) in &queries {
                    let left: Vec<&str> = left.iter().map(|s| s.as_str()).collect();
                    let right: Vec<&str> = right.iter().map(|s| s.as_str()).collect();
                    let coherency = lm.coherency(cand, &left, &right).to_bits();
                    let prior = lm.unigram_log_prob(cand).to_bits();
                    let slot = lm.slot(&left, &right);
                    for call in ["first", "memoized"] {
                        let (c, p) = slot.score(cand, &mut cache);
                        prop_assert_eq!((c.to_bits(), p.to_bits()), (coherency, prior),
                            "{} call: {} | {:?} | {:?}", call, cand, left, right);
                    }
                }
            }
        }
    }
}
