//! Perturbation (§III-D): rewriting text with *database* perturbations.
//!
//! Unlike the machine baselines in `cryptext-attacks`, every replacement
//! here is drawn from the token database via Look Up — i.e. it was
//! actually written by a human somewhere in the corpus. That is the
//! paper's headline claim for this function: "perturbations utilized by
//! CrypText are guaranteed to be observable in human-written texts."
//!
//! # Two paths, one outcome
//!
//! [`Perturber::perturb`] is the reference: it tokenizes into owned
//! tokens and runs one allocating Look Up per chosen token. The service
//! serves `/perturb` through a fast path instead. A token's choice list
//! depends only on the token, `k`, `d`, the case mode, `observed_only`
//! and the data generation — never on the seed — so the service caches
//! each list (`ChoiceList`) and a repeated token skips the phonetic walk.
//! A miss builds the list from [`for_each_hit`]'s borrowed records
//! (`collect_choices`). The rewrite loop (`perturb_with`) reads borrowed
//! token spans, makes exactly the reference's `SplitMix64` draws and
//! splices once. Both paths share the choice rule (`is_choice` over
//! `PerturbParams::lookup_params`) and Look Up's hit order, and a
//! proptest in `service.rs` pins their outcomes byte for byte.

use std::ops::Range;
use std::sync::Arc;

use cryptext_common::{Result, SplitMix64};
use cryptext_tokenizer::{splice, tokenize, tokenize_spans, Token};

use crate::database::TokenDatabase;
use crate::lookup::{for_each_hit, look_up, HitKey, LookupParams, LookupScratch};
use crate::store::TokenStore;

/// Parameters of a Perturbation pass.
#[derive(Debug, Clone, Copy)]
pub struct PerturbParams {
    /// Manipulation ratio `r`: fraction of eligible tokens to rewrite
    /// (the paper's GUI offers 15%, 25%, 50%).
    pub ratio: f64,
    /// Phonetic level for Look Up.
    pub k: usize,
    /// Edit-distance bound for Look Up.
    pub d: usize,
    /// Case-sensitive mode: when false, a perturbation of any casing of
    /// the token is acceptable (§III-D offers both).
    pub case_sensitive: bool,
    /// Only replacements observed in a corpus (count > 0). On by default —
    /// this is the "guaranteed human-written" property.
    pub observed_only: bool,
    /// RNG seed; equal seeds give identical rewrites.
    pub seed: u64,
}

impl PerturbParams {
    /// Ratio `r` with paper-default `k = 1, d = 3`.
    pub fn with_ratio(ratio: f64) -> Self {
        PerturbParams {
            ratio,
            k: 1,
            d: 3,
            case_sensitive: false,
            observed_only: true,
            seed: 42,
        }
    }

    /// Builder: set the seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The Look Up behind every choice list: identity spellings dropped,
    /// and only corpus-observed tokens when `observed_only` is set.
    pub(crate) fn lookup_params(&self) -> LookupParams {
        let params = LookupParams::new(self.k, self.d).perturbations_only();
        if self.observed_only {
            params.observed()
        } else {
            params
        }
    }
}

/// Is a Look Up hit spelled `hit` a perturbation choice for `token`?
///
/// A *different* dictionary word is not a perturbation of this token — it
/// is a different word that merely sounds alike ("the" vs "they"). Real
/// perturbations are either out-of-dictionary spellings or case-emphasis
/// variants of the same word (the latter only in case-insensitive mode,
/// per §III-D's case-sensitivity switch).
fn is_choice(token: &str, hit: &str, hit_is_english: bool, case_sensitive: bool) -> bool {
    if hit.eq_ignore_ascii_case(token) {
        !case_sensitive && hit != token
    } else {
        !hit_is_english
    }
}

/// One applied replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedPerturbation {
    /// Original token.
    pub original: String,
    /// Database perturbation that replaced it.
    pub replacement: String,
    /// Byte span in the source text (Fig. 3 highlights these).
    pub span: std::ops::Range<usize>,
}

/// Result of a Perturbation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerturbationOutcome {
    /// The rewritten text.
    pub text: String,
    /// What was replaced, in span order.
    pub replacements: Vec<AppliedPerturbation>,
    /// Tokens sampled for manipulation that had no perturbation in the
    /// database (counted toward `r` but left unchanged).
    pub misses: usize,
}

/// The Perturbation engine, generic over the storage backend.
pub struct Perturber<'a, S: TokenStore = TokenDatabase> {
    db: &'a S,
}

impl<'a, S: TokenStore> Perturber<'a, S> {
    /// Build over a token store.
    pub fn new(db: &'a S) -> Self {
        Perturber { db }
    }

    /// The perturbation choices available for one token (excluding
    /// identity spellings).
    pub fn choices_for(&self, token: &str, params: PerturbParams) -> Result<Vec<String>> {
        let hits = look_up(self.db, token, params.lookup_params())?;
        Ok(hits
            .into_iter()
            .filter(|h| is_choice(token, &h.token, h.is_english, params.case_sensitive))
            .map(|h| h.token)
            .collect())
    }

    /// Rewrite `text` at manipulation ratio `r` (§III-D, Fig. 3).
    pub fn perturb(&self, text: &str, params: PerturbParams) -> Result<PerturbationOutcome> {
        TokenDatabase::check_level(params.k)?;
        let mut rng = SplitMix64::new(params.seed);
        let tokens = tokenize(text);
        let eligible: Vec<&Token> = tokens
            .iter()
            .filter(|t| t.is_word() && t.text.chars().count() >= 3)
            .collect();
        if eligible.is_empty() {
            return Ok(PerturbationOutcome {
                text: text.to_string(),
                replacements: Vec::new(),
                misses: 0,
            });
        }
        let n_target = ((params.ratio.clamp(0.0, 1.0) * eligible.len() as f64).ceil() as usize)
            .min(eligible.len());
        let mut chosen = rng.sample_indices(eligible.len(), n_target);
        chosen.sort_unstable();

        let mut replacements: Vec<AppliedPerturbation> = Vec::new();
        let mut misses = 0usize;
        for idx in chosen {
            let tok = eligible[idx];
            let choices = self.choices_for(&tok.text, params)?;
            match rng.choose(&choices) {
                Some(replacement) => replacements.push(AppliedPerturbation {
                    original: tok.text.clone(),
                    replacement: replacement.clone(),
                    span: tok.span.clone(),
                }),
                None => misses += 1,
            }
        }
        let splices: Vec<(std::ops::Range<usize>, String)> = replacements
            .iter()
            .map(|r| (r.span.clone(), r.replacement.clone()))
            .collect();
        Ok(PerturbationOutcome {
            text: splice(text, &splices),
            replacements,
            misses,
        })
    }
}

/// One token's perturbation choices in Look Up's hit order — exactly
/// [`Perturber::choices_for`]'s list — packed into a single allocation: a
/// `u32` count `n`, then `n` `u32` end offsets, then the choices' UTF-8
/// bytes back to back. Cloning shares the allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChoiceList(Arc<[u8]>);

impl ChoiceList {
    const WORD: usize = std::mem::size_of::<u32>();

    fn pack(choices: &[HitKey<'_>]) -> Self {
        let text_len: usize = choices.iter().map(|c| c.token().len()).sum();
        let mut packed = Vec::with_capacity(Self::WORD * (1 + choices.len()) + text_len);
        let as_u32 = |n: usize| u32::try_from(n).expect("a choice list under 4 GiB");
        packed.extend_from_slice(&as_u32(choices.len()).to_ne_bytes());
        let mut end = 0;
        for c in choices {
            end += c.token().len();
            packed.extend_from_slice(&as_u32(end).to_ne_bytes());
        }
        for c in choices {
            packed.extend_from_slice(c.token().as_bytes());
        }
        ChoiceList(packed.into())
    }

    /// The `u32` at word index `i`.
    fn word(&self, i: usize) -> usize {
        let at = i * Self::WORD;
        let bytes = self.0[at..at + Self::WORD].try_into().expect("one word");
        u32::from_ne_bytes(bytes) as usize
    }

    /// How many choices the token has.
    pub(crate) fn len(&self) -> usize {
        self.word(0)
    }

    /// Does the token have no choice at all (a Perturbation miss)?
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Choice `i`, in hit order.
    pub(crate) fn get(&self, i: usize) -> &str {
        let n = self.len();
        assert!(i < n, "choice {i} of {n}");
        let text = Self::WORD * (1 + n);
        let start = if i == 0 { 0 } else { self.word(i) };
        let end = self.word(i + 1);
        std::str::from_utf8(&self.0[text + start..text + end]).expect("packed from &str")
    }
}

/// Build `token`'s [`ChoiceList`] from [`for_each_hit`]'s borrowed records:
/// the same Look Up and choice rule as [`Perturber::choices_for`], sorted
/// by Look Up's hit order, with no owned hit or `String` per choice. Any
/// stage bundle attached to `scratch` times the walk as a direct Look Up;
/// the service detaches it and times the whole build instead.
pub(crate) fn collect_choices<S: TokenStore>(
    db: &S,
    token: &str,
    params: PerturbParams,
    scratch: &mut LookupScratch,
) -> Result<ChoiceList> {
    let mut picked: Vec<HitKey> = Vec::new();
    for_each_hit(
        db,
        token,
        params.lookup_params(),
        scratch,
        |_, rec, distance| {
            if is_choice(token, &rec.token, rec.is_english, params.case_sensitive) {
                picked.push(HitKey::new(distance, rec.count, &rec.token));
            }
        },
    )?;
    // One record per token string, so the keys are distinct and an
    // unstable sort gives Look Up's order.
    picked.sort_unstable();
    Ok(ChoiceList::pack(&picked))
}

/// Rewrite `text` exactly as [`Perturber::perturb`] does — the same
/// eligible tokens, the same `SplitMix64` draws (`sample_indices`, then
/// one `index(len)` per chosen token whose list is non-empty) and the same
/// outcome bytes — reading each chosen token's list from `choices` and
/// splicing the replacements into one `String` as it goes.
pub(crate) fn perturb_with(
    text: &str,
    params: PerturbParams,
    mut choices: impl FnMut(&str) -> Result<ChoiceList>,
) -> Result<PerturbationOutcome> {
    TokenDatabase::check_level(params.k)?;
    let mut rng = SplitMix64::new(params.seed);
    // Eligibility and the target count repeat the reference's rules
    // verbatim; the service proptest pins the two paths together.
    let eligible: Vec<Range<usize>> = tokenize_spans(text)
        .into_iter()
        .filter(|t| t.is_word() && t.text(text).chars().count() >= 3)
        .map(|t| t.span)
        .collect();
    let n_target = ((params.ratio.clamp(0.0, 1.0) * eligible.len() as f64).ceil() as usize)
        .min(eligible.len());
    let mut chosen = rng.sample_indices(eligible.len(), n_target);
    chosen.sort_unstable();

    let mut out = String::with_capacity(text.len() + 16);
    let mut cursor = 0;
    let mut replacements = Vec::with_capacity(chosen.len());
    let mut misses = 0;
    for idx in chosen {
        let span = eligible[idx].clone();
        let original = &text[span.clone()];
        let list = choices(original)?;
        if list.is_empty() {
            misses += 1;
            continue;
        }
        let replacement = list.get(rng.index(list.len()));
        out.push_str(&text[cursor..span.start]);
        out.push_str(replacement);
        cursor = span.end;
        replacements.push(AppliedPerturbation {
            original: original.to_string(),
            replacement: replacement.to_string(),
            span,
        });
    }
    out.push_str(&text[cursor..]);
    Ok(PerturbationOutcome {
        text: out,
        replacements,
        misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TokenDatabase {
        let mut db = TokenDatabase::in_memory();
        for s in [
            "the demokRATs and democrats argue",
            "the dem0crats lie",
            "repubLIEcans and republicans fight",
            "republic@@ns everywhere",
            "the vacc1ne and the vaccine",
            "vac-cine skeptics",
        ] {
            db.ingest_text(s);
        }
        db
    }

    #[test]
    fn replacements_come_from_database() {
        let d = db();
        let p = Perturber::new(&d);
        let out = p
            .perturb(
                "Biden belongs to the democrats",
                PerturbParams::with_ratio(1.0),
            )
            .unwrap();
        for r in &out.replacements {
            assert!(
                d.get(&r.replacement).is_some(),
                "{} is a stored human-written token",
                r.replacement
            );
            assert!(d.get(&r.replacement).unwrap().count > 0, "observed");
            assert_ne!(r.replacement, r.original);
        }
        // "democrats" must have been rewritten to one of its stored variants.
        let demo = out
            .replacements
            .iter()
            .find(|r| r.original == "democrats")
            .expect("democrats perturbed");
        assert!(["demokRATs", "dem0crats"].contains(&demo.replacement.as_str()));
    }

    #[test]
    fn ratio_controls_attempt_count() {
        let d = db();
        let p = Perturber::new(&d);
        let text =
            "democrats republicans vaccine democrats republicans vaccine democrats republicans";
        for (ratio, expected) in [(0.25, 2), (0.5, 4), (1.0, 8)] {
            let out = p.perturb(text, PerturbParams::with_ratio(ratio)).unwrap();
            assert_eq!(
                out.replacements.len() + out.misses,
                expected,
                "ratio {ratio}"
            );
        }
    }

    #[test]
    fn zero_ratio_is_identity() {
        let d = db();
        let p = Perturber::new(&d);
        let text = "the democrats and republicans";
        let out = p.perturb(text, PerturbParams::with_ratio(0.0)).unwrap();
        assert_eq!(out.text, text);
        assert!(out.replacements.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let d = db();
        let p = Perturber::new(&d);
        let text = "democrats and republicans discuss the vaccine at length";
        let a = p
            .perturb(text, PerturbParams::with_ratio(0.5).seeded(7))
            .unwrap();
        let b = p
            .perturb(text, PerturbParams::with_ratio(0.5).seeded(7))
            .unwrap();
        assert_eq!(a, b);
        let c = p
            .perturb(text, PerturbParams::with_ratio(0.5).seeded(8))
            .unwrap();
        // Different seed → (almost surely) different outcome.
        assert!(a != c || a.replacements.is_empty());
    }

    #[test]
    fn tokens_without_perturbations_count_as_misses() {
        let d = db();
        let p = Perturber::new(&d);
        let out = p
            .perturb("zebra crossing ahead", PerturbParams::with_ratio(1.0))
            .unwrap();
        assert_eq!(out.replacements.len(), 0);
        assert_eq!(out.misses, 3);
        assert_eq!(out.text, "zebra crossing ahead");
    }

    #[test]
    fn spans_reference_original_text() {
        let d = db();
        let p = Perturber::new(&d);
        let text = "the democrats met the republicans";
        let out = p.perturb(text, PerturbParams::with_ratio(1.0)).unwrap();
        for r in &out.replacements {
            assert_eq!(&text[r.span.clone()], r.original);
        }
    }

    #[test]
    fn choices_exclude_identity_spellings() {
        let d = db();
        let p = Perturber::new(&d);
        let choices = p
            .choices_for("democrats", PerturbParams::with_ratio(1.0))
            .unwrap();
        assert!(!choices
            .iter()
            .any(|c| c.eq_ignore_ascii_case("democrats") && c == "democrats"));
        assert!(choices.contains(&"demokRATs".to_string()));
    }

    #[test]
    fn invalid_level_is_error() {
        let d = db();
        let p = Perturber::new(&d);
        let params = PerturbParams {
            k: 9,
            ..PerturbParams::with_ratio(0.5)
        };
        assert!(p.perturb("anything", params).is_err());
    }

    #[test]
    fn empty_text_ok() {
        let d = db();
        let p = Perturber::new(&d);
        let out = p.perturb("", PerturbParams::with_ratio(0.5)).unwrap();
        assert_eq!(out.text, "");
    }

    #[test]
    fn packed_lists_read_back_in_order() {
        let keys = [
            HitKey::new(1, 9, "dem0crats"),
            HitKey::new(1, 2, "demokRATs"),
            HitKey::new(2, 5, "vãccine"),
        ];
        let list = ChoiceList::pack(&keys);
        assert_eq!(list.len(), 3);
        let read: Vec<&str> = (0..list.len()).map(|i| list.get(i)).collect();
        assert_eq!(read, ["dem0crats", "demokRATs", "vãccine"]);
        let empty = ChoiceList::pack(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn collected_lists_equal_choices_for() {
        let d = db();
        let p = Perturber::new(&d);
        let mut scratch = LookupScratch::new();
        for token in [
            "democrats",
            "republicans",
            "vaccine",
            "the",
            "zebra",
            "DEMOCRATS",
        ] {
            for case_sensitive in [false, true] {
                for observed_only in [false, true] {
                    let params = PerturbParams {
                        k: 1,
                        d: 3,
                        case_sensitive,
                        observed_only,
                        ..PerturbParams::with_ratio(1.0)
                    };
                    let want = p.choices_for(token, params).unwrap();
                    let list = collect_choices(&d, token, params, &mut scratch).unwrap();
                    let got: Vec<&str> = (0..list.len()).map(|i| list.get(i)).collect();
                    assert_eq!(got, want, "{token:?} {params:?}");
                }
            }
        }
    }
}
