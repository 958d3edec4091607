//! # cryptext-attacks
//!
//! Character-level perturbation generators.
//!
//! Two families, mirroring the paper's dichotomy (§II-B vs §II-C):
//!
//! * **Machine-generated baselines** — re-implementations of the attack
//!   operations from the adversarial-NLP literature the paper cites:
//!   [`TextBugger`] (insert/delete/swap/keyboard-sub/visual-sub, Li et al.
//!   NDSS'19), [`Viper`] (accent/diacritic substitution, Eger et al.
//!   NAACL'19) and [`DeepWordBug`] (homoglyph swaps, Gao et al. SPW'18).
//! * **Human-written generator** — [`HumanPerturber`] reproduces the wild
//!   strategies the paper observed: inner-case *emphasis* (`democRATs`),
//!   *hyphenation* (`mus-lim`), *character repetition* (`porrrrn`),
//!   *leet/visual substitution* (`suic1de`), *phonetic substitution*
//!   (`depresxion`) and *censoring* (`s*icide`). It seeds the synthetic
//!   corpora with realistic perturbations and powers the Fig. 4 robustness
//!   comparison.
//!
//! All generators are deterministic functions of a
//! [`SplitMix64`] stream.

#![warn(missing_docs)]

pub mod deepwordbug;
pub mod human;
pub mod textbugger;
pub mod viper;

use cryptext_common::SplitMix64;
use cryptext_tokenizer::{splice, tokenize, Token};

pub use deepwordbug::DeepWordBug;
pub use human::{HumanPerturber, Strategy};
pub use textbugger::TextBugger;
pub use viper::Viper;

/// A token-level perturbation generator.
pub trait TokenPerturber {
    /// Short display name ("textbugger", "human", …).
    fn name(&self) -> &'static str;

    /// Produce a perturbed variant of `token`, or `None` when the token is
    /// not perturbable under this generator (too short, no applicable
    /// characters). Must return a string different from `token` when `Some`.
    fn perturb_token(&self, token: &str, rng: &mut SplitMix64) -> Option<String>;
}

/// One replaced token in a perturbed text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replacement {
    /// Original surface form.
    pub original: String,
    /// Perturbed surface form.
    pub perturbed: String,
    /// Byte span of the original token in the source text.
    pub span: std::ops::Range<usize>,
}

/// Result of perturbing a text at a ratio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerturbedText {
    /// The rewritten text.
    pub text: String,
    /// What changed, in span order (spans refer to the *original* text).
    pub replacements: Vec<Replacement>,
}

/// Minimum character length for a token to be eligible for perturbation;
/// articles and particles stay intact, matching how humans perturb
/// content words.
pub const MIN_TOKEN_LEN: usize = 3;

/// Is this token eligible for perturbation? Word tokens of at least
/// [`MIN_TOKEN_LEN`] characters (mentions, URLs, hashtags and numbers are
/// never touched).
pub fn is_eligible(token: &Token) -> bool {
    token.is_word() && token.text.chars().count() >= MIN_TOKEN_LEN
}

/// Perturb `ratio` of the eligible tokens of `text` using `perturber`.
///
/// `ratio` is clamped to `[0, 1]`; `⌈ratio · n⌉` tokens are sampled
/// without replacement. Tokens the perturber declines are skipped (they
/// still count against the sample, mirroring the paper's "manipulation
/// ratio r" semantics of *attempted* manipulations).
pub fn perturb_text(
    perturber: &dyn TokenPerturber,
    text: &str,
    ratio: f64,
    rng: &mut SplitMix64,
) -> PerturbedText {
    let tokens = tokenize(text);
    let eligible: Vec<&Token> = tokens.iter().filter(|t| is_eligible(t)).collect();
    if eligible.is_empty() {
        return PerturbedText {
            text: text.to_string(),
            replacements: Vec::new(),
        };
    }
    let n_target =
        ((ratio.clamp(0.0, 1.0) * eligible.len() as f64).ceil() as usize).min(eligible.len());
    let chosen = rng.sample_indices(eligible.len(), n_target);

    let mut replacements: Vec<Replacement> = Vec::with_capacity(n_target);
    for idx in chosen {
        let tok = eligible[idx];
        if let Some(perturbed) = perturber.perturb_token(&tok.text, rng) {
            replacements.push(Replacement {
                original: tok.text.clone(),
                perturbed,
                span: tok.span.clone(),
            });
        }
    }
    replacements.sort_by_key(|r| r.span.start);
    let splices: Vec<(std::ops::Range<usize>, String)> = replacements
        .iter()
        .map(|r| (r.span.clone(), r.perturbed.clone()))
        .collect();
    PerturbedText {
        text: splice(text, &splices),
        replacements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct UpperCaser;
    impl TokenPerturber for UpperCaser {
        fn name(&self) -> &'static str {
            "upper"
        }
        fn perturb_token(&self, token: &str, _rng: &mut SplitMix64) -> Option<String> {
            let up = token.to_ascii_uppercase();
            (up != token).then_some(up)
        }
    }

    #[test]
    fn ratio_zero_keeps_text() {
        let mut rng = SplitMix64::new(1);
        // ceil semantics: ratio 0 still rounds to 0 tokens.
        let out = perturb_text(&UpperCaser, "the dirty republicans", 0.0, &mut rng);
        assert_eq!(out.text, "the dirty republicans");
        assert!(out.replacements.is_empty());
    }

    #[test]
    fn ratio_one_hits_every_eligible_token() {
        let mut rng = SplitMix64::new(1);
        let out = perturb_text(&UpperCaser, "the dirty republicans", 1.0, &mut rng);
        assert_eq!(out.text, "THE DIRTY REPUBLICANS");
        assert_eq!(out.replacements.len(), 3);
    }

    #[test]
    fn mentions_urls_numbers_untouched() {
        let mut rng = SplitMix64::new(2);
        let text = "@potus shared https://x.com/a in 2021 with idiots";
        let out = perturb_text(&UpperCaser, text, 1.0, &mut rng);
        assert!(out.text.contains("@potus"));
        assert!(out.text.contains("https://x.com/a"));
        assert!(out.text.contains("2021"));
        assert!(out.text.contains("IDIOTS"));
        // "in" is below the length floor.
        assert!(out.text.contains(" in "));
    }

    #[test]
    fn replacements_record_spans_of_original() {
        let mut rng = SplitMix64::new(3);
        let text = "bad bad bad";
        let out = perturb_text(&UpperCaser, text, 1.0, &mut rng);
        for r in &out.replacements {
            assert_eq!(&text[r.span.clone()], r.original);
            assert_eq!(r.perturbed, "BAD");
        }
        // Spans sorted.
        assert!(out
            .replacements
            .windows(2)
            .all(|w| w[0].span.start < w[1].span.start));
    }

    #[test]
    fn deterministic_given_seed() {
        let text = "one two three four five six seven eight";
        let a = perturb_text(&UpperCaser, text, 0.5, &mut SplitMix64::new(9));
        let b = perturb_text(&UpperCaser, text, 0.5, &mut SplitMix64::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_ineligible_inputs() {
        let mut rng = SplitMix64::new(4);
        let out = perturb_text(&UpperCaser, "", 0.5, &mut rng);
        assert_eq!(out.text, "");
        let out = perturb_text(&UpperCaser, "a b c 12 34", 1.0, &mut rng);
        assert_eq!(out.text, "a b c 12 34", "no eligible tokens");
    }

    #[test]
    fn partial_ratio_counts_attempts() {
        let mut rng = SplitMix64::new(5);
        let text = "alpha bravo charlie delta echo foxtrot golf hotel india juliet";
        let out = perturb_text(&UpperCaser, text, 0.25, &mut rng);
        // ceil(0.25 * 10) = 3 attempts, all succeed with UpperCaser.
        assert_eq!(out.replacements.len(), 3);
    }
}
