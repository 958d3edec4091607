//! The human-written perturbation generator.
//!
//! Reproduces the wild strategies catalogued in §II-C of the paper. Each
//! [`Strategy`] is an independent, deterministic transformation; the
//! [`HumanPerturber`] samples among the applicable ones by weight.
//!
//! Most strategies are *sound-preserving*: the perturbed token keeps the
//! same customized-Soundex code (at `k ≤ 1`) as the original, which is why
//! the paper's `H_k` database groups them with their base word. The
//! [`Strategy::Censor`] strategy is the deliberate exception (a `*` has no
//! letter interpretation), mirroring censored slurs in the wild that
//! require edit-distance — not sound — to resolve.

use cryptext_common::SplitMix64;
use cryptext_confusables::{visual_variants, VariantClass};
use cryptext_phonetics::soundex_digit;

use crate::TokenPerturber;

/// One human perturbation strategy from §II-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Inner-case emphasis: `democrats → democRATs`.
    Emphasis,
    /// Hyphenation: `muslim → mus-lim`.
    Hyphenation,
    /// Character repetition: `porn → porrrrn`.
    Repetition,
    /// Visual/leet substitution: `suicide → suic1de`, `class → cla$$`.
    Leet,
    /// Phonetically-similar consonant substitution (same Soundex group):
    /// `depression → depresxion`.
    PhoneticSub,
    /// Censoring an interior character with `*`: `slur → s*ur`.
    Censor,
}

impl Strategy {
    /// All strategies in canonical order.
    pub const ALL: [Strategy; 6] = [
        Strategy::Emphasis,
        Strategy::Hyphenation,
        Strategy::Repetition,
        Strategy::Leet,
        Strategy::PhoneticSub,
        Strategy::Censor,
    ];

    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Emphasis => "emphasis",
            Strategy::Hyphenation => "hyphenation",
            Strategy::Repetition => "repetition",
            Strategy::Leet => "leet",
            Strategy::PhoneticSub => "phonetic",
            Strategy::Censor => "censor",
        }
    }

    /// Does this strategy keep the customized Soundex code intact at k ≤ 1?
    pub fn sound_preserving(&self) -> bool {
        !matches!(self, Strategy::Censor)
    }

    /// Apply to `token`; `None` when inapplicable.
    pub fn apply(&self, token: &str, rng: &mut SplitMix64) -> Option<String> {
        let chars: Vec<char> = token.chars().collect();
        let n = chars.len();
        match self {
            Strategy::Emphasis => {
                // Uppercase an interior run of 2–4 letters; needs a mostly
                // lowercase alphabetic token of length ≥ 5.
                if n < 5 || !chars.iter().all(|c| c.is_ascii_alphabetic()) {
                    return None;
                }
                if chars.iter().filter(|c| c.is_ascii_uppercase()).count() > 0 {
                    return None; // already case-marked
                }
                let run = 2 + rng.index(3.min(n - 2));
                let start = 1 + rng.index(n - run); // never position 0
                let mut out = chars.clone();
                for c in &mut out[start..start + run] {
                    *c = c.to_ascii_uppercase();
                }
                Some(out.into_iter().collect())
            }
            Strategy::Hyphenation => {
                // Insert '-' strictly inside, at least 2 chars from either
                // end, so the Soundex prefix (k+1 ≤ 2 chars) is unchanged.
                if n < 5 || !chars.iter().all(|c| c.is_ascii_alphabetic()) {
                    return None;
                }
                let pos = 2 + rng.index(n - 3);
                let mut out = chars.clone();
                out.insert(pos, '-');
                Some(out.into_iter().collect())
            }
            Strategy::Repetition => {
                // Repeat one character 2–3 extra times, at index ≥ 2 so the
                // literal prefix survives. Capped at 3 so repetitions stay
                // within the paper's default edit-distance bound d = 3
                // (its own example, porn → porrrrn, is exactly +3).
                if n < 3 {
                    return None;
                }
                let candidates: Vec<usize> =
                    (2..n).filter(|&i| chars[i].is_ascii_alphabetic()).collect();
                let &pos = rng.choose(&candidates)?;
                let extra = 2 + rng.index(2);
                let mut out = chars.clone();
                for _ in 0..extra {
                    out.insert(pos, chars[pos]);
                }
                Some(out.into_iter().collect())
            }
            Strategy::Leet => {
                // Replace 1–2 letters with visual stand-ins; fold-invariant
                // at any position.
                if n < 3 {
                    return None;
                }
                let candidates: Vec<usize> = (0..n)
                    .filter(|&i| !visual_variants(chars[i]).is_empty())
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let count = 1 + usize::from(rng.chance(0.35) && candidates.len() > 1);
                let picks = rng.sample_indices(candidates.len(), count);
                let mut out = chars.clone();
                for p in picks {
                    let pos = candidates[p];
                    let variants = visual_variants(chars[pos]);
                    // Prefer ASCII leet over exotic homoglyphs 3:1 — that is
                    // what the wild data shows.
                    let leet: Vec<char> = variants
                        .iter()
                        .copied()
                        .filter(|&v| {
                            cryptext_confusables::tables::classify_variant(v)
                                == Some(VariantClass::Leet)
                        })
                        .collect();
                    let pool: &[char] = if !leet.is_empty() && rng.chance(0.75) {
                        &leet
                    } else {
                        variants
                    };
                    out[pos] = *rng.choose(pool).expect("non-empty pool");
                }
                let result: String = out.into_iter().collect();
                (result != token).then_some(result)
            }
            Strategy::PhoneticSub => {
                // Swap a consonant (index ≥ 2) for another letter in the
                // same Soundex digit group: depression → depresxion.
                if n < 4 {
                    return None;
                }
                // Only positions whose Soundex group has at least one other
                // member ('l' and 'r' sit alone in groups 4 and 6).
                let candidates: Vec<usize> = (2..n)
                    .filter(|&i| {
                        chars[i].is_ascii_lowercase()
                            && soundex_digit(chars[i]).is_some_and(|d| {
                                ('a'..='z').any(|c| c != chars[i] && soundex_digit(c) == Some(d))
                            })
                    })
                    .collect();
                let &pos = rng.choose(&candidates)?;
                let digit = soundex_digit(chars[pos]).expect("filtered");
                let group: Vec<char> = ('a'..='z')
                    .filter(|&c| c != chars[pos] && soundex_digit(c) == Some(digit))
                    .collect();
                let replacement = *rng.choose(&group).expect("non-singleton group");
                let mut out = chars.clone();
                out[pos] = replacement;
                Some(out.into_iter().collect())
            }
            Strategy::Censor => {
                // Star out one interior character.
                if n < 4 {
                    return None;
                }
                let pos = 1 + rng.index(n - 2);
                if !chars[pos].is_ascii_alphabetic() {
                    return None;
                }
                let mut out = chars.clone();
                out[pos] = '*';
                Some(out.into_iter().collect())
            }
        }
    }
}

/// Samples among human strategies by weight.
#[derive(Debug, Clone)]
pub struct HumanPerturber {
    strategies: Vec<(Strategy, f64)>,
}

impl HumanPerturber {
    /// The default mixture, weighted toward the strategies the paper
    /// reports as most common (leet/visual first, emphasis second).
    pub fn new() -> Self {
        HumanPerturber {
            strategies: vec![
                (Strategy::Leet, 0.35),
                (Strategy::Emphasis, 0.20),
                (Strategy::Repetition, 0.15),
                (Strategy::Hyphenation, 0.12),
                (Strategy::PhoneticSub, 0.12),
                (Strategy::Censor, 0.06),
            ],
        }
    }

    /// Restrict to sound-preserving strategies (everything but Censor) —
    /// guarantees the perturbation stays in the same `H_k` bucket (k ≤ 1).
    pub fn sound_preserving() -> Self {
        let mut p = Self::new();
        p.strategies.retain(|(s, _)| s.sound_preserving());
        p
    }

    /// A single-strategy perturber (for ablations).
    pub fn only(strategy: Strategy) -> Self {
        HumanPerturber {
            strategies: vec![(strategy, 1.0)],
        }
    }

    /// The strategies and weights in play.
    pub fn strategies(&self) -> &[(Strategy, f64)] {
        &self.strategies
    }
}

impl Default for HumanPerturber {
    fn default() -> Self {
        Self::new()
    }
}

impl TokenPerturber for HumanPerturber {
    fn name(&self) -> &'static str {
        "human"
    }

    fn perturb_token(&self, token: &str, rng: &mut SplitMix64) -> Option<String> {
        let weights: Vec<f64> = self.strategies.iter().map(|(_, w)| *w).collect();
        // Up to 8 attempts: strategies may decline a given token.
        for _ in 0..8 {
            let idx = rng.weighted_index(&weights)?;
            let (strategy, _) = self.strategies[idx];
            if let Some(out) = strategy.apply(token, rng) {
                if out != token {
                    return Some(out);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_phonetics::CustomSoundex;

    /// An uppercase run strictly inside an otherwise lowercase word
    /// (democRATs): some letter after the first is uppercase, not all are.
    fn has_inner_emphasis(s: &str) -> bool {
        let letters: Vec<char> = s.chars().filter(|c| c.is_alphabetic()).collect();
        letters.len() >= 3
            && !letters.iter().all(|c| c.is_uppercase())
            && letters[1..].iter().any(|c| c.is_uppercase())
    }

    /// `s` with every run of one repeated character collapsed to one.
    fn squeeze_repeats(s: &str) -> String {
        let mut chars: Vec<char> = s.chars().collect();
        chars.dedup();
        chars.into_iter().collect()
    }

    #[test]
    fn emphasis_shape() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            let out = Strategy::Emphasis.apply("democrats", &mut rng).unwrap();
            assert_eq!(out.to_ascii_lowercase(), "democrats");
            assert!(has_inner_emphasis(&out), "{out}");
            assert!(out.starts_with('d'), "first char never uppercased: {out}");
        }
    }

    #[test]
    fn emphasis_declines_short_and_cased() {
        let mut rng = SplitMix64::new(2);
        assert_eq!(Strategy::Emphasis.apply("the", &mut rng), None);
        assert_eq!(Strategy::Emphasis.apply("DemocRATs", &mut rng), None);
        assert_eq!(Strategy::Emphasis.apply("dem0crats", &mut rng), None);
    }

    #[test]
    fn hyphenation_shape() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            let out = Strategy::Hyphenation.apply("muslim", &mut rng).unwrap();
            assert_eq!(out.replace('-', ""), "muslim");
            let dash = out.find('-').unwrap();
            assert!(dash >= 2 && dash <= out.len() - 3, "{out}");
        }
    }

    #[test]
    fn repetition_shape() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..100 {
            let out = Strategy::Repetition.apply("porn", &mut rng).unwrap();
            assert!(out.len() > 4, "{out}");
            assert_eq!(squeeze_repeats(&out), squeeze_repeats("porn"), "{out}");
        }
    }

    #[test]
    fn leet_folds_back() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            let out = Strategy::Leet.apply("suicide", &mut rng).unwrap();
            assert_ne!(out, "suicide");
            assert!(
                cryptext_confusables::are_confusable(&out, "suicide"),
                "{out} confusable with suicide"
            );
        }
    }

    #[test]
    fn phonetic_sub_keeps_soundex_group() {
        let mut rng = SplitMix64::new(6);
        let sx = CustomSoundex::new(1);
        let base = sx.encode("depression").unwrap();
        for _ in 0..100 {
            let out = Strategy::PhoneticSub.apply("depression", &mut rng).unwrap();
            assert_ne!(out, "depression");
            assert_eq!(sx.encode(&out).unwrap(), base, "{out} keeps code");
        }
    }

    #[test]
    fn censor_stars_an_interior_char() {
        let mut rng = SplitMix64::new(7);
        let out = Strategy::Censor.apply("slurs", &mut rng).unwrap();
        assert_eq!(out.chars().filter(|&c| c == '*').count(), 1);
        assert!(out.starts_with('s'), "{out}");
        assert!(!Strategy::Censor.sound_preserving());
    }

    #[test]
    fn sound_preserving_strategies_keep_codes() {
        // The defining property: every non-Censor strategy keeps the
        // k=1 customized Soundex bucket (possibly via an alternate
        // ambiguous-leet reading).
        let sx = CustomSoundex::new(1);
        let mut rng = SplitMix64::new(8);
        for word in [
            "democrats",
            "republicans",
            "vaccine",
            "depression",
            "muslim",
        ] {
            let base = sx.encode(word).unwrap();
            for strategy in Strategy::ALL.iter().filter(|s| s.sound_preserving()) {
                for _ in 0..50 {
                    if let Some(out) = strategy.apply(word, &mut rng) {
                        let all = sx.encode_all(&out);
                        assert!(
                            all.contains(&base),
                            "{} perturbation {out} of {word}: codes {all:?} lack {base}",
                            strategy.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn perturber_mixture_changes_tokens() {
        use crate::TokenPerturber;
        let hp = HumanPerturber::new();
        let mut rng = SplitMix64::new(9);
        let mut changed = 0;
        for _ in 0..200 {
            if let Some(out) = hp.perturb_token("republicans", &mut rng) {
                assert_ne!(out, "republicans");
                changed += 1;
            }
        }
        assert!(changed > 190, "almost always applicable: {changed}");
    }

    #[test]
    fn perturber_exercises_multiple_strategies() {
        use crate::TokenPerturber;
        let hp = HumanPerturber::new();
        let mut rng = SplitMix64::new(10);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..400 {
            if let Some(out) = hp.perturb_token("depression", &mut rng) {
                let kind = if out.contains('-') {
                    "hyphen"
                } else if out.contains('*') {
                    "censor"
                } else if out.chars().any(|c| c.is_ascii_uppercase()) {
                    "emphasis"
                } else if out.len() > "depression".len() {
                    "repetition"
                } else if out
                    .chars()
                    .any(|c| !c.is_ascii_alphanumeric() || c.is_ascii_digit())
                {
                    "leet"
                } else {
                    "phonetic"
                };
                kinds.insert(kind);
            }
        }
        assert!(kinds.len() >= 5, "diverse strategies: {kinds:?}");
    }

    #[test]
    fn only_constructor_restricts() {
        use crate::TokenPerturber;
        let hp = HumanPerturber::only(Strategy::Hyphenation);
        let mut rng = SplitMix64::new(11);
        for _ in 0..50 {
            if let Some(out) = hp.perturb_token("vaccine", &mut rng) {
                assert!(out.contains('-'), "{out}");
            }
        }
    }

    #[test]
    fn sound_preserving_constructor_drops_censor() {
        let hp = HumanPerturber::sound_preserving();
        assert!(hp.strategies().iter().all(|(s, _)| s.sound_preserving()));
        assert_eq!(hp.strategies().len(), 5);
    }

    #[test]
    fn tiny_tokens_handled_gracefully() {
        use crate::TokenPerturber;
        let hp = HumanPerturber::new();
        let mut rng = SplitMix64::new(12);
        // Should never panic; may or may not perturb.
        for t in ["ab", "a", "", "xy"] {
            let _ = hp.perturb_token(t, &mut rng);
        }
    }
}
