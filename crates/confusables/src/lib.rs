//! # cryptext-confusables
//!
//! Visual-similarity character machinery for CrypText.
//!
//! Human-written perturbations routinely swap a letter for a visually
//! similar digit, symbol, accented letter, or foreign-script homoglyph
//! (`suicide → suic1de`, `democrats → dem0cr@ts`, `a → а` Cyrillic). The
//! paper's customized Soundex (§III-A) requires these glyph classes to
//! *encode identically*, and the perturbation generators need the inverse
//! map to *produce* such substitutions.
//!
//! Three views of the same data live here:
//!
//! * [`fold_char`] — canonicalize one character to its base ASCII letter(s).
//! * [`skeleton`] — canonicalize a whole token (lowercase + fold); two
//!   tokens are visually confusable iff their skeletons are equal.
//! * [`visual_variants`] — the inverse direction: all known stand-ins for a
//!   base letter, used by the attack/corpus generators.

#![warn(missing_docs)]

pub mod diacritics;
pub mod tables;

pub use diacritics::strip_diacritic;
pub use tables::{
    classify_variant, leet_decode_char, unicode_homoglyph_decode, variants_of_class,
    visual_variants, VariantClass,
};

/// Canonicalize a single character to its base lowercase ASCII form.
///
/// Resolution order (first match wins):
/// 1. ASCII letters → lowercased, unchanged otherwise.
/// 2. Leetspeak digits/symbols (`@ → a`, `1 → l`, `5 → s`, …).
/// 3. Unicode homoglyphs (Cyrillic/Greek/fullwidth lookalikes → Latin).
/// 4. Accented Latin letters → base letter (`é → e`).
///
/// Returns `None` for characters with no letter interpretation (whitespace,
/// most punctuation); callers decide whether to keep or drop those.
pub fn fold_char(c: char) -> Option<&'static str> {
    fn direct(c: char) -> Option<&'static str> {
        if c.is_ascii_alphabetic() {
            return Some(tables::ascii_lower_str(c));
        }
        tables::leet_decode_char(c)
            .or_else(|| tables::unicode_homoglyph_decode(c))
            .or_else(|| diacritics::strip_diacritic(c))
    }
    if let Some(s) = direct(c) {
        return Some(s);
    }
    // Uppercase forms whose lowercase is tabulated (the tables list the
    // common case of each pair; this keeps folding idempotent for the
    // rest, e.g. Ԁ → ԁ → d).
    let mut lower = c.to_lowercase();
    let lc = lower.next()?;
    if lower.next().is_none() && lc != c {
        return direct(lc);
    }
    None
}

/// Compute the visual *skeleton* of a token: lowercase, leet-decoded,
/// homoglyph-decoded, diacritic-stripped. Characters with no letter
/// interpretation are kept as-is (lowercased where possible) so that
/// `mus-lim` and `mus lim` remain distinct.
///
/// The skeleton is the equivalence key of "visually similar" in CrypText:
/// the customized Soundex encodes `skeleton(token)`, and
/// [`are_confusable`] compares skeletons.
pub fn skeleton(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match fold_char(c) {
            Some(folded) => out.push_str(folded),
            None => {
                for lc in c.to_lowercase() {
                    out.push(lc);
                }
            }
        }
    }
    out
}

/// Like [`skeleton`] but drops every character that has no letter
/// interpretation (hyphens, underscores, apostrophes, emoji). This is the
/// exact input the customized Soundex consumes: `mus-lim` must encode the
/// same as `muslim`.
pub fn letter_skeleton(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if let Some(folded) = fold_char(c) {
            out.push_str(folded);
        }
    }
    out
}

/// Maximum number of ambiguous positions expanded by [`skeleton_variants`].
/// Beyond this, only the primary reading is used (expansion is exponential).
pub const MAX_AMBIGUOUS_EXPANSIONS: usize = 3;

/// All visual readings of a token, expanding ambiguous stand-ins.
///
/// `1` reads as `l` *and* `i` (`he11o → hello`, `suic1de → suicide`); a
/// deterministic single fold cannot satisfy both, so CrypText indexes tokens
/// under every reading. The primary skeleton is always first. At most
/// [`MAX_AMBIGUOUS_EXPANSIONS`] ambiguous positions are expanded (up to
/// 2^3 = 8 variants for typical two-way ambiguities); later ambiguous
/// characters fall back to their primary reading.
pub fn skeleton_variants(s: &str) -> Vec<String> {
    let mut variants: Vec<String> = vec![String::with_capacity(s.len())];
    let mut expanded = 0usize;
    for c in s.chars() {
        let alternates = tables::leet_alternates(c);
        let primary: Option<&'static str> = fold_char(c);
        if let (Some(primary), false, true) = (
            primary,
            alternates.is_empty(),
            expanded < MAX_AMBIGUOUS_EXPANSIONS,
        ) {
            expanded += 1;
            let mut next = Vec::with_capacity(variants.len() * (1 + alternates.len()));
            for v in &variants {
                let mut w = v.clone();
                w.push_str(primary);
                next.push(w);
                for alt in alternates {
                    let mut w = v.clone();
                    w.push_str(alt);
                    next.push(w);
                }
            }
            variants = next;
        } else {
            match primary {
                Some(folded) => {
                    for v in &mut variants {
                        v.push_str(folded);
                    }
                }
                None => {
                    for v in &mut variants {
                        for lc in c.to_lowercase() {
                            v.push(lc);
                        }
                    }
                }
            }
        }
    }
    variants
}

/// Are two tokens visually confusable, i.e. do any of their skeleton
/// readings coincide?
///
/// `are_confusable("suicide", "suic1de")` (via the `1 → i` reading) and
/// `are_confusable("democrats", "dem0cr@ts")` are both true.
pub fn are_confusable(a: &str, b: &str) -> bool {
    let va = skeleton_variants(a);
    let vb = skeleton_variants(b);
    va.iter().any(|x| vb.iter().any(|y| x == y))
}

/// Fraction of characters in `s` that are non-canonical stand-ins (their
/// fold differs from the character itself, ignoring plain case changes).
/// A quick signal for "how visually perturbed is this token".
pub fn substitution_density(s: &str) -> f64 {
    let mut total = 0usize;
    let mut subs = 0usize;
    for c in s.chars() {
        total += 1;
        if let Some(folded) = fold_char(c) {
            let mut lower = c.to_lowercase();
            let is_plain_case = folded.chars().eq(lower.by_ref());
            if !is_plain_case {
                subs += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        subs as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_ascii_letters_lowercase() {
        assert_eq!(fold_char('A'), Some("a"));
        assert_eq!(fold_char('z'), Some("z"));
    }

    #[test]
    fn fold_paper_examples() {
        // §III-A: "l"→"1", "a"→"@", "S"→"5" must encode the same.
        assert_eq!(fold_char('1'), Some("l"));
        assert_eq!(fold_char('@'), Some("a"));
        assert_eq!(fold_char('5'), Some("s"));
        assert_eq!(fold_char('0'), Some("o"));
        assert_eq!(fold_char('3'), Some("e"));
        assert_eq!(fold_char('$'), Some("s"));
        assert_eq!(fold_char('!'), Some("i"));
    }

    #[test]
    fn fold_unknown_chars_is_none() {
        assert_eq!(fold_char(' '), None);
        assert_eq!(fold_char('-'), None);
        assert_eq!(fold_char('~'), None);
    }

    #[test]
    fn skeleton_paper_tokens() {
        // Primary reading of '1' is 'l'; the 'i' reading appears in
        // skeleton_variants (tested below).
        assert_eq!(skeleton("suic1de"), "suiclde");
        assert_eq!(skeleton("dem0cr@ts"), "democrats");
        assert_eq!(skeleton("republic@@ns"), "republicaans");
        assert_eq!(skeleton("democRATs"), "democrats");
        assert_eq!(skeleton("RepubLIEcans"), "republiecans");
    }

    #[test]
    fn skeleton_keeps_joiners() {
        assert_eq!(skeleton("mus-lim"), "mus-lim");
        assert_ne!(skeleton("mus-lim"), skeleton("muslim"));
    }

    #[test]
    fn letter_skeleton_drops_joiners() {
        assert_eq!(letter_skeleton("mus-lim"), "muslim");
        assert_eq!(letter_skeleton("vac-cine"), "vaccine");
        assert_eq!(letter_skeleton("chi-nese"), "chinese");
        assert_eq!(letter_skeleton("d'oh!"), "dohi");
    }

    #[test]
    fn confusable_pairs() {
        assert!(are_confusable("suicide", "suic1de"));
        assert!(are_confusable("democrats", "dem0cr@ts"));
        assert!(are_confusable("porn", "p0rn"));
        assert!(!are_confusable("democrats", "republicans"));
        assert!(!are_confusable("the", "thee"));
    }

    #[test]
    fn cyrillic_homoglyphs_fold_to_latin() {
        // "раypal" with Cyrillic р/а folds to paypal.
        assert_eq!(skeleton("р\u{0430}ypal"), "paypal");
        assert!(are_confusable("paypal", "р\u{0430}ypal"));
    }

    #[test]
    fn accented_viper_style_fold() {
        // VIPER-style accent perturbations fold away.
        assert_eq!(skeleton("démocrats"), "democrats");
        assert_eq!(skeleton("vãccine"), "vaccine");
    }

    #[test]
    fn substitution_density_examples() {
        assert_eq!(substitution_density("democrats"), 0.0);
        assert!(substitution_density("dem0cr@ts") > 0.2);
        assert!(substitution_density("dem0cr@ts") < 0.3);
        assert_eq!(substitution_density(""), 0.0);
        // Pure case change is not a visual substitution.
        assert_eq!(substitution_density("DemocRATs"), 0.0);
    }

    #[test]
    fn skeleton_variants_expand_ambiguity() {
        let vs = skeleton_variants("suic1de");
        assert!(vs.contains(&"suiclde".to_string()), "primary reading");
        assert!(vs.contains(&"suicide".to_string()), "alternate reading");
        assert_eq!(vs.len(), 2);
        // Unambiguous tokens produce exactly one variant.
        assert_eq!(skeleton_variants("democrats"), vec!["democrats"]);
        assert_eq!(skeleton_variants("dem0cr@ts"), vec!["democrats"]);
    }

    #[test]
    fn skeleton_variants_cap_expansion() {
        // Six ambiguous '1's: only the first three expand → 8 variants.
        let vs = skeleton_variants("111111");
        assert_eq!(vs.len(), 8);
        // All variants agree on the tail (primary 'l') beyond the cap.
        assert!(vs.iter().all(|v| v.ends_with("lll")));
    }

    #[test]
    fn skeleton_variants_first_is_primary() {
        assert_eq!(skeleton_variants("he11o")[0], skeleton("he11o"));
        assert_eq!(skeleton("he11o"), "hello");
    }

    #[test]
    fn skeleton_is_idempotent_on_examples() {
        for s in [
            "suic1de",
            "dem0cr@ts",
            "démocrats",
            "р\u{0430}ypal",
            "mus-lim",
        ] {
            let once = skeleton(s);
            assert_eq!(skeleton(&once), once, "skeleton({s}) stable");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The skeleton operation is idempotent for arbitrary strings:
        /// folding an already-folded string changes nothing.
        #[test]
        fn skeleton_idempotent(s in "\\PC{0,40}") {
            let once = skeleton(&s);
            prop_assert_eq!(skeleton(&once), once.clone());
        }

        /// letter_skeleton output contains only ASCII lowercase letters.
        #[test]
        fn letter_skeleton_is_ascii_lower(s in "\\PC{0,40}") {
            let sk = letter_skeleton(&s);
            prop_assert!(sk.bytes().all(|b| b.is_ascii_lowercase()));
        }

        /// are_confusable is reflexive and symmetric.
        #[test]
        fn confusable_reflexive_symmetric(a in "\\PC{0,20}", b in "\\PC{0,20}") {
            prop_assert!(are_confusable(&a, &a));
            prop_assert_eq!(are_confusable(&a, &b), are_confusable(&b, &a));
        }

        /// Every variant listed for a base letter folds back to that letter.
        #[test]
        fn variants_round_trip(c in proptest::char::range('a', 'z')) {
            for &v in visual_variants(c) {
                let folded = fold_char(v);
                prop_assert_eq!(
                    folded, Some(tables::ascii_lower_str(c)),
                    "variant {} of {} folds back", v, c
                );
            }
        }

        /// Folding any scalar value never panics, and a fold is always a
        /// non-empty run of ASCII lowercase letters: the Soundex encoder
        /// walks folds as letter bytes.
        #[test]
        fn fold_char_is_total_and_ascii_lower(c in proptest::char::range('\0', char::MAX)) {
            if let Some(folded) = fold_char(c) {
                prop_assert!(
                    !folded.is_empty() && folded.bytes().all(|b| b.is_ascii_lowercase()),
                    "{:?} folds to {:?}", c, folded
                );
            }
        }
    }
}
