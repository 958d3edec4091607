//! # cryptext-editdist
//!
//! Edit distances for the CrypText SMS property (§III-B of the paper).
//!
//! CrypText treats a small Levenshtein distance between two tokens that
//! share a phonetic encoding as a proxy for "same meaning". The Look Up and
//! Normalization paths call the *bounded* variant millions of times while
//! filtering `H_k` buckets, so this crate provides:
//!
//! * [`levenshtein`] — the classic two-row dynamic program.
//! * [`levenshtein_bounded`] — banded DP with early exit; `O(d·min(n,m))`
//!   instead of `O(n·m)`.
//! * [`levenshtein_bounded_scratch`] — the hot-path workhorse: driven
//!   through caller-provided [`EditScratch`] buffers with an ASCII
//!   byte-slice fast path, so per-candidate filtering allocates nothing.
//!   ASCII pairs whose shorter side fits in 64 bytes (after common-affix
//!   trimming) run [`myers_ascii`], Myers' bit-parallel algorithm; longer
//!   or non-ASCII inputs fall back to the banded DP.
//! * [`damerau_osa`] — optimal-string-alignment distance counting adjacent
//!   transposition as one edit (the TextBugger "swap" operation).
//! * [`similarity`] — normalized similarity in `[0, 1]`.
//!
//! All functions operate on Unicode scalar values, not bytes, so homoglyph
//! perturbations count as single edits.

#![warn(missing_docs)]

mod damerau;
mod levenshtein;

pub use damerau::damerau_osa;
pub use levenshtein::{
    levenshtein, levenshtein_bounded, levenshtein_bounded_chars, levenshtein_bounded_scratch,
    levenshtein_chars, myers_ascii, EditScratch,
};

/// Normalized similarity: `1 - lev(a, b) / max(|a|, |b|)`, and `1.0` when
/// both strings are empty. Always in `[0, 1]`.
pub fn similarity(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let denom = la.max(lb);
    if denom == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / denom as f64
}

/// Is `lev(a, b) <= d`? Uses the bounded algorithm, so this is cheap even
/// for long strings when `d` is small.
#[inline]
pub fn within(a: &str, b: &str, d: usize) -> bool {
    levenshtein_bounded(a, b, d).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarity_range_and_examples() {
        assert_eq!(similarity("", ""), 1.0);
        assert_eq!(similarity("abc", "abc"), 1.0);
        assert_eq!(similarity("abc", ""), 0.0);
        let s = similarity("democrats", "demokrats");
        assert!((s - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn within_uses_bound() {
        assert!(within("republicans", "republiecans", 1));
        assert!(!within("republicans", "republic@@ns", 1));
        assert!(within("republicans", "republic@@ns", 2));
    }
}

#[cfg(test)]
mod proptests {
    use std::cell::RefCell;

    use super::*;
    use proptest::prelude::*;

    fn small_string() -> impl Strategy<Value = String> {
        "[a-d]{0,12}"
    }

    thread_local! {
        /// One scratch for every case of a property, as the Look Up walk
        /// reuses one across candidates: state a call leaves behind shows
        /// up in a later case.
        static SCRATCH: RefCell<EditScratch> = RefCell::new(EditScratch::new());
    }

    /// What a perturbation swaps in: ASCII and leet glyphs (the first
    /// [`ASCII_SWAPS`]), accented letters, Cyrillic and Greek homoglyphs
    /// of Latin letters, astral characters and a zero-width space.
    const SWAPS: [char; 16] = [
        'a',
        'e',
        'o',
        '0',
        '@',
        '$',
        'é',
        'ü',
        'ñ',
        '\u{430}',
        '\u{435}',
        '\u{3BF}',
        '🙂',
        '\u{1D41A}',
        '\u{1F600}',
        '\u{200B}',
    ];

    const ASCII_SWAPS: usize = 6;

    /// A token: ASCII, accented, homoglyph, astral or mixed, or ASCII
    /// longer than a machine word.
    fn token() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-z]{0,12}",
            "[a-z0-9@$!]{0,12}",
            "[aeiouàáâãäåèéêëìíîïòóôõöùúûüçñ]{0,10}",
            "[aceopxyаеорсухοα]{0,10}",
            "[a-c🙂😀𝐚𝐛]{0,8}",
            "\\PC{0,12}",
            "[abc]{65,90}",
            "[a-z]{60,80}",
        ]
    }

    /// A token and a perturbation of it: up to four insertions,
    /// deletions or substitutions from [`SWAPS`] (only its ASCII ones
    /// half the time, so ASCII tokens stay ASCII), and sometimes a new
    /// first and last character, so affix trimming leaves a long pair
    /// longer than a machine word (the banded fallback).
    fn perturbed_pair() -> impl Strategy<Value = (String, String)> {
        let edit = (any::<prop::sample::Index>(), 0u8..3, 0..SWAPS.len());
        (
            token(),
            proptest::collection::vec(edit, 0..5),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(a, edits, reframe, ascii)| {
                let mut b: Vec<char> = a.chars().collect();
                for (at, op, swap) in edits {
                    let at = at.index(b.len() + 1);
                    let swap = SWAPS[if ascii { swap % ASCII_SWAPS } else { swap }];
                    match op {
                        0 => b.insert(at, swap),
                        1 if at < b.len() => {
                            b.remove(at);
                        }
                        _ if at < b.len() => b[at] = swap,
                        _ => b.push(swap),
                    }
                }
                if reframe {
                    b.insert(0, '#');
                    b.push('%');
                }
                (a, b.into_iter().collect())
            })
    }

    proptest! {
        /// Identity of indiscernibles: d(a,b) == 0 iff a == b.
        #[test]
        fn identity(a in small_string(), b in small_string()) {
            let d = levenshtein(&a, &b);
            prop_assert_eq!(d == 0, a == b);
        }

        /// Symmetry.
        #[test]
        fn symmetry(a in small_string(), b in small_string()) {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        /// Triangle inequality over a sampled triple.
        #[test]
        fn triangle(a in small_string(), b in small_string(), c in small_string()) {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
        }

        /// Distance is bounded by the longer string's length and bounded
        /// below by the length difference.
        #[test]
        fn length_bounds(a in small_string(), b in small_string()) {
            let d = levenshtein(&a, &b);
            let (la, lb) = (a.chars().count(), b.chars().count());
            prop_assert!(d <= la.max(lb));
            prop_assert!(d >= la.abs_diff(lb));
        }

        /// The bounded variant agrees exactly with the full DP whenever the
        /// true distance fits the bound, and returns None otherwise.
        #[test]
        fn bounded_agrees_with_full(a in small_string(), b in small_string(), max in 0usize..8) {
            let full = levenshtein(&a, &b);
            match levenshtein_bounded(&a, &b, max) {
                Some(d) => {
                    prop_assert_eq!(d, full);
                    prop_assert!(d <= max);
                }
                None => prop_assert!(full > max),
            }
        }

        /// OSA never exceeds Levenshtein (a transposition is cheaper than
        /// two plain edits).
        #[test]
        fn osa_leq_levenshtein(a in small_string(), b in small_string()) {
            prop_assert!(damerau_osa(&a, &b) <= levenshtein(&a, &b));
        }

        /// Appending the same suffix never increases the distance.
        #[test]
        fn common_suffix_stable(a in small_string(), b in small_string(), s in "[a-d]{0,4}") {
            let d0 = levenshtein(&a, &b);
            let d1 = levenshtein(&format!("{a}{s}"), &format!("{b}{s}"));
            prop_assert!(d1 <= d0);
        }

        /// Similarity is always within [0, 1].
        #[test]
        fn similarity_unit_interval(a in small_string(), b in small_string()) {
            let s = similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        /// The scratch-buffer variant is bit-identical to the allocating
        /// bounded variant, including across mixed ASCII/Unicode inputs
        /// reusing one scratch.
        #[test]
        fn scratch_agrees_with_bounded(
            a in "\\PC{0,12}",
            b in "\\PC{0,12}",
            max in 0usize..8,
        ) {
            let mut scratch = EditScratch::new();
            prop_assert_eq!(
                levenshtein_bounded_scratch(&a, &b, max, &mut scratch),
                levenshtein_bounded(&a, &b, max),
                "{:?} vs {:?} at {}", a, b, max
            );
            // Second call through the same scratch must be unaffected by
            // leftover state.
            prop_assert_eq!(
                levenshtein_bounded_scratch(&b, &a, max, &mut scratch),
                levenshtein_bounded(&b, &a, max)
            );
        }

        /// The scratch entry point, one scratch reused across every case,
        /// returns the full DP's distance when it is within the bound and
        /// `None` otherwise, both ways round: word-sized ASCII (Myers),
        /// longer ASCII (the banded fallback), and accented, homoglyph,
        /// astral and mixed strings (the char-decoding fallback).
        #[test]
        fn scratch_distance_is_the_full_dp_within_the_bound(
            pair in perturbed_pair(),
            max in prop_oneof![0usize..8, 0usize..100, Just(usize::MAX)],
        ) {
            let (a, b) = pair;
            let full = levenshtein(&a, &b);
            let want = (full <= max).then_some(full);
            SCRATCH.with(|scratch| {
                let scratch = &mut scratch.borrow_mut();
                prop_assert_eq!(
                    levenshtein_bounded_scratch(&a, &b, max, scratch),
                    want,
                    "{:?} vs {:?} at {}", a, b, max
                );
                prop_assert_eq!(
                    levenshtein_bounded_scratch(&b, &a, max, scratch),
                    want,
                    "{:?} vs {:?} at {}", b, a, max
                );
            });
        }

        /// Myers' bit-parallel distance agrees exactly with the banded DP
        /// reference (via the full two-row DP) on word-sized ASCII inputs,
        /// reusing one scratch across calls.
        #[test]
        fn myers_agrees_with_dp(
            a in "[ -~]{1,64}",
            b in "[ -~]{0,80}",
        ) {
            let mut scratch = EditScratch::new();
            let (short, long) = if a.len() <= b.len() {
                (a.as_bytes(), b.as_bytes())
            } else {
                (b.as_bytes(), a.as_bytes())
            };
            if !short.is_empty() {
                let myers = myers_ascii(short, long, &mut scratch);
                prop_assert_eq!(myers, levenshtein(&a, &b), "{:?} vs {:?}", a, b);
            }
        }

        /// The scratch entry point stays bit-identical to the allocating
        /// reference across the Myers routing boundary: short ASCII (Myers),
        /// >64-char ASCII (banded fallback), and Unicode (char-decode path),
        /// interleaved through one scratch.
        #[test]
        fn routing_boundary_agrees_with_bounded(
            short_a in "[a-f!@ ]{0,20}",
            short_b in "[a-f!@ ]{0,20}",
            long_a in "[a-c]{60,90}",
            long_b in "[a-c]{60,90}",
            uni_a in "\\PC{0,10}",
            uni_b in "\\PC{0,10}",
            max in 0usize..40,
        ) {
            let mut scratch = EditScratch::new();
            for (a, b) in [
                (&short_a, &short_b),
                (&long_a, &long_b),
                (&uni_a, &uni_b),
                (&short_a, &long_b),
                (&uni_a, &short_b),
            ] {
                prop_assert_eq!(
                    levenshtein_bounded_scratch(a, b, max, &mut scratch),
                    levenshtein_bounded(a, b, max),
                    "{:?} vs {:?} at {}", a, b, max
                );
            }
        }
    }
}
