//! # cryptext-phonetics
//!
//! Phonetic encodings for CrypText (§III-A of the paper).
//!
//! The token database groups tokens by *sound*. The paper starts from the
//! classic American [`Soundex`](classic::classic_soundex) algorithm and
//! customizes it in two ways:
//!
//! 1. **Visual similarity**: characters that merely *look* like letters
//!    (`@`, `1`, `5`, Cyrillic homoglyphs, accents) must encode the same as
//!    the letters they imitate, because human perturbations rely on those
//!    substitutions (`suic1de`, `dem0cr@ts`).
//! 2. **Phonetic level `k`**: the first `k+1` characters are kept literally
//!    in the code instead of just the first one. This fixes the classic
//!    algorithm's false collisions (`losbian` and `lesbian` share `L215`
//!    classically but get distinct codes `LO215` / `LE215` at `k = 1`).
//!
//! [`CustomSoundex`] implements the customized encoder; because some leet
//! glyphs are ambiguous (`1` is both `l` and `i`), [`CustomSoundex::encode_all`]
//! returns *every* reading's code and the token database indexes each.
//! [`CustomSoundex::encode_all_levels`] does the same at several phonetic
//! levels from one skeleton expansion, which is how the database encodes
//! each record at all of its levels `k ≤ MAX_PHONETIC_LEVEL`.

#![warn(missing_docs)]

pub mod classic;
pub mod code;
pub mod custom;

pub use classic::classic_soundex;
pub use code::SoundexCode;
pub use custom::CustomSoundex;

/// The largest phonetic level the paper's database materializes (`H_k`,
/// `k ≤ 2`).
pub const MAX_PHONETIC_LEVEL: usize = 2;

/// Map one lowercase ASCII letter to its Soundex digit group, or `None` for
/// vowels and the non-coded letters (`a e i o u y h w`).
///
/// Groups: `b f p v → 1`, `c g j k q s x z → 2`, `d t → 3`, `l → 4`,
/// `m n → 5`, `r → 6`.
#[inline]
pub fn soundex_digit(c: char) -> Option<u8> {
    match c {
        'b' | 'f' | 'p' | 'v' => Some(1),
        'c' | 'g' | 'j' | 'k' | 'q' | 's' | 'x' | 'z' => Some(2),
        'd' | 't' => Some(3),
        'l' => Some(4),
        'm' | 'n' => Some(5),
        'r' => Some(6),
        _ => None,
    }
}

/// Is this letter a Soundex separator that *resets* duplicate suppression
/// (vowels and `y`)? `h`/`w` are dropped but do **not** reset, per the
/// classic American rule.
#[inline]
pub fn is_separator(c: char) -> bool {
    matches!(c, 'a' | 'e' | 'i' | 'o' | 'u' | 'y')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_groups_match_paper_rule_set() {
        // The paper cites {b, f, p, v} → "1" explicitly.
        for c in ['b', 'f', 'p', 'v'] {
            assert_eq!(soundex_digit(c), Some(1));
        }
        for c in ['c', 'g', 'j', 'k', 'q', 's', 'x', 'z'] {
            assert_eq!(soundex_digit(c), Some(2));
        }
        assert_eq!(soundex_digit('d'), Some(3));
        assert_eq!(soundex_digit('t'), Some(3));
        assert_eq!(soundex_digit('l'), Some(4));
        assert_eq!(soundex_digit('m'), Some(5));
        assert_eq!(soundex_digit('n'), Some(5));
        assert_eq!(soundex_digit('r'), Some(6));
    }

    #[test]
    fn vowels_and_hw_uncoded() {
        for c in ['a', 'e', 'i', 'o', 'u', 'y', 'h', 'w'] {
            assert_eq!(soundex_digit(c), None);
        }
    }

    #[test]
    fn separators_exclude_h_and_w() {
        assert!(is_separator('a'));
        assert!(is_separator('y'));
        assert!(!is_separator('h'));
        assert!(!is_separator('w'));
        assert!(!is_separator('b'));
    }
}
