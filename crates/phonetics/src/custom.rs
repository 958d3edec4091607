//! The CrypText customized Soundex (§III-A).
//!
//! Differences from [`classic_soundex`](crate::classic::classic_soundex):
//!
//! 1. Tokens are first reduced to their *letter skeleton*: visually-similar
//!    digits, symbols, homoglyphs and accents fold to the letters they
//!    imitate (`dem0cr@ts → democrats`), and joiners like `-` vanish
//!    (`mus-lim → muslim`).
//! 2. The first `k+1` skeleton characters are kept literally (uppercased)
//!    as the code prefix — the paper's *phonetic level* parameter. `k = 0`
//!    reduces to the classic prefix behaviour.
//! 3. Digits are padded to at least three but **not truncated** by default:
//!    long tokens keep their full consonant signature, which sharpens
//!    bucket discrimination for the long political vocabulary the paper
//!    studies. `max_digits` restores classic truncation when wanted.
//! 4. Ambiguous leet glyphs (`1` = `l` or `i`) yield *multiple* codes via
//!    [`CustomSoundex::encode_all`]; the token database indexes every one,
//!    at every level, through [`CustomSoundex::encode_all_levels`].
//!
//! Every entry point reduces each skeleton reading once to its ASCII
//! lowercase letter bytes and walks those bytes; a multi-level encode
//! shares one skeleton expansion across its levels.

use cryptext_confusables::{letter_skeleton, skeleton_variants};

use crate::{is_separator, soundex_digit, SoundexCode};

/// The customized Soundex encoder. Cheap to copy; construct once per
/// phonetic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomSoundex {
    k: usize,
    max_digits: Option<usize>,
}

impl CustomSoundex {
    /// Encoder at phonetic level `k` (the first `k+1` characters are kept
    /// literally). The paper materializes `k ∈ {0, 1, 2}` and defaults to
    /// `k = 1` for Look Up.
    pub fn new(k: usize) -> Self {
        CustomSoundex {
            k,
            max_digits: None,
        }
    }

    /// Restrict the digit portion to at most `max_digits` digits
    /// (classic Soundex behaviour is `k = 0` with `max_digits = 3`).
    pub fn with_max_digits(mut self, max_digits: usize) -> Self {
        self.max_digits = Some(max_digits);
        self
    }

    /// The phonetic level `k`.
    #[inline]
    pub fn level(&self) -> usize {
        self.k
    }

    /// Encode the *primary* visual reading of `token`.
    ///
    /// Returns `None` when the token has no letter interpretation at all
    /// (pure punctuation, emoji).
    pub fn encode(&self, token: &str) -> Option<SoundexCode> {
        self.encode_letters(letter_skeleton(token).as_bytes())
    }

    /// Encode *every* visual reading of `token` (ambiguous leet glyphs
    /// expand, capped upstream), deduplicated, primary reading first.
    ///
    /// The token database inserts a token under each of these codes, and
    /// Look Up probes each, so `suic1de` is findable from `suicide` even
    /// though `1`'s primary reading is `l`. This is the one-level case of
    /// [`CustomSoundex::encode_all_levels`], which the database uses to
    /// encode a record at every level from one skeleton expansion.
    pub fn encode_all(&self, token: &str) -> Vec<SoundexCode> {
        let [codes] = Self::encode_all_levels(&[*self], token);
        codes
    }

    /// Like [`CustomSoundex::encode_all`], but clears and fills a
    /// caller-provided buffer so query-side encoding reuses one allocation
    /// across lookups (the read-path hot loop drives this). Same
    /// expansion and byte walk as [`CustomSoundex::encode_all_levels`].
    pub fn encode_all_into(&self, token: &str, out: &mut Vec<SoundexCode>) {
        out.clear();
        for_each_reading(token, |letters| self.push_new_code(letters, out));
    }

    /// [`CustomSoundex::encode_all`] at each of `levels`, from one pass:
    /// the token's skeleton readings are expanded once, each is reduced
    /// once to its letters, and every level's code list is built from
    /// those letters. Entry `i` equals `levels[i].encode_all(token)`.
    ///
    /// The token database encodes every record at its three phonetic
    /// levels through this, on ingest and when it rebuilds a snapshot.
    pub fn encode_all_levels<const N: usize>(
        levels: &[CustomSoundex; N],
        token: &str,
    ) -> [Vec<SoundexCode>; N] {
        let mut out: [Vec<SoundexCode>; N] = std::array::from_fn(|_| Vec::with_capacity(2));
        for_each_reading(token, |letters| {
            for (sx, codes) in levels.iter().zip(&mut out) {
                sx.push_new_code(letters, codes);
            }
        });
        out
    }

    /// Append the code of one reading's letters unless `out` has it.
    fn push_new_code(&self, letters: &[u8], out: &mut Vec<SoundexCode>) {
        if let Some(code) = self.encode_letters(letters) {
            if !out.contains(&code) {
                out.push(code);
            }
        }
    }

    /// Encode one reading's letter skeleton: ASCII lowercase bytes.
    fn encode_letters(&self, letters: &[u8]) -> Option<SoundexCode> {
        if letters.is_empty() {
            return None;
        }
        debug_assert!(letters.iter().all(u8::is_ascii_lowercase));
        let prefix_len = (self.k + 1).min(letters.len());

        let mut out = String::with_capacity(prefix_len + 6);
        out.extend(
            letters[..prefix_len]
                .iter()
                .map(|b| char::from(b.to_ascii_uppercase())),
        );

        // Walk the whole skeleton so duplicate suppression seeds correctly
        // across the prefix boundary, but emit digits only past the prefix.
        let mut last_digit: Option<u8> = None;
        let mut digits = 0usize;
        let cap = self.max_digits.unwrap_or(usize::MAX);
        for (i, &b) in letters.iter().enumerate() {
            let c = char::from(b);
            match soundex_digit(c) {
                Some(d) => {
                    if i >= prefix_len && last_digit != Some(d) && digits < cap {
                        out.push(char::from(b'0' + d));
                        digits += 1;
                    }
                    last_digit = Some(d);
                }
                None => {
                    if is_separator(c) {
                        last_digit = None;
                    }
                    // h / w: silent, runs continue through them.
                }
            }
        }
        let pad_to = 3.min(cap);
        while digits < pad_to {
            out.push('0');
            digits += 1;
        }
        Some(SoundexCode::from_string(out))
    }
}

/// Call `f` with the letters of every skeleton reading of `token`, primary
/// first: each reading keeps only its ASCII lowercase bytes, in place, so
/// joiners and unfoldable characters drop out.
fn for_each_reading(token: &str, mut f: impl FnMut(&[u8])) {
    for variant in skeleton_variants(token) {
        let mut letters = variant.into_bytes();
        letters.retain(u8::is_ascii_lowercase);
        f(&letters);
    }
}

impl Default for CustomSoundex {
    /// The paper's default phonetic level, `k = 1`.
    fn default() -> Self {
        CustomSoundex::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(k: usize, s: &str) -> String {
        CustomSoundex::new(k).encode(s).unwrap().into_string()
    }

    #[test]
    fn table1_the_row() {
        // Table I: {the, thee} → TH000 at k = 1.
        assert_eq!(code(1, "the"), "TH000");
        assert_eq!(code(1, "thee"), "TH000");
    }

    #[test]
    fn table1_dirty_row() {
        // Table I: {dirty, dirrrty} → DI630 at k = 1.
        assert_eq!(code(1, "dirty"), "DI630");
        assert_eq!(code(1, "dirrrty"), "DI630");
    }

    #[test]
    fn table1_republicans_row_grouping() {
        // Table I groups {republicans, repubLIEcans, republic@@ns} under a
        // single key. (The paper prints the literal "RE4425", which is not
        // derivable from its own stated rule set; the *grouping* is the
        // tested property — see EXPERIMENTS.md.)
        let a = code(1, "republicans");
        let b = code(1, "repubLIEcans");
        let c = code(1, "republic@@ns");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(a.starts_with("RE"), "k=1 keeps two literal characters: {a}");
    }

    #[test]
    fn paper_losbian_fix() {
        // §III-A: k = 1 separates losbian/lesbian, which classic conflates.
        assert_eq!(code(1, "losbian"), "LO215");
        assert_eq!(code(1, "lesbian"), "LE215");
        // At k = 0 they still collide (classic behaviour).
        assert_eq!(code(0, "losbian"), code(0, "lesbian"));
    }

    #[test]
    fn visual_substitutions_encode_identically() {
        assert_eq!(code(1, "dem0cr@ts"), code(1, "democrats"));
        assert_eq!(code(1, "republic@@ns"), code(1, "republicans"));
        assert_eq!(code(1, "p0rn"), code(1, "porn"));
        assert_eq!(code(1, "vãccine"), code(1, "vaccine"));
        // Case emphasis never changes the code.
        assert_eq!(code(1, "democRATs"), code(1, "democrats"));
    }

    #[test]
    fn hyphenation_encodes_like_the_base_word() {
        // §II-C: "mus-lim", "vac-cine", "chi-nese".
        assert_eq!(code(1, "mus-lim"), code(1, "muslim"));
        assert_eq!(code(1, "vac-cine"), code(1, "vaccine"));
        assert_eq!(code(1, "chi-nese"), code(1, "chinese"));
    }

    #[test]
    fn repeated_characters_collapse() {
        // §II-C: "porn" → "porrrrn".
        assert_eq!(code(1, "porrrrn"), code(1, "porn"));
        assert_eq!(code(1, "dirrrty"), code(1, "dirty"));
    }

    #[test]
    fn ambiguous_leet_produces_both_codes() {
        let sx = CustomSoundex::new(1);
        let all = sx.encode_all("suic1de");
        let suicide = sx.encode("suicide").unwrap();
        assert!(all.contains(&suicide), "1→i reading indexed: {all:?}");
        assert_eq!(all.len(), 2, "primary (1→l) + alternate (1→i)");
        assert_eq!(all[0], sx.encode("suic1de").unwrap(), "primary first");
        // Unambiguous token: exactly one code.
        assert_eq!(sx.encode_all("democrats").len(), 1);
    }

    #[test]
    fn k_zero_prefix_is_single_char() {
        assert_eq!(code(0, "dirty"), "D630");
        assert_eq!(code(0, "the"), "T000");
    }

    #[test]
    fn k_two_prefix_is_three_chars() {
        // The 'r' sits inside the literal prefix, so its digit is not
        // re-emitted; only 't' contributes, then zero-padding to 3 digits.
        assert_eq!(code(2, "dirty"), "DIR300");
        // Duplicate suppression must seed from inside the prefix: the
        // 'r'-run in dirrrty may not emit any 6.
        assert_eq!(code(2, "dirrrty"), "DIR300");
    }

    #[test]
    fn k_longer_than_token() {
        assert_eq!(code(1, "a"), "A000");
        assert_eq!(code(2, "ab"), "AB000");
        assert_eq!(code(5, "the"), "THE000");
    }

    #[test]
    fn no_letters_is_none() {
        let sx = CustomSoundex::new(1);
        assert_eq!(sx.encode(""), None);
        assert_eq!(sx.encode("..."), None);
        assert_eq!(sx.encode("🙂"), None);
        assert!(sx.encode_all("...").is_empty());
    }

    #[test]
    fn pure_leet_tokens_encode_via_fold() {
        // "1337" folds to "leet" → encodable despite zero letters.
        let sx = CustomSoundex::new(1);
        assert!(sx.encode("1337").is_some());
    }

    #[test]
    fn long_words_keep_full_signature_by_default() {
        let c = code(1, "internationalization");
        assert!(c.len() > 5, "untruncated digits: {c}");
    }

    #[test]
    fn max_digits_restores_truncation() {
        let sx = CustomSoundex::new(0).with_max_digits(3);
        let c = sx.encode("internationalization").unwrap();
        assert_eq!(c.as_str().len(), 1 + 3, "classic-shaped code: {c}");
    }

    #[test]
    fn max_digits_zero_is_prefix_only() {
        let sx = CustomSoundex::new(1).with_max_digits(0);
        assert_eq!(sx.encode("dirty").unwrap().as_str(), "DI");
    }

    #[test]
    fn default_is_paper_default_k1() {
        assert_eq!(CustomSoundex::default().level(), 1);
    }

    #[test]
    fn prefix_boundary_duplicate_suppression() {
        // Prefix ends in a coded consonant; an immediately following char
        // of the same group must not emit ("tt" boundary), leaving only the
        // 'c' digit plus padding.
        assert_eq!(code(1, "attic"), "AT200");
        // ...but a vowel between them resets, so the second 't' codes.
        assert_eq!(code(1, "tito"), "TI300");
    }
}

/// The per-level encoder the byte walk replaced, kept as the differential
/// reference: every level expands the token's skeleton readings itself,
/// collects each reading's letters into a `String` and walks them as a
/// `Vec<char>`.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn encode(sx: &CustomSoundex, token: &str) -> Option<SoundexCode> {
        encode_skeleton(sx, &letter_skeleton(token))
    }

    pub fn encode_all(sx: &CustomSoundex, token: &str) -> Vec<SoundexCode> {
        let mut out: Vec<SoundexCode> = Vec::with_capacity(2);
        for variant in skeleton_variants(token) {
            let letters: String = variant.chars().filter(char::is_ascii_lowercase).collect();
            if let Some(code) = encode_skeleton(sx, &letters) {
                if !out.contains(&code) {
                    out.push(code);
                }
            }
        }
        out
    }

    fn encode_skeleton(sx: &CustomSoundex, sk: &str) -> Option<SoundexCode> {
        if sk.is_empty() {
            return None;
        }
        let chars: Vec<char> = sk.chars().collect();
        let prefix_len = (sx.k + 1).min(chars.len());

        let mut out = String::with_capacity(prefix_len + 6);
        for &c in &chars[..prefix_len] {
            out.push(c.to_ascii_uppercase());
        }
        let mut last_digit: Option<u8> = None;
        let mut digits = 0usize;
        let cap = sx.max_digits.unwrap_or(usize::MAX);
        for (i, &c) in chars.iter().enumerate() {
            match soundex_digit(c) {
                Some(d) => {
                    if i >= prefix_len && last_digit != Some(d) && digits < cap {
                        out.push((b'0' + d) as char);
                        digits += 1;
                    }
                    last_digit = Some(d);
                }
                None => {
                    if is_separator(c) {
                        last_digit = None;
                    }
                }
            }
        }
        let pad_to = 3.min(cap);
        while digits < pad_to {
            out.push('0');
            digits += 1;
        }
        Some(SoundexCode::from_string(out))
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Tokens dense in what the encoder folds or drops: ambiguous leet
    /// glyphs (repeated to weight them), Cyrillic, Greek and fullwidth
    /// homoglyphs, accented letters, the ligatures `æ œ ß`, U+212A KELVIN
    /// SIGN, U+0130, joiners and emoji. A `-` must close the class.
    const DENSE: &str =
        "[a-zA-Z1!|03457@$1!|1!|аеорсхіАЕОРСΑΕΟαοιυρＡＥＫａｅｏéüçñøłÅæœßÆKİ_'🙂👍🏽-]{0,24}";

    /// Some cases cap the digits, as classic-shaped encoders do.
    fn max_digits() -> impl Strategy<Value = Option<usize>> {
        prop_oneof![Just(None), Just(None), (0usize..5).prop_map(Some)]
    }

    fn levels(max_digits: [Option<usize>; 3]) -> [CustomSoundex; 3] {
        std::array::from_fn(|k| {
            let sx = CustomSoundex::new(k);
            max_digits[k].map_or(sx, |md| sx.with_max_digits(md))
        })
    }

    /// Every entry point equals the per-level reference on `token`.
    fn agrees_with_reference(token: &str, levels: [CustomSoundex; 3]) {
        let expected = levels.map(|sx| reference::encode_all(&sx, token));
        prop_assert_eq!(
            CustomSoundex::encode_all_levels(&levels, token),
            expected.clone(),
            "all levels of {:?}",
            token
        );
        let mut reused = vec![SoundexCode::from("STALE0")];
        for (sx, expected) in levels.iter().zip(&expected) {
            prop_assert_eq!(&sx.encode_all(token), expected, "encode_all {:?}", token);
            sx.encode_all_into(token, &mut reused);
            prop_assert_eq!(&reused, expected, "encode_all_into {:?}", token);
            prop_assert_eq!(
                sx.encode(token),
                reference::encode(sx, token),
                "encode {:?} at {:?}",
                token,
                sx
            );
        }
    }

    proptest! {
        /// One skeleton expansion for every level encodes exactly what
        /// each level's reference does, on printable text.
        #[test]
        fn encoder_equals_reference(
            s in "\\PC{0,24}",
            md in (max_digits(), max_digits(), max_digits()),
        ) {
            agrees_with_reference(&s, levels([md.0, md.1, md.2]));
        }

        /// The same over tokens dense in confusables and joiners.
        #[test]
        fn encoder_equals_reference_on_confusables(
            s in DENSE,
            md in (max_digits(), max_digits(), max_digits()),
        ) {
            agrees_with_reference(&s, levels([md.0, md.1, md.2]));
        }

        /// Codes have an uppercase-alphabetic prefix followed by digits only.
        #[test]
        fn code_shape(s in "\\PC{0,24}", k in 0usize..=2) {
            if let Some(code) = CustomSoundex::new(k).encode(&s) {
                let c = code.as_str();
                let prefix = code.prefix();
                prop_assert!(!prefix.is_empty());
                prop_assert!(prefix.len() <= k + 1);
                prop_assert!(prefix.bytes().all(|b| b.is_ascii_uppercase()));
                prop_assert!(code.digits().bytes().all(|b| b.is_ascii_digit()));
                prop_assert_eq!(format!("{}{}", prefix, code.digits()), c);
                prop_assert!(code.digits().len() >= 3);
            }
        }

        /// Folding a token to its skeleton never changes the primary code —
        /// the customized encoder is invariant under visual substitution.
        #[test]
        fn confusable_invariance(s in "[a-z]{1,12}", k in 0usize..=2) {
            let sx = CustomSoundex::new(k);
            let base = sx.encode(&s);
            // Uppercasing is a visual no-op.
            prop_assert_eq!(sx.encode(&s.to_ascii_uppercase()), base.clone());
            // Substituting the first substitutable letter keeps the code.
            if let Some((i, c)) = s.char_indices().find(|(_, c)| {
                !cryptext_confusables::visual_variants(*c).is_empty()
            }) {
                let v = cryptext_confusables::visual_variants(c)[0];
                let mut perturbed = s.clone();
                perturbed.replace_range(i..i + 1, &v.to_string());
                let all = sx.encode_all(&perturbed);
                prop_assert!(
                    all.contains(base.as_ref().unwrap()),
                    "{} (from {}) must index under {:?}; got {:?}",
                    perturbed, s, base, all
                );
            }
        }

        /// encode_all always contains the primary encoding and never
        /// duplicates entries.
        #[test]
        fn encode_all_contains_primary(s in "\\PC{0,16}", k in 0usize..=2) {
            let sx = CustomSoundex::new(k);
            let all = sx.encode_all(&s);
            match sx.encode(&s) {
                Some(primary) => {
                    prop_assert_eq!(all.first(), Some(&primary));
                    let set: std::collections::HashSet<_> = all.iter().collect();
                    prop_assert_eq!(set.len(), all.len(), "no duplicates");
                }
                None => prop_assert!(all.is_empty()),
            }
        }

        /// Raising k only refines buckets: tokens sharing a (k+1)-code also
        /// share their k-code prefix relationship — i.e. equal codes at
        /// k+1 imply equal codes at k.
        #[test]
        fn higher_k_refines(a in "[a-z]{1,10}", b in "[a-z]{1,10}", k in 0usize..=1) {
            let hi = CustomSoundex::new(k + 1);
            let lo = CustomSoundex::new(k);
            if hi.encode(&a) == hi.encode(&b) {
                prop_assert_eq!(lo.encode(&a), lo.encode(&b));
            }
        }
    }
}
