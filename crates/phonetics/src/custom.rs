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
//!    at every level, through a [`LevelEncoder`].
//!
//! [`LevelEncoder`] is the one multi-reading encoder: it expands a token's
//! skeleton readings, as ASCII lowercase letter bytes, into buffers it
//! reuses, and builds every level's codes from them into a reused buffer,
//! so a warm encoder allocates nothing. [`CustomSoundex::encode_all`] and
//! [`CustomSoundex::encode_all_into`] are its one-level wrappers;
//! [`CustomSoundex::encode`] walks the primary reading's letters alone.

use std::cell::RefCell;

use cryptext_confusables::tables::leet_alternates;
use cryptext_confusables::{fold_char, letter_skeleton, MAX_AMBIGUOUS_EXPANSIONS};

use crate::{is_separator, soundex_digit, SoundexCode};

/// The customized Soundex encoder. Cheap to copy; construct once per
/// phonetic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomSoundex {
    k: usize,
    max_digits: Option<usize>,
}

thread_local! {
    /// The encoder behind [`CustomSoundex::encode_all_into`], one per
    /// thread, so query-side encoding reuses its buffers.
    static QUERY_ENCODER: RefCell<LevelEncoder> = RefCell::default();
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
        let mut code = String::with_capacity(self.k + 7);
        self.write_code(letter_skeleton(token).as_bytes(), &mut code)
            .then(|| SoundexCode::from_string(code))
    }

    /// Encode *every* visual reading of `token` (ambiguous leet glyphs
    /// expand, capped upstream), deduplicated, primary reading first.
    ///
    /// The token database files a token under each of these codes, and
    /// Look Up probes each, so `suic1de` is findable from `suicide` even
    /// though `1`'s primary reading is `l`. This is the one-level case of
    /// [`LevelEncoder::for_each_code`], which the database uses to encode
    /// a record at every level from one skeleton expansion.
    pub fn encode_all(&self, token: &str) -> Vec<SoundexCode> {
        let mut codes = Vec::with_capacity(2);
        self.encode_all_into(token, &mut codes);
        codes
    }

    /// Like [`CustomSoundex::encode_all`], but clears and fills a
    /// caller-provided buffer, and expands the readings in a per-thread
    /// [`LevelEncoder`], so query-side encoding allocates only the codes
    /// it returns (the read-path hot loop drives this).
    pub fn encode_all_into(&self, token: &str, out: &mut Vec<SoundexCode>) {
        out.clear();
        QUERY_ENCODER.with(|encoder| {
            encoder
                .borrow_mut()
                .for_each_code(std::slice::from_ref(self), token, |_, code| {
                    out.push(SoundexCode::from(code))
                })
        });
    }

    /// Append the code of one reading's letters (ASCII lowercase bytes) to
    /// `out`. Returns false, appending nothing, when there are no letters.
    fn write_code(&self, letters: &[u8], out: &mut String) -> bool {
        if letters.is_empty() {
            return false;
        }
        debug_assert!(letters.iter().all(u8::is_ascii_lowercase));
        let prefix_len = (self.k + 1).min(letters.len());
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
        true
    }
}

impl Default for CustomSoundex {
    /// The paper's default phonetic level, `k = 1`.
    fn default() -> Self {
        CustomSoundex::new(1)
    }
}

/// The multi-level Soundex encoder: every code of a token at several
/// phonetic levels, from one expansion of its skeleton readings, built in
/// buffers reused from token to token.
///
/// Once its buffers have grown to the longest token seen, encoding
/// allocates nothing: the readings are expanded as letter bytes into one
/// buffer (never a `String` per reading), and each code is built in a
/// reused buffer and lent to the visitor. Keep one per thread.
#[derive(Debug, Clone, Default)]
pub struct LevelEncoder {
    /// Every reading's letters back to back, the primary reading first.
    letters: Vec<u8>,
    /// Where each reading ends in `letters`.
    reading_ends: Vec<usize>,
    /// The ambiguous glyphs the readings branch at.
    forks: Vec<Fork>,
    /// The current level's distinct codes back to back.
    codes: String,
    /// Where each code ends in `codes`.
    code_ends: Vec<usize>,
}

/// An ambiguous glyph of the token being encoded.
#[derive(Debug, Clone, Copy)]
struct Fork {
    /// Where the glyph's primary letters start in the primary reading.
    at: usize,
    /// How many letters the primary reading has there.
    len: usize,
    /// The glyph's other readings.
    alternates: &'static [&'static str],
}

impl LevelEncoder {
    /// A fresh encoder (its buffers grow on first use).
    pub fn new() -> Self {
        LevelEncoder::default()
    }

    /// Hand `visit` every code of `token` at each of `levels`, as
    /// `(index into levels, code)`: level by level in order, and within a
    /// level deduplicated, primary reading first. The codes `visit` sees
    /// for `levels[i]` are exactly `levels[i].encode_all(token)`.
    ///
    /// The token database builds every record's codes through this, on
    /// ingest, lexicon seed, snapshot load and delta-log replay.
    pub fn for_each_code(
        &mut self,
        levels: &[CustomSoundex],
        token: &str,
        mut visit: impl FnMut(usize, &str),
    ) {
        self.expand(token);
        for (level, sx) in levels.iter().enumerate() {
            self.codes.clear();
            self.code_ends.clear();
            let mut start = 0;
            for &end in &self.reading_ends {
                let letters = &self.letters[start..end];
                start = end;
                let from = self.codes.len();
                if !sx.write_code(letters, &mut self.codes) {
                    continue;
                }
                let mut seen_from = 0;
                let seen = self.code_ends.iter().any(|&seen_end| {
                    let seen = &self.codes[seen_from..seen_end];
                    seen_from = seen_end;
                    seen == &self.codes[from..]
                });
                if seen {
                    self.codes.truncate(from);
                } else {
                    self.code_ends.push(self.codes.len());
                    visit(level, &self.codes[from..]);
                }
            }
        }
    }

    /// Expand `token`'s skeleton readings into `letters`: what
    /// `skeleton_variants` lists, in its order, each reduced to its ASCII
    /// lowercase bytes. The first [`MAX_AMBIGUOUS_EXPANSIONS`] ambiguous
    /// glyphs branch; later ones read as their primary letter.
    fn expand(&mut self, token: &str) {
        self.letters.clear();
        self.reading_ends.clear();
        self.forks.clear();
        for c in token.chars() {
            match fold_char(c) {
                Some(primary) => {
                    let at = self.letters.len();
                    push_letters(&mut self.letters, primary);
                    let alternates = leet_alternates(c);
                    if !alternates.is_empty() && self.forks.len() < MAX_AMBIGUOUS_EXPANSIONS {
                        let len = self.letters.len() - at;
                        self.forks.push(Fork {
                            at,
                            len,
                            alternates,
                        });
                    }
                }
                None => self.letters.extend(
                    c.to_lowercase()
                        .filter(char::is_ascii_lowercase)
                        .map(|c| c as u8),
                ),
            }
        }
        let primary_end = self.letters.len();
        self.reading_ends.push(primary_end);
        // Every other choice of readings at the forks, the first fork
        // varying slowest (the order `skeleton_variants` lists them in),
        // copied from the primary reading with the forks substituted.
        let choices: usize = self.forks.iter().map(|f| 1 + f.alternates.len()).product();
        for n in 1..choices {
            // `n` in mixed radix, one digit per fork, the last fork lowest.
            let mut picks = [0usize; MAX_AMBIGUOUS_EXPANSIONS];
            let picks = &mut picks[..self.forks.len()];
            let mut rest = n;
            for (pick, fork) in picks.iter_mut().zip(&self.forks).rev() {
                let options = 1 + fork.alternates.len();
                *pick = rest % options;
                rest /= options;
            }
            let mut from = 0;
            for (fork, &pick) in self.forks.iter().zip(picks.iter()) {
                let fork_end = fork.at + fork.len;
                match pick {
                    0 => self.letters.extend_from_within(from..fork_end),
                    alt => {
                        self.letters.extend_from_within(from..fork.at);
                        push_letters(&mut self.letters, fork.alternates[alt - 1]);
                    }
                }
                from = fork_end;
            }
            self.letters.extend_from_within(from..primary_end);
            self.reading_ends.push(self.letters.len());
        }
    }
}

/// Append the ASCII lowercase bytes of `folded` (what a reading keeps).
fn push_letters(letters: &mut Vec<u8>, folded: &str) {
    letters.extend(folded.bytes().filter(u8::is_ascii_lowercase));
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
    use cryptext_confusables::skeleton_variants;

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

    /// Every entry point equals the per-level reference on `token`. The
    /// multi-level encoder encodes `warm` first, so a buffer it failed to
    /// reset would show.
    fn agrees_with_reference(token: &str, warm: &str, levels: [CustomSoundex; 3]) {
        let expected = levels.map(|sx| reference::encode_all(&sx, token));
        let mut encoder = LevelEncoder::new();
        encoder.for_each_code(&levels, warm, |_, _| {});
        let mut visited: [Vec<SoundexCode>; 3] = Default::default();
        let mut last_level = 0;
        encoder.for_each_code(&levels, token, |level, code| {
            assert!(level >= last_level, "levels visited in order");
            last_level = level;
            visited[level].push(SoundexCode::from(code));
        });
        prop_assert_eq!(&visited, &expected, "all levels of {:?}", token);
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
            warm in "\\PC{0,24}",
            md in (max_digits(), max_digits(), max_digits()),
        ) {
            agrees_with_reference(&s, &warm, levels([md.0, md.1, md.2]));
        }

        /// The same over tokens dense in confusables and joiners.
        #[test]
        fn encoder_equals_reference_on_confusables(
            s in DENSE,
            warm in DENSE,
            md in (max_digits(), max_digits(), max_digits()),
        ) {
            agrees_with_reference(&s, &warm, levels([md.0, md.1, md.2]));
        }

        /// The encoder's readings are `skeleton_variants`' readings, in
        /// its order, with every byte but ASCII lowercase letters dropped,
        /// over tokens dense in confusables, after encoding another token.
        #[test]
        fn readings_equal_skeleton_variants_letters(s in DENSE, warm in DENSE) {
            let mut encoder = LevelEncoder::new();
            encoder.expand(&warm);
            encoder.expand(&s);
            let mut start = 0;
            let readings: Vec<&[u8]> = encoder
                .reading_ends
                .iter()
                .map(|&end| {
                    let reading = &encoder.letters[start..end];
                    start = end;
                    reading
                })
                .collect();
            let expected: Vec<Vec<u8>> = cryptext_confusables::skeleton_variants(&s)
                .into_iter()
                .map(|v| v.bytes().filter(u8::is_ascii_lowercase).collect())
                .collect();
            prop_assert_eq!(readings, expected, "readings of {:?}", s);
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
