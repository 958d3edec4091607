//! # cryptext-tokenizer
//!
//! A social-media-aware tokenizer for CrypText.
//!
//! The paper's database is curated by tokenizing raw Reddit/Twitter text
//! (§III-A), which is full of constructs a whitespace tokenizer mangles:
//! mentions (`@user`), hashtags (`#vaxx`), URLs, emoticons (`:)`), and —
//! crucially — perturbed words whose *interior* contains symbols that look
//! like punctuation (`suic1de`, `republic@@ns`, `mus-lim`, `$lut`).
//!
//! Every token carries its byte span in the original text, so the
//! Perturbation and Normalization functions can splice replacements back
//! without disturbing anything else (Figs. 2 and 3 highlight changed
//! tokens in place).

#![warn(missing_docs)]

pub mod emoticons;

use std::ops::Range;

pub use emoticons::{is_emoticon, match_emoticon_at};

/// What kind of surface form a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// A word, possibly perturbed (may contain digits/symbols inside).
    Word,
    /// A pure number (no letter interpretation attempted).
    Number,
    /// `@handle` — platform mention; never perturbed or normalized.
    Mention,
    /// `#topic` — hashtag; the tag body may still be analyzed.
    Hashtag,
    /// URL (`http://…`, `https://…`, `www.…`).
    Url,
    /// Western emoticon like `:)` or `<3`.
    Emoticon,
    /// Anything else: punctuation and stray symbols, one char each.
    Punct,
}

/// A token plus its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The exact source slice (owned copy).
    pub text: String,
    /// Classification.
    pub kind: TokenKind,
    /// Byte range in the original input; `input[span.clone()] == text`.
    pub span: Range<usize>,
}

impl Token {
    /// Is this a word-like token eligible for perturbation/normalization?
    #[inline]
    pub fn is_word(&self) -> bool {
        self.kind == TokenKind::Word
    }
}

/// A token's classification and byte span without an owned text copy — the
/// zero-copy sibling of [`Token`] produced by [`tokenize_spans`]. The text
/// is always `&input[span.clone()]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenSpan {
    /// Classification.
    pub kind: TokenKind,
    /// Byte range in the original input.
    pub span: Range<usize>,
}

impl TokenSpan {
    /// Is this a word-like token eligible for perturbation/normalization?
    #[inline]
    pub fn is_word(&self) -> bool {
        self.kind == TokenKind::Word
    }

    /// The token's text, borrowed from the input it was scanned from.
    #[inline]
    pub fn text<'a>(&self, input: &'a str) -> &'a str {
        &input[self.span.clone()]
    }
}

/// Characters that may start or continue the *interior* of a word because
/// humans use them as letter stand-ins (`suic!de`, `cla$$`, `dem0cr@ts`)
/// or joiners (`mus-lim`, `don't`).
#[inline]
fn is_word_interior(c: char) -> bool {
    c.is_alphanumeric()
        || matches!(
            c,
            '\'' | '-' | '_' | '@' | '$' | '!' | '*' | '+' | '€' | '£' | '¢'
        )
        || cryptext_confusables::fold_char(c).is_some()
}

/// Characters a word may *begin* with: alphanumerics and the symbol
/// stand-ins, but not joiners (a leading `-` is punctuation).
#[inline]
fn is_word_start(c: char) -> bool {
    c.is_alphanumeric()
        || matches!(c, '$' | '!' | '*' | '+' | '€' | '£' | '¢')
        || cryptext_confusables::fold_char(c).is_some()
}

/// Trailing characters trimmed from word tokens: sentence punctuation that
/// also happens to be a word-interior symbol. `hello!!!` keeps only
/// `hello`; `suic!de` keeps its interior `!`.
#[inline]
fn is_trim_trailing(c: char) -> bool {
    matches!(c, '!' | '-' | '\'' | '_' | '+' | '*' | '.' | ',')
}

/// Tokenize `input` into classified, span-carrying tokens. Whitespace is
/// skipped; all other bytes belong to exactly one token, and spans are
/// strictly increasing.
pub fn tokenize(input: &str) -> Vec<Token> {
    tokenize_spans(input)
        .into_iter()
        .map(|t| Token {
            text: input[t.span.clone()].to_string(),
            kind: t.kind,
            span: t.span,
        })
        .collect()
}

/// [`tokenize`] without the per-token text copies: one `Vec` of spans, no
/// `String` allocations. The Normalization hot path reads token text
/// straight out of the input through [`TokenSpan::text`].
pub fn tokenize_spans(input: &str) -> Vec<TokenSpan> {
    let mut tokens = Vec::new();
    // A byte cursor: each token's end is a char boundary, and the next
    // scan starts there.
    let mut pos = 0;

    while let Some(c) = input[pos..].chars().next() {
        let start = pos;
        // Whitespace: skip.
        if c.is_whitespace() {
            pos += c.len_utf8();
            continue;
        }

        // URLs.
        if let Some(end) = match_url(input, start) {
            push_span(&mut tokens, start..end, TokenKind::Url);
            pos = end;
            continue;
        }

        // Emoticons (only at a non-word boundary position).
        let prev_is_word = input[..start]
            .chars()
            .next_back()
            .is_some_and(is_word_interior);
        if !prev_is_word {
            if let Some(len) = match_emoticon_at(&input[start..]) {
                push_span(&mut tokens, start..start + len, TokenKind::Emoticon);
                pos = start + len;
                continue;
            }
        }

        // Mentions and hashtags.
        if (c == '@' || c == '#') && !prev_is_word {
            let body_start = start + c.len_utf8();
            let body_end = scan_while(input, body_start, |c| c.is_alphanumeric() || c == '_');
            if body_end > body_start {
                let kind = if c == '@' {
                    TokenKind::Mention
                } else {
                    TokenKind::Hashtag
                };
                push_span(&mut tokens, start..body_end, kind);
                pos = body_end;
                continue;
            }
        }

        // Words (including perturbed forms) and numbers.
        if is_word_start(c) {
            let mut end = scan_while(input, start, is_word_interior);
            // Trim trailing sentence punctuation, but never below one char.
            while end > start {
                let last = input[start..end].chars().next_back().expect("non-empty");
                if is_trim_trailing(last) && end - last.len_utf8() > start {
                    end -= last.len_utf8();
                } else {
                    break;
                }
            }
            let text = &input[start..end];
            let kind = if text
                .chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | ','))
            {
                TokenKind::Number
            } else if text.chars().any(char::is_alphanumeric) {
                TokenKind::Word
            } else {
                // Symbol-only runs ("!!!", "$$") are punctuation, not words,
                // even though those symbols can stand in for letters inside
                // real words.
                TokenKind::Punct
            };
            push_span(&mut tokens, start..end, kind);
            pos = end;
            continue;
        }

        // Single punctuation char.
        pos = start + c.len_utf8();
        push_span(&mut tokens, start..pos, TokenKind::Punct);
    }
    tokens
}

/// Convenience: just the word tokens' texts, in order.
///
/// Runs on the zero-copy [`tokenize_spans`] path — the only allocations
/// are the returned `String`s; non-word tokens never materialize at all.
/// Callers that can consume borrowed text should prefer
/// [`word_spans`]/[`tokenize_spans`] directly.
pub fn words(input: &str) -> Vec<String> {
    word_spans(input).map(|w| w.to_string()).collect()
}

/// The word tokens' texts as borrowed slices of `input`, in order — the
/// allocation-free sibling of [`words`]. LM training interns straight from
/// these without ever owning a token.
pub fn word_spans(input: &str) -> impl Iterator<Item = &str> {
    tokenize_spans(input)
        .into_iter()
        .filter(|t| t.is_word())
        .map(move |t| &input[t.span])
}

/// Replace spans of `input` with new strings. `replacements` must be
/// non-overlapping; they are applied in span order regardless of input
/// order. Used by Perturbation/Normalization to splice corrected or
/// perturbed tokens back into the original text.
pub fn splice(input: &str, replacements: &[(Range<usize>, String)]) -> String {
    let mut sorted: Vec<&(Range<usize>, String)> = replacements.iter().collect();
    sorted.sort_by_key(|(r, _)| r.start);
    let mut out = String::with_capacity(input.len() + 16);
    let mut cursor = 0usize;
    for (range, replacement) in sorted {
        debug_assert!(range.start >= cursor, "overlapping replacement spans");
        out.push_str(&input[cursor..range.start]);
        out.push_str(replacement);
        cursor = range.end;
    }
    out.push_str(&input[cursor..]);
    out
}

fn push_span(tokens: &mut Vec<TokenSpan>, span: Range<usize>, kind: TokenKind) {
    tokens.push(TokenSpan { kind, span });
}

fn scan_while(input: &str, from: usize, pred: impl Fn(char) -> bool) -> usize {
    let mut end = from;
    for (i, c) in input[from..].char_indices() {
        if pred(c) {
            end = from + i + c.len_utf8();
        } else {
            break;
        }
    }
    end
}

fn match_url(input: &str, start: usize) -> Option<usize> {
    let rest = &input[start..];
    let prefix_len = if rest.starts_with("https://") || rest.starts_with("http://") {
        rest.find("://").expect("checked") + 3
    } else if rest.starts_with("www.") {
        4
    } else {
        return None;
    };
    let end = scan_while(input, start + prefix_len, |c| {
        !c.is_whitespace() && c != '"' && c != '<' && c != '>'
    });
    (end > start + prefix_len).then_some(end)
}

/// The reference the proptests hold [`tokenize_spans`] to: the same rules
/// over a `Peekable<CharIndices>` walk that steps through every token char
/// by char, with the ungated emoticon scan at each boundary.
#[cfg(test)]
pub(crate) fn tokenize_spans_reference(input: &str) -> Vec<TokenSpan> {
    fn advance_to(iter: &mut std::iter::Peekable<std::str::CharIndices>, end: usize) {
        while let Some(&(i, _)) = iter.peek() {
            if i >= end {
                break;
            }
            iter.next();
        }
    }
    let mut tokens = Vec::new();
    let bytes_len = input.len();
    let mut iter = input.char_indices().peekable();

    while let Some(&(start, c)) = iter.peek() {
        // Whitespace: skip.
        if c.is_whitespace() {
            iter.next();
            continue;
        }

        // URLs.
        if let Some(end) = match_url(input, start) {
            push_span(&mut tokens, start..end, TokenKind::Url);
            advance_to(&mut iter, end);
            continue;
        }

        // Emoticons (only at a non-word boundary position).
        let prev_is_word = input[..start]
            .chars()
            .next_back()
            .is_some_and(is_word_interior);
        if !prev_is_word {
            if let Some(len) = emoticons::scan_emoticons(&input[start..]) {
                push_span(&mut tokens, start..start + len, TokenKind::Emoticon);
                advance_to(&mut iter, start + len);
                continue;
            }
        }

        // Mentions and hashtags.
        if (c == '@' || c == '#') && !prev_is_word {
            let body_start = start + c.len_utf8();
            let body_end = scan_while(input, body_start, |c| c.is_alphanumeric() || c == '_');
            if body_end > body_start {
                let kind = if c == '@' {
                    TokenKind::Mention
                } else {
                    TokenKind::Hashtag
                };
                push_span(&mut tokens, start..body_end, kind);
                advance_to(&mut iter, body_end);
                continue;
            }
        }

        // Words (including perturbed forms) and numbers.
        if is_word_start(c) {
            let mut end = scan_while(input, start, is_word_interior);
            // Trim trailing sentence punctuation, but never below one char.
            while end > start {
                let last = input[start..end].chars().next_back().expect("non-empty");
                if is_trim_trailing(last) && end - last.len_utf8() > start {
                    end -= last.len_utf8();
                } else {
                    break;
                }
            }
            let text = &input[start..end];
            let kind = if text
                .chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | ','))
            {
                TokenKind::Number
            } else if text.chars().any(char::is_alphanumeric) {
                TokenKind::Word
            } else {
                TokenKind::Punct
            };
            push_span(&mut tokens, start..end, kind);
            advance_to(&mut iter, end);
            continue;
        }

        // Single punctuation char.
        let end = (start + c.len_utf8()).min(bytes_len);
        push_span(&mut tokens, start..end, TokenKind::Punct);
        iter.next();
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<(String, TokenKind)> {
        tokenize(input)
            .into_iter()
            .map(|t| (t.text, t.kind))
            .collect()
    }

    #[test]
    fn spans_api_matches_owned_api() {
        for input in [
            "the dirty republicans",
            "@potus pushed #VaccineMandate again :) https://x.com",
            "stop it!!! suic!de really, now.",
            "dem0cr@ts and cla$$ 🙂 vacc1ne",
            "",
        ] {
            let owned = tokenize(input);
            let spans = tokenize_spans(input);
            assert_eq!(owned.len(), spans.len(), "{input:?}");
            for (o, s) in owned.iter().zip(&spans) {
                assert_eq!(o.kind, s.kind, "{input:?}");
                assert_eq!(o.span, s.span, "{input:?}");
                assert_eq!(o.text, s.text(input), "{input:?}");
                assert_eq!(o.is_word(), s.is_word());
            }
        }
    }

    #[test]
    fn plain_sentence() {
        let ts = kinds("the dirty republicans");
        assert_eq!(
            ts,
            vec![
                ("the".into(), TokenKind::Word),
                ("dirty".into(), TokenKind::Word),
                ("republicans".into(), TokenKind::Word),
            ]
        );
    }

    #[test]
    fn word_spans_borrow_and_match_words() {
        for input in [
            "@user check https://x.com the vaccine!! 123",
            "thinking about suic1de 🙂 ok",
            "dem0cr@ts and cla$$",
            "",
            "CASE MiXeD",
        ] {
            let borrowed: Vec<&str> = word_spans(input).collect();
            // Differential against the owned-Token tokenizer (not against
            // words(), which now delegates to word_spans itself).
            let reference: Vec<String> = tokenize(input)
                .into_iter()
                .filter(|t| t.is_word())
                .map(|t| t.text)
                .collect();
            assert_eq!(
                borrowed,
                reference.iter().map(String::as_str).collect::<Vec<_>>(),
                "word_spans ≡ owned-Token word texts on {input:?}"
            );
            // Genuinely zero-copy: every yielded slice points into `input`.
            for w in borrowed {
                let input_range = input.as_ptr() as usize..input.as_ptr() as usize + input.len();
                assert!(input_range.contains(&(w.as_ptr() as usize)));
            }
        }
    }

    #[test]
    fn perturbed_words_stay_whole() {
        assert_eq!(
            words("thinking about suic1de"),
            vec!["thinking", "about", "suic1de"]
        );
        assert_eq!(
            words("the republic@@ns lie"),
            vec!["the", "republic@@ns", "lie"]
        );
        assert_eq!(
            words("dem0cr@ts and cla$$"),
            vec!["dem0cr@ts", "and", "cla$$"]
        );
        assert_eq!(words("mus-lim ban"), vec!["mus-lim", "ban"]);
        assert_eq!(words("that is porrrrn"), vec!["that", "is", "porrrrn"]);
    }

    #[test]
    fn sentence_punctuation_trims_but_interior_stays() {
        assert_eq!(words("stop it!!!"), vec!["stop", "it"]);
        assert_eq!(words("suic!de"), vec!["suic!de"]);
        assert_eq!(words("really, now."), vec!["really", "now"]);
        // Trimmed punctuation becomes Punct tokens, preserving coverage.
        let ts = kinds("it!");
        assert_eq!(ts[0], ("it".into(), TokenKind::Word));
        assert_eq!(ts[1], ("!".into(), TokenKind::Punct));
    }

    #[test]
    fn mentions_and_hashtags() {
        let ts = kinds("@potus pushed #VaccineMandate again");
        assert_eq!(ts[0], ("@potus".into(), TokenKind::Mention));
        assert_eq!(ts[1], ("pushed".into(), TokenKind::Word));
        assert_eq!(ts[2], ("#VaccineMandate".into(), TokenKind::Hashtag));
    }

    #[test]
    fn at_inside_word_is_not_a_mention() {
        let ts = kinds("republic@@ns");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].1, TokenKind::Word);
    }

    #[test]
    fn urls_are_single_tokens() {
        let ts = kinds("see https://example.com/a?b=1 now");
        assert_eq!(ts[1], ("https://example.com/a?b=1".into(), TokenKind::Url));
        let ts = kinds("visit www.example.org today");
        assert_eq!(ts[1], ("www.example.org".into(), TokenKind::Url));
    }

    #[test]
    fn bare_www_dot_is_not_url() {
        let ts = kinds("www. hello");
        assert_ne!(ts[0].1, TokenKind::Url);
    }

    #[test]
    fn emoticons_detected_at_boundaries() {
        let ts = kinds("sad :( but ok <3");
        assert!(ts
            .iter()
            .any(|(t, k)| t == ":(" && *k == TokenKind::Emoticon));
        assert!(ts
            .iter()
            .any(|(t, k)| t == "<3" && *k == TokenKind::Emoticon));
    }

    #[test]
    fn numbers_are_numbers() {
        let ts = kinds("in 2021, 67% were negative");
        assert!(ts
            .iter()
            .any(|(t, k)| t == "2021" && *k == TokenKind::Number));
        assert!(ts.iter().any(|(t, k)| t == "67" && *k == TokenKind::Number));
    }

    #[test]
    fn leet_number_words_are_words() {
        // Mixed letters+digits is a Word (perturbation candidate).
        let ts = kinds("suic1de h8 sp33ch");
        assert!(ts.iter().all(|(_, k)| *k == TokenKind::Word));
    }

    #[test]
    fn spans_match_source() {
        let input = "The democRATs… and RepubLIEcans!";
        for t in tokenize(input) {
            assert_eq!(
                &input[t.span.clone()],
                t.text,
                "span integrity for {:?}",
                t.text
            );
        }
    }

    #[test]
    fn spans_are_increasing_and_disjoint() {
        let input = "a b!! c@d.com #x :) www.e.f";
        let ts = tokenize(input);
        for w in ts.windows(2) {
            assert!(w[0].span.end <= w[1].span.start, "{:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n  ").is_empty());
    }

    #[test]
    fn unicode_text_tokenizes() {
        let ts = kinds("vãccine 😀 mandate");
        assert_eq!(ts[0], ("vãccine".into(), TokenKind::Word));
        assert!(ts.iter().any(|(t, _)| t == "mandate"));
    }

    #[test]
    fn apostrophe_words() {
        assert_eq!(words("don't can't y'all"), vec!["don't", "can't", "y'all"]);
    }

    #[test]
    fn splice_replaces_spans() {
        let input = "Biden belongs to the democrats";
        let ts = tokenize(input);
        let demo = ts.iter().find(|t| t.text == "democrats").unwrap();
        let out = splice(input, &[(demo.span.clone(), "demokRATs".to_string())]);
        assert_eq!(out, "Biden belongs to the demokRATs");
    }

    #[test]
    fn splice_multiple_out_of_order() {
        let input = "a b c";
        let ts = tokenize(input);
        let out = splice(
            input,
            &[
                (ts[2].span.clone(), "C".to_string()),
                (ts[0].span.clone(), "A".to_string()),
            ],
        );
        assert_eq!(out, "A b C");
    }

    #[test]
    fn splice_empty_replacements_is_identity() {
        assert_eq!(splice("unchanged", &[]), "unchanged");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Text dense in what the tokenizer branches on: every listed
    /// emoticon and URL prefix whole, and single characters among
    /// emoticon, mention and hashtag starts, word-interior and trailing
    /// symbols, digits, one- and multi-byte whitespace, and accented,
    /// confusable (Cyrillic `а`, `€`, `¡`), zero-width and overlay
    /// characters.
    fn dense_text() -> impl Strategy<Value = String> {
        let emoticon = proptest::strategy::Union::new(
            emoticons::EMOTICONS
                .iter()
                .map(|e| Just(e.to_string()).boxed())
                .collect(),
        );
        let symbol = "[:;=<>^_oOTxXDP()3/|*@#w.htps$!+',0-9 \té€£¢ñüаı¡\u{A0}\u{3000}\u{200B}\u{200C}\u{200D}\u{336}\u{FEFF}-]";
        let piece = prop_oneof![
            symbol,
            symbol,
            "[a-z]{1,4}",
            emoticon,
            prop_oneof!["https://", "http://", "www."],
        ];
        // Pieces abut, or are parted by a boundary an emoticon needs.
        let parted = (piece, "[ \t.,!?]{0,1}").prop_map(|(piece, sep)| piece + &sep);
        proptest::collection::vec(parted, 0..24).prop_map(|parts| parts.concat())
    }

    proptest! {
        /// The byte-cursor tokenizer yields exactly the reference's spans
        /// and kinds, and never panics, over printable text.
        #[test]
        fn spans_equal_the_reference(input in "\\PC{0,60}") {
            prop_assert_eq!(tokenize_spans(&input), tokenize_spans_reference(&input));
        }

        /// Same, over text dense in emoticon, URL, mention and confusable
        /// starts.
        #[test]
        fn spans_equal_the_reference_on_dense_text(input in dense_text()) {
            prop_assert_eq!(tokenize_spans(&input), tokenize_spans_reference(&input));
        }

        /// Every token's text is exactly the source slice at its span.
        #[test]
        fn span_integrity(input in "\\PC{0,60}") {
            for t in tokenize(&input) {
                prop_assert_eq!(&input[t.span.clone()], t.text.as_str());
            }
        }

        /// Spans never overlap and are sorted.
        #[test]
        fn spans_sorted_disjoint(input in "\\PC{0,60}") {
            let ts = tokenize(&input);
            for w in ts.windows(2) {
                prop_assert!(w[0].span.end <= w[1].span.start);
            }
        }

        /// Inter-token gaps contain only whitespace: tokenization covers
        /// every non-whitespace byte.
        #[test]
        fn full_coverage(input in "[a-z0-9 @#!.,$]{0,60}") {
            let ts = tokenize(&input);
            let mut cursor = 0usize;
            for t in &ts {
                prop_assert!(input[cursor..t.span.start].chars().all(char::is_whitespace),
                    "gap {:?} before {:?}", &input[cursor..t.span.start], t.text);
                cursor = t.span.end;
            }
            prop_assert!(input[cursor..].chars().all(char::is_whitespace));
        }

        /// Identity splice: replacing every token with itself reconstructs
        /// the input.
        #[test]
        fn identity_splice(input in "\\PC{0,60}") {
            let ts = tokenize(&input);
            let reps: Vec<_> = ts.iter().map(|t| (t.span.clone(), t.text.clone())).collect();
            prop_assert_eq!(splice(&input, &reps), input);
        }
    }
}
