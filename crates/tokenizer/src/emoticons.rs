//! Western emoticon recognition.
//!
//! The paper (§II-C) observes that humans perturb words *with* emoticons;
//! the tokenizer must keep them intact (and out of word tokens) so the
//! database is not polluted with `:)`-suffixed pseudo-tokens.

/// Known emoticons, longest-first so greedy matching prefers `:-)` over
/// `:-` + `)`. Kept small and high-precision: false emoticon positives
/// would eat word characters.
pub const EMOTICONS: &[&str] = &[
    ":'-(", ":'-)", ":-))", ">:-(", ":'(", ":')", ":-)", ":-(", ":-D", ":-P", ":-/", ":-|", ":-O",
    ":-*", ";-)", ">:(", "=))", ":)", ":(", ":D", ":P", ":/", ":|", ":O", ":*", ";)", ";(", "=)",
    "=(", "<3", "</3", "^_^", "-_-", "o_O", "O_o", "T_T", "xD", "XD",
];

/// Is `s` exactly an emoticon?
pub fn is_emoticon(s: &str) -> bool {
    EMOTICONS.contains(&s)
}

/// `STARTS[b]`: does some [`EMOTICONS`] entry begin with byte `b`? Built
/// from the table itself, so the two cannot drift apart.
const STARTS: [bool; 256] = {
    let mut starts = [false; 256];
    let mut i = 0;
    while i < EMOTICONS.len() {
        starts[EMOTICONS[i].as_bytes()[0] as usize] = true;
        i += 1;
    }
    starts
};

/// If `rest` *starts with* an emoticon followed by a boundary (whitespace,
/// end, or punctuation that cannot extend the emoticon), return its byte
/// length.
///
/// The tokenizer asks at nearly every token start, so a first byte that
/// begins no listed emoticon (most letters, every digit and every
/// non-ASCII character) answers `None` from one table lookup; only the
/// rest scan the list.
pub fn match_emoticon_at(rest: &str) -> Option<usize> {
    let &first = rest.as_bytes().first()?;
    if !STARTS[first as usize] {
        return None;
    }
    scan_emoticons(rest)
}

/// The ungated scan behind [`match_emoticon_at`]: the first listed
/// emoticon that prefixes `rest` and ends at a boundary.
pub(crate) fn scan_emoticons(rest: &str) -> Option<usize> {
    for e in EMOTICONS {
        if let Some(after) = rest.strip_prefix(e) {
            let boundary = match after.chars().next() {
                None => true,
                Some(c) => {
                    c.is_whitespace()
                        || c.is_alphanumeric() && !e.ends_with(|x: char| x.is_alphanumeric())
                }
            };
            // Also accept further punctuation like "." after the emoticon.
            let boundary = boundary
                || after
                    .chars()
                    .next()
                    .is_some_and(|c| matches!(c, '.' | ',' | '!' | '?'));
            if boundary {
                return Some(e.len());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_membership() {
        assert!(is_emoticon(":)"));
        assert!(is_emoticon("<3"));
        assert!(is_emoticon("^_^"));
        assert!(!is_emoticon(":"));
        assert!(!is_emoticon("hello"));
    }

    #[test]
    fn longest_match_wins() {
        // ":-)" must match as a whole, not ":-" noise.
        assert_eq!(match_emoticon_at(":-) ok"), Some(3));
        assert_eq!(match_emoticon_at(":) ok"), Some(2));
        assert_eq!(match_emoticon_at("</3"), Some(3));
    }

    #[test]
    fn match_at_end_of_input() {
        assert_eq!(match_emoticon_at(":("), Some(2));
        assert_eq!(match_emoticon_at("<3"), Some(2));
    }

    #[test]
    fn match_followed_by_punctuation() {
        assert_eq!(match_emoticon_at(":)."), Some(2));
        assert_eq!(match_emoticon_at(":(!"), Some(2));
    }

    #[test]
    fn no_match_inside_words() {
        assert_eq!(match_emoticon_at("no emoticon"), None);
        assert_eq!(match_emoticon_at("x"), None);
    }

    #[test]
    fn every_listed_emoticon_passes_the_first_byte_gate() {
        for e in EMOTICONS {
            assert!(STARTS[e.as_bytes()[0] as usize], "{e} is gated out");
            assert_eq!(match_emoticon_at(e), Some(e.len()), "{e}");
        }
        // And the gate admits nothing else.
        for b in 0..=u8::MAX {
            let listed = EMOTICONS.iter().any(|e| e.as_bytes()[0] == b);
            assert_eq!(STARTS[b as usize], listed, "byte {b:#04x}");
        }
    }

    #[test]
    fn list_has_no_duplicates() {
        let set: std::collections::HashSet<_> = EMOTICONS.iter().collect();
        assert_eq!(set.len(), EMOTICONS.len());
    }

    #[test]
    fn longer_emoticons_listed_before_their_prefixes() {
        // Greedy scan correctness depends on order: any emoticon that is a
        // strict prefix of another must come later in the list.
        for (i, a) in EMOTICONS.iter().enumerate() {
            for b in &EMOTICONS[..i] {
                assert!(
                    !a.starts_with(b) || a == b,
                    "earlier {b} is a prefix of {a} (index {i}); greedy scan would stop short"
                );
            }
        }
    }
}
