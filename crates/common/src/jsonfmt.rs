//! Minimal hand-rolled JSON *writing* helpers.
//!
//! The workspace has no registry access, so wire-facing crates (the
//! gateway's response envelope, the HTTP server's bodies, the unified
//! stats report) serialize by hand instead of through a real serde. This
//! module keeps the fiddly parts — string escaping and number formatting
//! — in one audited place; structure (objects, arrays, commas) stays at
//! the call site where the shape is visible.
//!
//! Every helper appends to a caller-owned `String` and allocates nothing
//! of its own, so a document rendered into one pre-sized buffer costs no
//! allocation past that buffer's growth. No helper goes through
//! `format!`; only [`push_float`] uses the formatting machinery, because
//! shortest-roundtrip float printing is not worth re-deriving.
//!
//! Writing only: the workspace never *parses* JSON on a hot path, and the
//! bench checker's line-oriented `extract_ints` is deliberately not a
//! parser.

/// Lower-case hex digits for `\uXXXX` escapes.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Append `s` to `out` as a JSON string literal, quotes included.
///
/// Escapes the two mandatory characters (`"`, `\`), the named control
/// shorthands, every other control byte as `\u00XX`, and — because the
/// emitted documents now carry operator-facing identifiers (metric and
/// label names) into transports we don't control — every non-ASCII
/// scalar as `\uXXXX` (UTF-16 surrogate pairs beyond the BMP). The
/// output is therefore pure printable ASCII: safe to embed in logs,
/// headers, and charset-confused clients, and it decodes to the
/// identical Unicode string.
///
/// Runs of plain printable ASCII are copied with one `push_str` each.
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    // `plain..i` is the pending run of bytes that need no escape.
    let mut plain = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if (0x20..0x7F).contains(&b) && b != b'"' && b != b'\\' {
            i += 1;
            continue;
        }
        out.push_str(&s[plain..i]);
        if b < 0x80 {
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                0x08 => out.push_str("\\b"),
                0x0C => out.push_str("\\f"),
                _ => push_unit_escape(out, u16::from(b)),
            }
            i += 1;
        } else {
            let c = s[i..].chars().next().expect("`i` sits on a char boundary");
            let mut units = [0u16; 2];
            for &unit in c.encode_utf16(&mut units).iter() {
                push_unit_escape(out, unit);
            }
            i += c.len_utf8();
        }
        plain = i;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Append one UTF-16 code unit as `\uXXXX` (lower-case hex).
fn push_unit_escape(out: &mut String, unit: u16) {
    out.push_str("\\u");
    for shift in [12, 8, 4, 0] {
        out.push(char::from(HEX[usize::from((unit >> shift) & 0xF)]));
    }
}

/// Append `n` in decimal — the same digits `{}` prints.
pub fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Append an `f64` as a JSON number. JSON has no NaN/Infinity; those
/// degrade to `null` (the conventional lenient mapping) rather than
/// emitting an invalid document.
pub fn push_float(out: &mut String, x: f64) {
    use std::fmt::Write as _;
    if x.is_finite() {
        // `{}` on f64 is shortest-roundtrip, always contains enough
        // precision, and never produces exponent-free ambiguity JSON
        // parsers reject.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn string(s: &str) -> String {
        let mut out = String::new();
        push_str_escaped(&mut out, s);
        out
    }

    fn float(x: f64) -> String {
        let mut out = String::new();
        push_float(&mut out, x);
        out
    }

    /// Decode one JSON string literal (quotes included) — the inverse of
    /// [`push_str_escaped`], strict enough to reject anything it would
    /// not emit: raw controls, unknown escapes, and lone surrogates.
    fn unescape(lit: &str) -> Option<String> {
        let inner = lit.strip_prefix('"')?.strip_suffix('"')?;
        let mut units: Vec<u16> = Vec::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next()? {
                    '"' => units.push(u16::from(b'"')),
                    '\\' => units.push(u16::from(b'\\')),
                    '/' => units.push(u16::from(b'/')),
                    'n' => units.push(u16::from(b'\n')),
                    'r' => units.push(u16::from(b'\r')),
                    't' => units.push(u16::from(b'\t')),
                    'b' => units.push(0x08),
                    'f' => units.push(0x0C),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        if hex.len() != 4 {
                            return None;
                        }
                        units.push(u16::from_str_radix(&hex, 16).ok()?);
                    }
                    _ => return None,
                },
                '"' => return None,
                c if (c as u32) < 0x20 => return None,
                c => {
                    let mut buf = [0u16; 2];
                    units.extend_from_slice(c.encode_utf16(&mut buf));
                }
            }
        }
        String::from_utf16(&units).ok()
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string(""), "\"\"");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
        assert_eq!(string("\u{08}\u{0C}"), "\"\\b\\f\"");
        assert_eq!(string("\u{01}"), "\"\\u0001\"");
        assert_eq!(string("\u{1F}\u{7F}"), "\"\\u001f\\u007f\"");
    }

    #[test]
    fn non_ascii_escapes_to_utf16_units() {
        assert_eq!(string("héllo ✓"), "\"h\\u00e9llo \\u2713\"");
        // Beyond the BMP: UTF-16 surrogate pair.
        assert_eq!(string("\u{1F600}"), "\"\\ud83d\\ude00\"");
        assert_eq!(string("\u{2028}x\u{FFFF}"), "\"\\u2028x\\uffff\"");
        // Output is pure printable ASCII, always.
        for s in ["héllo ✓", "\u{1F600}", "mixé\u{7F}\u{0}"] {
            assert!(
                string(s).bytes().all(|b| (0x20..0x7F).contains(&b)),
                "non-ASCII leaked for {s:?}"
            );
        }
    }

    #[test]
    fn escaped_strings_stay_mandatory_json() {
        // Quote/backslash positions in the escaped output only ever
        // come from the escape sequences themselves.
        let out = string("a\"b\\c\u{00e9}");
        assert_eq!(out, "\"a\\\"b\\\\c\\u00e9\"");
        assert!(!out[1..out.len() - 1].contains("\u{00e9}"));
    }

    #[test]
    fn uints_print_like_display() {
        for n in [0, 1, 9, 10, 99, 100, 4_096, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::from("x");
            push_uint(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn floats_render_finite_values_and_null_otherwise() {
        assert_eq!(float(1.5), "1.5");
        assert_eq!(float(0.0), "0");
        assert_eq!(float(-0.0), "-0");
        assert_eq!(float(-2.25), "-2.25");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(float(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn the_unescaper_rejects_what_the_writer_never_emits() {
        assert_eq!(unescape("\"a\\u00e9\"").as_deref(), Some("aé"));
        assert_eq!(unescape("\"\\ud83d\\ude00\"").as_deref(), Some("\u{1F600}"));
        assert_eq!(unescape("\"\\ud83d\""), None, "lone surrogate");
        assert_eq!(unescape("\"\\x\""), None, "unknown escape");
        assert_eq!(unescape("\"a\"b\""), None, "raw quote");
        assert_eq!(unescape("\"\n\""), None, "raw control");
        assert_eq!(unescape("\"\\u12\""), None, "short escape");
    }

    /// Characters from every class the escaper distinguishes: printable
    /// ASCII, the named and unnamed controls, DEL, the line/paragraph
    /// separators, the rest of the BMP, and astral code points.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            proptest::char::range(' ', '~'),
            proptest::char::range('\0', '\u{1F}'),
            Just('"'),
            Just('\\'),
            Just('\u{7F}'),
            Just('\u{2028}'),
            Just('\u{2029}'),
            proptest::char::range('\u{80}', '\u{FFFF}'),
            proptest::char::range('\u{10000}', char::MAX),
        ]
    }

    proptest! {
        #[test]
        fn escaped_output_is_printable_ascii_and_round_trips(
            chars in proptest::collection::vec(any_char(), 0..48)
        ) {
            let s: String = chars.into_iter().collect();
            let mut out = String::from("prefix ");
            push_str_escaped(&mut out, &s);
            let lit = &out["prefix ".len()..];
            prop_assert!(
                lit.bytes().all(|b| (0x20..0x7F).contains(&b)),
                "non-printable byte in {:?}", lit
            );
            prop_assert_eq!(unescape(lit), Some(s));
        }
    }
}
