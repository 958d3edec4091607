//! Levenshtein distance: full and bounded variants.
//!
//! The Look Up hot path calls [`levenshtein_bounded_scratch`] once per
//! bucket candidate; it reuses caller-provided buffers ([`EditScratch`])
//! and takes an ASCII byte-slice fast path, so the per-candidate cost is
//! pure DP work with zero heap allocation after warm-up. ASCII pairs whose
//! shorter side fits in a machine word after common-affix trimming run
//! [`myers_ascii`] — Myers' bit-parallel algorithm, `O(n)` single-word
//! operations instead of `O(d·n)` DP cells — with the banded DP kept as
//! the fallback (long or non-ASCII inputs) and as the differential
//! reference in tests.

/// Reusable working memory for [`levenshtein_bounded_scratch`].
///
/// One instance per thread (or per bulk request) amortizes the two DP rows,
/// the Myers pattern-bitmap table, and, for non-ASCII inputs, the
/// char-decoding buffers across millions of candidate comparisons.
#[derive(Debug, Default, Clone)]
pub struct EditScratch {
    prev: Vec<u32>,
    curr: Vec<u32>,
    a_chars: Vec<char>,
    b_chars: Vec<char>,
    /// 128-entry `Eq` bitmap for [`myers_ascii`], indexed by ASCII byte.
    /// Entries touched by a pattern are zeroed again after each call, so
    /// the table never needs a full wipe.
    peq: Vec<u64>,
}

impl EditScratch {
    /// Fresh scratch space (allocates lazily on first use).
    pub fn new() -> Self {
        EditScratch::default()
    }
}

/// Bounded Levenshtein over strings using caller-provided scratch buffers.
///
/// Semantically identical to [`levenshtein_bounded`] — returns `Some(d)`
/// when `d = lev(a, b) <= max`, else `None` — but allocation-free per call:
/// ASCII inputs run bit-parallel [`myers_ascii`] (or the banded DP beyond
/// 64 chars) directly over bytes, and non-ASCII inputs decode into reusable
/// char buffers inside `scratch`.
pub fn levenshtein_bounded_scratch(
    a: &str,
    b: &str,
    max: usize,
    scratch: &mut EditScratch,
) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    if a.is_ascii() && b.is_ascii() {
        let (a, b) = trim_common_affixes(a.as_bytes(), b.as_bytes());
        return bounded_ascii(a, b, max, scratch);
    }
    scratch.a_chars.clear();
    scratch.a_chars.extend(a.chars());
    scratch.b_chars.clear();
    scratch.b_chars.extend(b.chars());
    let (a, b) = trim_common_affixes(&scratch.a_chars, &scratch.b_chars);
    banded_dp(a, b, max, &mut scratch.prev, &mut scratch.curr)
}

/// The ASCII dispatcher behind [`levenshtein_bounded_scratch`]: shares the
/// length-gap / empty / single-char closed forms with [`banded_dp`], then
/// routes word-sized patterns to [`myers_ascii`] and everything else to the
/// banded DP.
fn bounded_ascii(a: &[u8], b: &[u8], max: usize, scratch: &mut EditScratch) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > max {
        return None;
    }
    if short.is_empty() {
        return (long.len() <= max).then_some(long.len());
    }
    if short.len() == 1 {
        let hit = long.contains(&short[0]);
        let d = long.len() - usize::from(hit);
        return (d <= max).then_some(d);
    }
    if short.len() <= 64 {
        let d = myers_ascii_impl(short, long, scratch);
        return (d <= max).then_some(d);
    }
    banded_dp(short, long, max, &mut scratch.prev, &mut scratch.curr)
}

/// Myers' bit-parallel Levenshtein distance (the 1999 `O(⌈m/w⌉·n)`
/// algorithm, single-word case): exact edit distance between an ASCII
/// `pattern` of length `1..=64` and an ASCII `text`, in one pass over
/// `text` with a constant number of word operations per byte.
///
/// The pattern's `Eq` bitmaps live in `scratch` (128 lazily-allocated
/// entries); only the entries a pattern actually touches are set and then
/// cleared, so reusing one scratch across millions of calls never rescans
/// the table.
///
/// # Panics
///
/// Panics when `pattern.len()` is outside `1..=64` or either input holds a
/// non-ASCII byte. Both are validated **before** any scratch state is
/// touched, so a rejected call can never poison the reusable bitmaps
/// (enforced in release builds too; the internal hot path skips the scans
/// because [`levenshtein_bounded_scratch`] guarantees the preconditions).
pub fn myers_ascii(pattern: &[u8], text: &[u8], scratch: &mut EditScratch) -> usize {
    assert!(
        (1..=64).contains(&pattern.len()),
        "pattern must fit one 64-bit word"
    );
    assert!(
        pattern.is_ascii() && text.is_ascii(),
        "inputs must be ASCII"
    );
    myers_ascii_impl(pattern, text, scratch)
}

/// [`myers_ascii`] without the precondition scans, for callers that have
/// already guaranteed ASCII word-sized inputs.
fn myers_ascii_impl(pattern: &[u8], text: &[u8], scratch: &mut EditScratch) -> usize {
    let m = pattern.len();
    debug_assert!((1..=64).contains(&m), "pattern must fit one word");
    debug_assert!(pattern.is_ascii() && text.is_ascii());
    let peq = &mut scratch.peq;
    if peq.is_empty() {
        peq.resize(128, 0);
    }
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }

    // Vertical positive/negative delta words; score tracks the DP cell
    // D[m][j] as j walks the text.
    let mut pv: u64 = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
    let mut mv: u64 = 0;
    let mut score = m;
    let high = 1u64 << (m - 1);
    for &c in text {
        let eq = peq[c as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & high != 0 {
            score += 1;
        }
        if mh & high != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }

    for &c in pattern {
        peq[c as usize] = 0;
    }
    score
}

/// Strip the longest common prefix and suffix — neither contributes edits,
/// and real-world perturbations share most of their characters with the
/// clean form, so this usually collapses the DP to a few cells.
#[inline]
fn trim_common_affixes<'s, T: Copy + PartialEq>(
    mut a: &'s [T],
    mut b: &'s [T],
) -> (&'s [T], &'s [T]) {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    a = &a[prefix..];
    b = &b[prefix..];
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (&a[..a.len() - suffix], &b[..b.len() - suffix])
}

/// The banded two-row DP shared by the scratch and allocating entry points.
/// `prev`/`curr` are resized (not reallocated once warm) to `min(n,m)+1`.
fn banded_dp<T: Copy + PartialEq>(
    a: &[T],
    b: &[T],
    max: usize,
    prev: &mut Vec<u32>,
    curr: &mut Vec<u32>,
) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > max {
        return None;
    }
    if short.is_empty() {
        return (long.len() <= max).then_some(long.len());
    }
    if short.len() == 1 {
        // Closed form: align the lone element against `long` — one
        // substitution saved iff it occurs anywhere in `long`. After
        // affix trimming most real perturbation pairs land here.
        let hit = long.contains(&short[0]);
        let d = long.len() - usize::from(hit);
        return (d <= max).then_some(d);
    }

    const INF: u32 = u32::MAX / 2;
    let n = short.len();
    prev.clear();
    prev.resize(n + 1, INF);
    curr.clear();
    curr.resize(n + 1, INF);
    for (j, p) in prev.iter_mut().enumerate().take(max.min(n) + 1) {
        *p = j as u32;
    }

    for (i, &lc) in long.iter().enumerate() {
        let row = i + 1;
        let lo = row.saturating_sub(max);
        let hi = row.saturating_add(max).min(n);
        if lo > hi {
            return None;
        }
        curr[lo.saturating_sub(1)] = INF;
        let mut row_min = INF;
        for j in lo..=hi {
            let val = if j == 0 {
                row as u32
            } else {
                let cost = u32::from(lc != short[j - 1]);
                let diag = prev[j - 1].saturating_add(cost);
                let up = prev[j].saturating_add(1);
                let left = curr[j - 1].saturating_add(1);
                diag.min(up).min(left)
            };
            curr[j] = val;
            row_min = row_min.min(val);
        }
        if row_min as usize > max {
            return None;
        }
        if lo > 0 {
            curr[lo - 1] = INF;
        }
        if hi < n {
            curr[hi + 1] = INF;
        }
        std::mem::swap(prev, curr);
    }
    let d = prev[n] as usize;
    (d <= max).then_some(d)
}

/// Classic Levenshtein distance over Unicode scalar values, using the
/// two-row dynamic program (`O(n·m)` time, `O(min(n, m))` space).
pub fn levenshtein(a: &str, b: &str) -> usize {
    // Fast paths.
    if a == b {
        return 0;
    }
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    levenshtein_chars(&a_chars, &b_chars)
}

/// Levenshtein over pre-split char slices; exposed for callers that reuse
/// the decomposition (the Look Up hot path decomposes the query once).
pub fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    // Keep the shorter string in the inner dimension for less memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr: Vec<usize> = vec![0; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost) // substitute
                .min(prev[j + 1] + 1) // delete from long
                .min(curr[j] + 1); // insert into long
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// Bounded Levenshtein: returns `Some(d)` when `d = lev(a, b) <= max`, else
/// `None`.
///
/// Runs the DP restricted to a diagonal band of half-width `max`
/// (`O(max · min(n, m))`) and exits as soon as every cell in a row exceeds
/// the bound. This is the work-horse of SMS filtering: with the paper's
/// default `d = 3`, buckets of thousands of candidates are filtered with a
/// handful of band cells each.
pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    levenshtein_bounded_chars(&a_chars, &b_chars, max)
}

/// Char-slice version of [`levenshtein_bounded`].
pub fn levenshtein_bounded_chars(a: &[char], b: &[char], max: usize) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Length difference is a lower bound on the distance.
    if long.len() - short.len() > max {
        return None;
    }
    if short.is_empty() {
        return (long.len() <= max).then_some(long.len());
    }

    const INF: usize = usize::MAX / 2;
    let n = short.len();
    let mut prev: Vec<usize> = vec![INF; n + 1];
    let mut curr: Vec<usize> = vec![INF; n + 1];
    // Row 0: distance from empty prefix of `long`.
    for (j, p) in prev.iter_mut().enumerate().take(max.min(n) + 1) {
        *p = j;
    }

    for (i, &lc) in long.iter().enumerate() {
        // Band for row i+1: columns where |(i+1) - j| <= max.
        let row = i + 1;
        let lo = row.saturating_sub(max);
        let hi = row.saturating_add(max).min(n);
        if lo > hi {
            return None;
        }
        curr[lo.saturating_sub(1)] = INF; // left neighbour of band start
        let mut row_min = INF;
        for j in lo..=hi {
            let val = if j == 0 {
                row
            } else {
                let cost = usize::from(lc != short[j - 1]);
                let diag = prev[j - 1].saturating_add(cost);
                let up = prev[j].saturating_add(1);
                let left = curr[j - 1].saturating_add(1);
                diag.min(up).min(left)
            };
            curr[j] = val;
            row_min = row_min.min(val);
        }
        if row_min > max {
            return None;
        }
        // Reset cells outside next band to INF lazily via swap pattern:
        // cells outside [lo, hi] in `curr` may hold stale values; clear the
        // immediate neighbours that the next row can read.
        if lo > 0 {
            curr[lo - 1] = INF;
        }
        if hi < n {
            curr[hi + 1] = INF;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[n];
    (d <= max).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
    }

    #[test]
    fn paper_perturbation_distances() {
        // §III-B: repubLIEcans is distance 1 (case-insensitive) from republicans.
        assert_eq!(levenshtein("republicans", "republiecans"), 1);
        assert_eq!(levenshtein("republicans", "republic@@ns"), 2);
        assert_eq!(levenshtein("democrats", "demokrats"), 1);
        assert_eq!(
            levenshtein("democrats", "demorcats"),
            2,
            "swap = 2 plain edits"
        );
        assert_eq!(levenshtein("suicide", "suic1de"), 1);
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        // Cyrillic а for Latin a: one substitution, though 2 bytes differ.
        assert_eq!(levenshtein("paypal", "p\u{0430}ypal"), 1);
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn bounded_exact_values() {
        assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
        assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_bounded("abc", "abc", 0), Some(0));
        assert_eq!(levenshtein_bounded("abc", "abd", 0), None);
    }

    #[test]
    fn bounded_length_gap_shortcut() {
        // Length difference alone exceeds the bound — must not run the DP.
        assert_eq!(levenshtein_bounded("a", "aaaaaaaaaa", 3), None);
        assert_eq!(levenshtein_bounded("", "abcd", 3), None);
        assert_eq!(levenshtein_bounded("", "abc", 3), Some(3));
    }

    #[test]
    fn bounded_zero_max() {
        assert_eq!(levenshtein_bounded("same", "same", 0), Some(0));
        assert_eq!(levenshtein_bounded("same", "sane", 0), None);
    }

    #[test]
    fn bounded_large_max_equals_full() {
        let pairs = [
            ("democrats", "republicans"),
            ("abcdef", "fedcba"),
            ("aaa", "bbbb"),
        ];
        for (a, b) in pairs {
            assert_eq!(levenshtein_bounded(a, b, 100), Some(levenshtein(a, b)));
        }
    }

    #[test]
    fn char_slice_api_matches_str_api() {
        let a: Vec<char> = "perturbation".chars().collect();
        let b: Vec<char> = "perturbaton".chars().collect();
        assert_eq!(
            levenshtein_chars(&a, &b),
            levenshtein("perturbation", "perturbaton")
        );
        assert_eq!(
            levenshtein_bounded_chars(&a, &b, 2),
            levenshtein_bounded("perturbation", "perturbaton", 2)
        );
    }

    #[test]
    fn scratch_variant_matches_allocating_variant() {
        let mut scratch = EditScratch::new();
        let pairs = [
            ("kitten", "sitting"),
            ("republicans", "republic@@ns"),
            ("café", "cafe"),
            ("p\u{0430}ypal", "paypal"),
            ("", "abc"),
            ("same", "same"),
            ("a", "aaaaaaaaaa"),
        ];
        for (a, b) in pairs {
            for max in 0..6 {
                assert_eq!(
                    levenshtein_bounded_scratch(a, b, max, &mut scratch),
                    levenshtein_bounded(a, b, max),
                    "{a:?} vs {b:?} at max {max}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_across_mixed_ascii_unicode_calls() {
        // Interleave ASCII and non-ASCII comparisons through one scratch to
        // catch stale-buffer bugs.
        let mut scratch = EditScratch::new();
        assert_eq!(
            levenshtein_bounded_scratch("abcdef", "abXdef", 3, &mut scratch),
            Some(1)
        );
        assert_eq!(
            levenshtein_bounded_scratch("naïve", "naive", 3, &mut scratch),
            Some(1)
        );
        assert_eq!(
            levenshtein_bounded_scratch("abc", "abc", 3, &mut scratch),
            Some(0)
        );
        assert_eq!(
            levenshtein_bounded_scratch("żółć", "zolc", 4, &mut scratch),
            Some(4)
        );
        assert_eq!(
            levenshtein_bounded_scratch("longerword", "cut", 3, &mut scratch),
            None
        );
    }

    #[test]
    fn myers_matches_classic_dp_on_textbook_cases() {
        let mut scratch = EditScratch::new();
        let pairs = [
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("republicans", "republic@@ns"),
            ("democrats", "demorcats"),
            ("ab", "abcdef"),
            ("abcdef", "ab"),
            ("xy", "xy"),
        ];
        for (a, b) in pairs {
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            assert_eq!(
                myers_ascii(short.as_bytes(), long.as_bytes(), &mut scratch),
                levenshtein(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn myers_full_word_pattern() {
        // 64-byte pattern exercises the m == 64 mask edge (1 << 64 would
        // overflow; the implementation must use u64::MAX).
        let mut scratch = EditScratch::new();
        let a = "a".repeat(64);
        let mut b = a.clone();
        b.replace_range(10..11, "b");
        b.push('c');
        assert_eq!(myers_ascii(a.as_bytes(), b.as_bytes(), &mut scratch), 2);
        assert_eq!(
            myers_ascii(a.as_bytes(), a.as_bytes(), &mut scratch),
            0,
            "identical full-word inputs"
        );
    }

    #[test]
    fn myers_scratch_reuse_clears_pattern_bitmaps() {
        // A second call whose pattern shares bytes with the first must not
        // see stale Eq bits.
        let mut scratch = EditScratch::new();
        assert_eq!(myers_ascii(b"abc", b"abd", &mut scratch), 1);
        assert_eq!(myers_ascii(b"cba", b"abc", &mut scratch), 2);
        assert_eq!(myers_ascii(b"zz", b"azza", &mut scratch), 2);
    }

    #[test]
    fn scratch_routes_long_ascii_through_banded_fallback() {
        // Shorter side > 64 bytes after trimming: Myers cannot apply, and
        // the banded fallback must agree with the allocating variant.
        let mut scratch = EditScratch::new();
        let a: String = (0..80).map(|i| char::from(b'a' + (i % 7) as u8)).collect();
        let b: String = (0..83).map(|i| char::from(b'a' + (i % 5) as u8)).collect();
        for max in [0, 3, 60, 100] {
            assert_eq!(
                levenshtein_bounded_scratch(&a, &b, max, &mut scratch),
                levenshtein_bounded(&a, &b, max),
                "max {max}"
            );
        }
    }

    #[test]
    fn huge_bounds_saturate_the_band() {
        // A client-supplied `d` can be any usize. The band's right edge
        // `row + max` overflowed on the banded paths (non-ASCII pairs, and
        // ASCII pairs whose shorter side exceeds 64 bytes after trimming).
        let mut scratch = EditScratch::new();
        let a: String = (0..80).map(|i| char::from(b'a' + (i % 7) as u8)).collect();
        let b: String = (0..83).map(|i| char::from(b'a' + (i % 5) as u8)).collect();
        for (a, b) in [("ãbcdë", "xbcdy"), (a.as_str(), b.as_str())] {
            let want = Some(levenshtein(a, b));
            let (a_chars, b_chars): (Vec<char>, Vec<char>) =
                (a.chars().collect(), b.chars().collect());
            for max in [usize::MAX, usize::MAX - 1] {
                assert_eq!(
                    levenshtein_bounded_scratch(a, b, max, &mut scratch),
                    want,
                    "scratch path, {a:?} vs {b:?} at max {max}"
                );
                assert_eq!(
                    levenshtein_bounded_chars(&a_chars, &b_chars, max),
                    want,
                    "chars path, {a:?} vs {b:?} at max {max}"
                );
            }
        }
    }

    #[test]
    fn asymmetric_lengths_both_orders() {
        assert_eq!(levenshtein("ab", "abcdef"), 4);
        assert_eq!(levenshtein("abcdef", "ab"), 4);
        assert_eq!(levenshtein_bounded("ab", "abcdef", 4), Some(4));
        assert_eq!(levenshtein_bounded("abcdef", "ab", 4), Some(4));
    }
}
