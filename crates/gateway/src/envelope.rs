//! The unified request/response envelope — one typed entry point for
//! every route, so wire layers (HTTP, benches, tests) speak a single
//! vocabulary instead of three ad-hoc method signatures.
//!
//! A [`Request`] is route + input + parameters + per-call options; the
//! route is implied by the parameter variant, so a request can never
//! pair Lookup parameters with the Normalize lane. A [`Response`] is an
//! output plus the metadata a cache in front of the service needs: the
//! data generation the result was computed under and a
//! [`CacheDisposition`] saying whether tier-1 served it.
//!
//! In-process callers match on the typed [`RouteOutput`]; wire layers
//! take the JSON body rendered from the shared tier-1 entry. Both bodies
//! come from the same per-route writers, so the wire format lives in one
//! place.

use std::sync::Arc;

use cryptext_common::jsonfmt;
use cryptext_core::lookup::{LookupHit, LookupParams};
use cryptext_core::normalize::{NormalizationResult, NormalizeParams};
use cryptext_core::perturb::{PerturbParams, PerturbationOutcome};
use cryptext_core::service::Served;

use crate::gateway::CallOptions;
use crate::RouteClass;

/// Parameters for one route; the variant *is* the route selection.
#[derive(Debug, Clone, Copy)]
pub enum RouteParams {
    /// Look Up: `P_x` retrieval for one token.
    Lookup(LookupParams),
    /// Normalization: perturbed text back to dictionary words.
    Normalize(NormalizeParams),
    /// Perturbation: rewriting a text with database perturbations.
    Perturb(PerturbParams),
}

impl RouteParams {
    /// The route class these parameters select.
    pub fn route(&self) -> RouteClass {
        match self {
            RouteParams::Lookup(_) => RouteClass::Lookup,
            RouteParams::Normalize(_) => RouteClass::Normalize,
            RouteParams::Perturb(_) => RouteClass::Perturb,
        }
    }
}

/// One request through the gateway: the input text (a token for Look Up,
/// a whole text otherwise), the route-selecting parameters, and per-call
/// overrides.
#[derive(Debug, Clone)]
pub struct Request {
    /// The query token (Lookup) or source text (Normalize/Perturb).
    pub input: String,
    /// Route + parameters.
    pub params: RouteParams,
    /// Per-call deadline/retry overrides.
    pub opts: CallOptions,
}

impl Request {
    /// A Look Up request with default call options.
    pub fn lookup(token: impl Into<String>, params: LookupParams) -> Self {
        Request {
            input: token.into(),
            params: RouteParams::Lookup(params),
            opts: CallOptions::default(),
        }
    }

    /// A Normalization request with default call options.
    pub fn normalize(text: impl Into<String>, params: NormalizeParams) -> Self {
        Request {
            input: text.into(),
            params: RouteParams::Normalize(params),
            opts: CallOptions::default(),
        }
    }

    /// A Perturbation request with default call options.
    pub fn perturb(text: impl Into<String>, params: PerturbParams) -> Self {
        Request {
            input: text.into(),
            params: RouteParams::Perturb(params),
            opts: CallOptions::default(),
        }
    }

    /// Replace the call options.
    pub fn with_opts(mut self, opts: CallOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The route class this request targets.
    pub fn route(&self) -> RouteClass {
        self.params.route()
    }
}

/// Typed output of one route.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteOutput {
    /// Look Up hits, rank order.
    Lookup(Vec<LookupHit>),
    /// The normalized text with its corrections.
    Normalize(NormalizationResult),
    /// The perturbed text with its replacements.
    Perturb(PerturbationOutcome),
}

impl RouteOutput {
    /// The wire body: a JSON document per route (see `crates/http`'s
    /// README for the exact shapes).
    pub fn to_json(&self) -> String {
        match self {
            RouteOutput::Lookup(hits) => lookup_json(hits),
            RouteOutput::Normalize(r) => normalize_json(r),
            RouteOutput::Perturb(o) => perturb_json(o),
        }
    }
}

/// A route's output as the execution path carries it: the cacheable
/// routes hold the tier-1 entry itself, shared by reference count, and
/// Perturbation holds the outcome it just drew. Coalesced followers
/// receive a clone of this, so they share the leader's entry too.
#[derive(Debug, Clone)]
pub(crate) enum SharedOutput {
    Lookup(Arc<[LookupHit]>),
    Normalize(Arc<NormalizationResult>),
    Perturb(PerturbationOutcome),
}

impl SharedOutput {
    /// The owned [`RouteOutput`]: copies a shared entry out of tier-1.
    pub(crate) fn into_owned(self) -> RouteOutput {
        match self {
            SharedOutput::Lookup(hits) => RouteOutput::Lookup(hits.to_vec()),
            SharedOutput::Normalize(r) => RouteOutput::Normalize(NormalizationResult::clone(&r)),
            SharedOutput::Perturb(o) => RouteOutput::Perturb(o),
        }
    }

    /// The wire body, rendered from the borrowed value
    /// (byte-identical to [`RouteOutput::to_json`]).
    pub(crate) fn to_json(&self) -> String {
        match self {
            SharedOutput::Lookup(hits) => lookup_json(hits),
            SharedOutput::Normalize(r) => normalize_json(r),
            SharedOutput::Perturb(o) => perturb_json(o),
        }
    }
}

// The per-route JSON writers: each writes straight into one `String`
// pre-sized from the item count, through the allocation-free [`jsonfmt`]
// writers.

fn lookup_json(hits: &[LookupHit]) -> String {
    let mut out = String::with_capacity(16 + 80 * hits.len());
    out.push_str("{\"hits\":[");
    for (i, h) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"token\":");
        jsonfmt::push_str_escaped(&mut out, &h.token);
        out.push_str(",\"count\":");
        jsonfmt::push_uint(&mut out, h.count);
        out.push_str(",\"distance\":");
        jsonfmt::push_uint(&mut out, h.distance as u64);
        out.push_str(if h.is_english {
            ",\"is_english\":true}"
        } else {
            ",\"is_english\":false}"
        });
    }
    out.push_str("]}");
    out
}

fn normalize_json(r: &NormalizationResult) -> String {
    let candidates: usize = r.corrections.iter().map(|c| c.candidates.len()).sum();
    let mut out =
        String::with_capacity(32 + 2 * r.text.len() + 128 * r.corrections.len() + 64 * candidates);
    out.push_str("{\"text\":");
    jsonfmt::push_str_escaped(&mut out, &r.text);
    out.push_str(",\"corrections\":[");
    for (i, c) in r.corrections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"original\":");
        jsonfmt::push_str_escaped(&mut out, &c.original);
        out.push_str(",\"replacement\":");
        jsonfmt::push_str_escaped(&mut out, &c.replacement);
        out.push_str(",\"start\":");
        jsonfmt::push_uint(&mut out, c.span.start as u64);
        out.push_str(",\"end\":");
        jsonfmt::push_uint(&mut out, c.span.end as u64);
        out.push_str(",\"score\":");
        jsonfmt::push_float(&mut out, c.score);
        out.push_str(",\"candidates\":[");
        for (j, cand) in c.candidates.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"word\":");
            jsonfmt::push_str_escaped(&mut out, &cand.word);
            out.push_str(",\"score\":");
            jsonfmt::push_float(&mut out, cand.score);
            out.push_str(",\"distance\":");
            jsonfmt::push_uint(&mut out, cand.distance as u64);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn perturb_json(o: &PerturbationOutcome) -> String {
    let mut out = String::with_capacity(48 + 2 * o.text.len() + 96 * o.replacements.len());
    out.push_str("{\"text\":");
    jsonfmt::push_str_escaped(&mut out, &o.text);
    out.push_str(",\"replacements\":[");
    for (i, r) in o.replacements.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"original\":");
        jsonfmt::push_str_escaped(&mut out, &r.original);
        out.push_str(",\"replacement\":");
        jsonfmt::push_str_escaped(&mut out, &r.replacement);
        out.push_str(",\"start\":");
        jsonfmt::push_uint(&mut out, r.span.start as u64);
        out.push_str(",\"end\":");
        jsonfmt::push_uint(&mut out, r.span.end as u64);
        out.push('}');
    }
    out.push_str("],\"misses\":");
    jsonfmt::push_uint(&mut out, o.misses as u64);
    out.push('}');
    out
}

/// How the service answered, from a front cache's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Tier-1 served the exact result without recomputation. Coalesced
    /// followers inherit their leader's disposition — the cohort shared
    /// one execution, hit or not.
    Hit,
    /// The result was computed (and is now cached for the next caller).
    Cold,
    /// The route is uncacheable (Perturbation re-rolls its RNG per call).
    Bypass,
}

impl CacheDisposition {
    /// Stable lower-case label (the `X-Cryptext-Cache` header value).
    pub fn label(&self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Cold => "cold",
            CacheDisposition::Bypass => "bypass",
        }
    }

    /// Can a cache in front of the service store this response at all?
    pub fn cacheable(&self) -> bool {
        !matches!(self, CacheDisposition::Bypass)
    }

    pub(crate) fn from_served(served: Served) -> Self {
        match served {
            Served::Tier1Hit => CacheDisposition::Hit,
            Served::Cold => CacheDisposition::Cold,
        }
    }
}

/// One response from the gateway: an output plus the metadata a
/// CDN-style cache keys on. [`Gateway::handle`](crate::Gateway::handle)
/// returns the typed [`RouteOutput`];
/// [`Gateway::handle_json`](crate::Gateway::handle_json) returns the JSON
/// wire body as a `Response<String>`.
#[derive(Debug, Clone)]
pub struct Response<O = RouteOutput> {
    /// The route output: typed, or the JSON wire body.
    pub output: O,
    /// Data generation the result was computed under; bumps on ingest.
    pub generation: u64,
    /// Whether tier-1 served it (drives `Cache-Control`/`Age` hints).
    pub cache: CacheDisposition,
}

/// The `format!`-based renderer [`RouteOutput::to_json`] replaced, with
/// the escaper and float formatter it used, kept as the byte-identity
/// reference for the proptest below.
#[cfg(test)]
mod reference {
    use super::RouteOutput;
    use std::fmt::Write as _;

    fn push_str_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 || (c as u32) > 0x7E => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        let _ = write!(out, "\\u{unit:04x}");
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn float(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        }
    }

    pub(super) fn to_json(output: &RouteOutput) -> String {
        let mut out = String::with_capacity(128);
        match output {
            RouteOutput::Lookup(hits) => {
                out.push_str("{\"hits\":[");
                for (i, h) in hits.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"token\":");
                    push_str_escaped(&mut out, &h.token);
                    out.push_str(&format!(
                        ",\"count\":{},\"distance\":{},\"is_english\":{}}}",
                        h.count, h.distance, h.is_english
                    ));
                }
                out.push_str("]}");
            }
            RouteOutput::Normalize(r) => {
                out.push_str("{\"text\":");
                push_str_escaped(&mut out, &r.text);
                out.push_str(",\"corrections\":[");
                for (i, c) in r.corrections.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"original\":");
                    push_str_escaped(&mut out, &c.original);
                    out.push_str(",\"replacement\":");
                    push_str_escaped(&mut out, &c.replacement);
                    out.push_str(&format!(
                        ",\"start\":{},\"end\":{},\"score\":{},\"candidates\":[",
                        c.span.start,
                        c.span.end,
                        float(c.score)
                    ));
                    for (j, cand) in c.candidates.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"word\":");
                        push_str_escaped(&mut out, &cand.word);
                        out.push_str(&format!(
                            ",\"score\":{},\"distance\":{}}}",
                            float(cand.score),
                            cand.distance
                        ));
                    }
                    out.push_str("]}");
                }
                out.push_str("]}");
            }
            RouteOutput::Perturb(o) => {
                out.push_str("{\"text\":");
                push_str_escaped(&mut out, &o.text);
                out.push_str(",\"replacements\":[");
                for (i, r) in o.replacements.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"original\":");
                    push_str_escaped(&mut out, &r.original);
                    out.push_str(",\"replacement\":");
                    push_str_escaped(&mut out, &r.replacement);
                    out.push_str(&format!(
                        ",\"start\":{},\"end\":{}}}",
                        r.span.start, r.span.end
                    ));
                }
                out.push_str(&format!("],\"misses\":{}}}", o.misses));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_core::normalize::{Candidate, Correction};
    use cryptext_core::perturb::AppliedPerturbation;
    use proptest::prelude::*;

    #[test]
    fn params_variant_selects_the_route() {
        assert_eq!(
            Request::lookup("x", LookupParams::paper_default()).route(),
            RouteClass::Lookup
        );
        assert_eq!(
            Request::normalize("x", NormalizeParams::default()).route(),
            RouteClass::Normalize
        );
        assert_eq!(
            Request::perturb("x", PerturbParams::with_ratio(0.5)).route(),
            RouteClass::Perturb
        );
    }

    #[test]
    fn lookup_json_shape() {
        let out = RouteOutput::Lookup(vec![LookupHit {
            token: "va\"xx".into(),
            count: 3,
            distance: 1,
            is_english: false,
        }]);
        assert_eq!(
            out.to_json(),
            r#"{"hits":[{"token":"va\"xx","count":3,"distance":1,"is_english":false}]}"#
        );
        assert_eq!(RouteOutput::Lookup(vec![]).to_json(), r#"{"hits":[]}"#);
    }

    #[test]
    fn normalize_json_shape() {
        let out = RouteOutput::Normalize(NormalizationResult {
            text: "the vaccine".into(),
            corrections: vec![Correction {
                original: "vacc1ne".into(),
                replacement: "vaccine".into(),
                span: 4..11,
                score: 1.5,
                candidates: vec![Candidate {
                    word: "vaccine".into(),
                    score: 1.5,
                    distance: 1,
                }],
            }],
        });
        assert_eq!(
            out.to_json(),
            concat!(
                r#"{"text":"the vaccine","corrections":[{"original":"vacc1ne","#,
                r#""replacement":"vaccine","start":4,"end":11,"score":1.5,"#,
                r#""candidates":[{"word":"vaccine","score":1.5,"distance":1}]}]}"#
            )
        );
    }

    #[test]
    fn perturb_json_shape() {
        let out = RouteOutput::Perturb(PerturbationOutcome {
            text: "the vacc1ne".into(),
            replacements: vec![AppliedPerturbation {
                original: "vaccine".into(),
                replacement: "vacc1ne".into(),
                span: 4..11,
            }],
            misses: 2,
        });
        assert_eq!(
            out.to_json(),
            concat!(
                r#"{"text":"the vacc1ne","replacements":[{"original":"vaccine","#,
                r#""replacement":"vacc1ne","start":4,"end":11}],"misses":2}"#
            )
        );
    }

    /// Characters from every class the escaper distinguishes, from
    /// printable ASCII and controls to U+2028 and astral code points.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            proptest::char::range(' ', '~'),
            proptest::char::range('\0', '\u{1F}'),
            Just('"'),
            Just('\\'),
            Just('\u{7F}'),
            Just('\u{2028}'),
            proptest::char::range('\u{80}', '\u{FFFF}'),
            proptest::char::range('\u{10000}', char::MAX),
        ]
    }

    fn any_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(any_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
    }

    /// Every bit pattern (NaN payloads, subnormals, ±∞) plus the values
    /// where `{}` switches notation or prints a sign.
    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            any::<f64>(),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(1e-7),
            Just(1e21),
        ]
    }

    fn any_output() -> impl Strategy<Value = RouteOutput> {
        let hit = (any_string(), any::<u64>(), any::<usize>(), any::<bool>()).prop_map(
            |(token, count, distance, is_english)| LookupHit {
                token,
                count,
                distance,
                is_english,
            },
        );
        let candidate =
            (any_string(), any_f64(), any::<usize>()).prop_map(|(word, score, distance)| {
                Candidate {
                    word,
                    score,
                    distance,
                }
            });
        let correction = (
            (any_string(), any_string()),
            (any::<usize>(), any::<usize>()),
            any_f64(),
            proptest::collection::vec(candidate, 0..4),
        )
            .prop_map(
                |((original, replacement), (start, end), score, candidates)| Correction {
                    original,
                    replacement,
                    span: start..end,
                    score,
                    candidates,
                },
            );
        let applied = (any_string(), any_string(), any::<usize>(), any::<usize>()).prop_map(
            |(original, replacement, start, end)| AppliedPerturbation {
                original,
                replacement,
                span: start..end,
            },
        );
        prop_oneof![
            proptest::collection::vec(hit, 0..6).prop_map(RouteOutput::Lookup),
            (any_string(), proptest::collection::vec(correction, 0..4)).prop_map(
                |(text, corrections)| RouteOutput::Normalize(NormalizationResult {
                    text,
                    corrections,
                })
            ),
            (
                any_string(),
                proptest::collection::vec(applied, 0..4),
                any::<usize>()
            )
                .prop_map(|(text, replacements, misses)| {
                    RouteOutput::Perturb(PerturbationOutcome {
                        text,
                        replacements,
                        misses,
                    })
                }),
        ]
    }

    /// The same output as the served path carries it.
    fn shared(output: &RouteOutput) -> SharedOutput {
        match output.clone() {
            RouteOutput::Lookup(hits) => SharedOutput::Lookup(hits.into()),
            RouteOutput::Normalize(r) => SharedOutput::Normalize(Arc::new(r)),
            RouteOutput::Perturb(o) => SharedOutput::Perturb(o),
        }
    }

    proptest! {
        /// Both renderings, the owned projection's and the served path's,
        /// equal the reference byte for byte (scores may be NaN, so the
        /// projection is compared by its bytes too).
        #[test]
        fn to_json_is_byte_identical_to_the_format_reference(output in any_output()) {
            let want = reference::to_json(&output);
            prop_assert_eq!(&output.to_json(), &want);
            let shared = shared(&output);
            prop_assert_eq!(&shared.to_json(), &want);
            prop_assert_eq!(&shared.into_owned().to_json(), &want);
        }
    }

    #[test]
    fn disposition_labels_and_cacheability() {
        assert_eq!(CacheDisposition::Hit.label(), "hit");
        assert_eq!(CacheDisposition::Cold.label(), "cold");
        assert_eq!(CacheDisposition::Bypass.label(), "bypass");
        assert!(CacheDisposition::Hit.cacheable());
        assert!(CacheDisposition::Cold.cacheable());
        assert!(!CacheDisposition::Bypass.cacheable());
        assert_eq!(
            CacheDisposition::from_served(Served::Tier1Hit),
            CacheDisposition::Hit
        );
        assert_eq!(
            CacheDisposition::from_served(Served::Cold),
            CacheDisposition::Cold
        );
    }
}
