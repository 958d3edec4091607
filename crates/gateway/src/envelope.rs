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
//! take a JSON [`Body`]: rendered for the response, or, for a repeated
//! Look Up, the one kept with its tier-1 entry. Every body comes from the
//! same per-route writers, so the wire format lives in one place.

use std::sync::Arc;

use cryptext_common::jsonfmt;
use cryptext_core::lookup::{hits_of, HitId, HitView, LookupHit, LookupParams};
use cryptext_core::normalize::{NormalizationResult, NormalizeParams};
use cryptext_core::perturb::{PerturbParams, PerturbationOutcome};
use cryptext_core::service::{LookupEntry, Served};
use cryptext_core::TokenStore;

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
            RouteOutput::Lookup(hits) => lookup_json(hits.iter().map(LookupHit::view)),
            RouteOutput::Normalize(r) => normalize_json(r),
            RouteOutput::Perturb(o) => perturb_json(o),
        }
    }
}

/// A JSON wire body: rendered for one response, or the body kept with a
/// tier-1 Look Up entry, shared by reference count and never copied.
/// [`Gateway::handle_json`](crate::Gateway::handle_json) returns one;
/// `From<String>` makes any other body one.
#[derive(Debug, Clone)]
pub struct Body(BodyRepr);

#[derive(Debug, Clone)]
enum BodyRepr {
    Rendered(String),
    /// An entry whose body slot is filled.
    Kept(Arc<LookupEntry>),
}

impl Body {
    /// The body text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            BodyRepr::Rendered(s) => s,
            BodyRepr::Kept(entry) => entry
                .body()
                .expect("a kept body is rendered before it is shared"),
        }
    }

    /// The body bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.as_str().as_bytes()
    }
}

impl From<String> for Body {
    fn from(s: String) -> Self {
        Body(BodyRepr::Rendered(s))
    }
}

/// A route's output as the execution path carries it: the cacheable
/// routes hold the tier-1 entry itself, shared by reference count, and
/// Perturbation holds the outcome it just drew. Coalesced followers
/// receive a clone of this, so they share the leader's entry too.
#[derive(Debug, Clone)]
pub(crate) enum SharedOutput {
    Lookup(Arc<LookupEntry>),
    Normalize(Arc<NormalizationResult>),
    Perturb(PerturbationOutcome),
}

impl SharedOutput {
    /// The owned [`RouteOutput`]: a Look Up entry's hits read from `db`,
    /// the store the entry was computed over, and a Normalization result
    /// copied out of tier-1.
    pub(crate) fn into_owned<S: TokenStore>(self, db: &S) -> RouteOutput {
        match self {
            SharedOutput::Lookup(entry) => RouteOutput::Lookup(hits_of(db, entry.hits())),
            SharedOutput::Normalize(r) => RouteOutput::Normalize(NormalizationResult::clone(&r)),
            SharedOutput::Perturb(o) => RouteOutput::Perturb(o),
        }
    }

    /// The wire body, byte-identical to [`RouteOutput::to_json`] of
    /// [`Self::into_owned`]. A Look Up that tier-1 answered (`cache` is
    /// [`CacheDisposition::Hit`]) keeps its body with the entry: the
    /// first hit renders it into the entry's slot, and every later hit
    /// shares those bytes. Any other output, a cold Look Up included,
    /// renders a body for this response alone, so an entry nobody asks
    /// for again keeps no body.
    pub(crate) fn into_body<S: TokenStore>(self, cache: CacheDisposition, db: &S) -> Body {
        match self {
            SharedOutput::Lookup(entry) => {
                let render = |hits: &[HitId]| lookup_json(hits.iter().map(|h| h.view(db)));
                if cache == CacheDisposition::Hit {
                    entry.body_or_init(render);
                    Body(BodyRepr::Kept(entry))
                } else {
                    Body::from(render(entry.hits()))
                }
            }
            SharedOutput::Normalize(r) => Body::from(normalize_json(&r)),
            SharedOutput::Perturb(o) => Body::from(perturb_json(&o)),
        }
    }
}

// The per-route JSON writers: each writes straight into one `String`
// pre-sized from the item count, through the allocation-free [`jsonfmt`]
// writers.

/// The Look Up writer, over borrowed hits: owned ones
/// ([`LookupHit::view`]) and ones a store names by id ([`HitId::view`])
/// alike.
fn lookup_json<'a>(hits: impl ExactSizeIterator<Item = HitView<'a>>) -> String {
    let mut out = String::with_capacity(16 + 80 * hits.len());
    out.push_str("{\"hits\":[");
    for (i, h) in hits.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"token\":");
        jsonfmt::push_str_escaped(&mut out, h.token);
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
/// wire body as a `Response<Body>`.
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
    use cryptext_core::TokenDatabase;
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

    /// A store token: two letters first, so every one passes the ingest
    /// gates, then characters of every class the escaper distinguishes;
    /// or a dictionary word, so `is_english` takes both values.
    fn store_token() -> impl Strategy<Value = String> {
        const WORDS: [&str; 4] = ["the", "vaccine", "bad", "democrats"];
        prop_oneof![
            (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
            any_string().prop_map(|s| format!("ba{s}")),
        ]
    }

    proptest! {
        /// Every rendering equals the reference byte for byte (scores may
        /// be NaN, so outputs are compared by their bytes): the typed
        /// output's, and the served path's from a shared Normalization
        /// result or a Perturbation outcome. A Look Up entry names its
        /// hits by id in a store, so an id list (arbitrary records and
        /// distances) over a generated store renders, cold and kept, the
        /// bytes of its owned hits' rendering and of the reference.
        #[test]
        fn to_json_is_byte_identical_to_the_format_reference(
            output in any_output(),
            tokens in proptest::collection::vec(store_token(), 1..12),
            picks in proptest::collection::vec(
                (any::<proptest::sample::Index>(), any::<u32>()),
                0..8,
            ),
        ) {
            let mut db = TokenDatabase::in_memory();
            for t in &tokens {
                db.ingest_token(t);
            }
            let want = reference::to_json(&output);
            prop_assert_eq!(&output.to_json(), &want);
            let served = match output.clone() {
                RouteOutput::Lookup(_) => None,
                RouteOutput::Normalize(r) => Some(SharedOutput::Normalize(Arc::new(r))),
                RouteOutput::Perturb(o) => Some(SharedOutput::Perturb(o)),
            };
            if let Some(served) = served {
                let cache = CacheDisposition::Cold;
                prop_assert_eq!(served.clone().into_body(cache, &db).as_str(), &want);
                prop_assert_eq!(&served.into_owned(&db).to_json(), &want);
            }

            let records = db.records().len();
            let ids: Vec<HitId> = picks
                .iter()
                .map(|(i, distance)| HitId {
                    id: i.index(records) as u32,
                    distance: *distance,
                })
                .collect();
            let owned = RouteOutput::Lookup(hits_of(&db, &ids));
            let want = reference::to_json(&owned);
            prop_assert_eq!(&owned.to_json(), &want);
            let entry = SharedOutput::Lookup(Arc::new(LookupEntry::new(ids)));
            prop_assert_eq!(&entry.clone().into_owned(&db).to_json(), &want);
            for cache in [CacheDisposition::Cold, CacheDisposition::Hit, CacheDisposition::Hit] {
                prop_assert_eq!(entry.clone().into_body(cache, &db).as_str(), &want);
            }
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
