//! The route table: a parsed [`HttpRequest`] becomes a typed gateway
//! [`Request`] (or a stats/health route), with every knob the paper's
//! GUI exposes surfaced as a query parameter.
//!
//! | Route | Method | Input | Parameters (query) |
//! |---|---|---|---|
//! | `/lookup` | GET | `q` (token) | `k`, `d`, `exclude_identity`, `observed_only` |
//! | `/normalize` | POST | body (UTF-8 text) | `k`, `d`, `edit_penalty`, `prior_weight`, `max_candidates` |
//! | `/perturb` | POST | body (UTF-8 text) | `ratio`, `k`, `d`, `case_sensitive`, `observed_only`, `seed` |
//! | `/stats` | GET | — | — |
//! | `/metrics` | GET | — | — |
//! | `/healthz` | GET | — | — |
//!
//! Every API route also takes `deadline_ms` and `max_retries` as
//! per-call [`CallOptions`] overrides. Unknown paths are `404`, a known
//! path with the wrong method is `405` (with `Allow`), and an
//! unparseable parameter is `400` naming the parameter.

use std::borrow::Cow;

use cryptext_common::jsonfmt;
use cryptext_common::metrics::MetricsSnapshot;
use cryptext_core::lookup::LookupParams;
use cryptext_core::normalize::NormalizeParams;
use cryptext_core::perturb::PerturbParams;
use cryptext_core::service::ApiToken;
use cryptext_gateway::{CallOptions, Request};

use crate::wire::{HttpRequest, WireResponse};

/// Where a request landed.
pub(crate) enum Routed {
    /// One of the three API routes, fully parsed and ready for
    /// `Gateway::handle` (authorization still pending).
    Api(Request),
    /// `GET /stats` — the gateway and cache counters as one JSON
    /// document, rendered by [`stats_json`].
    Stats,
    /// `GET /metrics` — every registered instrument in Prometheus text
    /// exposition format.
    Metrics,
    /// `GET /healthz` — liveness probe.
    Health,
}

/// A refusal: the response that answers a request the router turns
/// away. Boxed, since refusals are rare and a response is large.
pub(crate) type Refusal = Box<WireResponse>;

fn refusal(status: u16, label: &str, message: &str) -> Refusal {
    Box::new(WireResponse::error(status, label, message))
}

fn bad_param(name: &str, value: &str) -> Refusal {
    refusal(
        400,
        "invalid_argument",
        &format!("query parameter {name:?} has invalid value {value:?}"),
    )
}

fn method_not_allowed(allow: &'static str) -> Refusal {
    let mut resp = refusal(405, "method_not_allowed", "see the Allow header");
    resp.header("Allow", allow);
    resp
}

/// The query parameter `name`, percent-decoded, or the `400` that
/// refuses it when its decoded bytes are not UTF-8.
fn param<'r>(req: &'r HttpRequest, name: &str) -> Result<Option<Cow<'r, str>>, Refusal> {
    req.query_param(name).transpose().map_err(|_| {
        refusal(
            400,
            "invalid_argument",
            &format!("query parameter {name:?} is not UTF-8 once percent-decoded"),
        )
    })
}

macro_rules! parse_param {
    ($req:expr, $name:literal, $default:expr) => {
        match param($req, $name)? {
            None => $default,
            Some(raw) => match raw.parse() {
                Ok(v) => v,
                Err(_) => return Err(bad_param($name, &raw)),
            },
        }
    };
}

fn parse_bool(req: &HttpRequest, name: &'static str, default: bool) -> Result<bool, Refusal> {
    match param(req, name)?.as_deref() {
        None => Ok(default),
        Some("true") | Some("1") => Ok(true),
        Some("false") | Some("0") => Ok(false),
        Some(other) => Err(bad_param(name, other)),
    }
}

fn call_options(req: &HttpRequest) -> Result<CallOptions, Refusal> {
    let mut opts = CallOptions::default();
    if let Some(raw) = param(req, "deadline_ms")? {
        match raw.parse() {
            Ok(ms) => opts.deadline_ms = Some(ms),
            Err(_) => return Err(bad_param("deadline_ms", &raw)),
        }
    }
    if let Some(raw) = param(req, "max_retries")? {
        match raw.parse() {
            Ok(n) => opts.max_retries = Some(n),
            Err(_) => return Err(bad_param("max_retries", &raw)),
        }
    }
    Ok(opts)
}

fn body_text(req: &HttpRequest) -> Result<String, Refusal> {
    match std::str::from_utf8(req.body()) {
        Ok(s) => Ok(s.to_string()),
        Err(_) => Err(refusal(
            400,
            "invalid_argument",
            "request body is not UTF-8 text",
        )),
    }
}

/// Dispatch a parsed request to a route, or produce the refusal
/// response (`404`/`405`/`400`) directly.
pub(crate) fn route(req: &HttpRequest) -> Result<Routed, Refusal> {
    let path = req.path();
    match (req.method(), &*path) {
        ("GET", "/lookup") => {
            let Some(token) = param(req, "q")? else {
                return Err(refusal(
                    400,
                    "invalid_argument",
                    "missing required query parameter \"q\"",
                ));
            };
            let token = token.into_owned();
            let defaults = LookupParams::paper_default();
            let mut params = LookupParams::new(
                parse_param!(req, "k", defaults.k),
                parse_param!(req, "d", defaults.d),
            );
            params.exclude_identity =
                parse_bool(req, "exclude_identity", defaults.exclude_identity)?;
            params.observed_only = parse_bool(req, "observed_only", defaults.observed_only)?;
            let opts = call_options(req)?;
            Ok(Routed::Api(Request::lookup(token, params).with_opts(opts)))
        }
        ("POST", "/normalize") => {
            let text = body_text(req)?;
            let defaults = NormalizeParams::default();
            let params = NormalizeParams {
                k: parse_param!(req, "k", defaults.k),
                d: parse_param!(req, "d", defaults.d),
                edit_penalty: parse_param!(req, "edit_penalty", defaults.edit_penalty),
                prior_weight: parse_param!(req, "prior_weight", defaults.prior_weight),
                max_candidates: parse_param!(req, "max_candidates", defaults.max_candidates),
            };
            let opts = call_options(req)?;
            Ok(Routed::Api(
                Request::normalize(text, params).with_opts(opts),
            ))
        }
        ("POST", "/perturb") => {
            let text = body_text(req)?;
            let defaults = PerturbParams::with_ratio(parse_param!(req, "ratio", 1.0));
            let params = PerturbParams {
                k: parse_param!(req, "k", defaults.k),
                d: parse_param!(req, "d", defaults.d),
                case_sensitive: parse_bool(req, "case_sensitive", defaults.case_sensitive)?,
                observed_only: parse_bool(req, "observed_only", defaults.observed_only)?,
                seed: parse_param!(req, "seed", defaults.seed),
                ..defaults
            };
            let opts = call_options(req)?;
            Ok(Routed::Api(Request::perturb(text, params).with_opts(opts)))
        }
        ("GET", "/stats") => Ok(Routed::Stats),
        ("GET", "/metrics") => Ok(Routed::Metrics),
        ("GET", "/healthz") => Ok(Routed::Health),
        (_, "/lookup") | (_, "/stats") | (_, "/metrics") | (_, "/healthz") => {
            Err(method_not_allowed("GET"))
        }
        (_, "/normalize") | (_, "/perturb") => Err(method_not_allowed("POST")),
        _ => Err(refusal(404, "not_found", &format!("no route for {path:?}"))),
    }
}

/// Extract the bearer credential. A missing/malformed `Authorization`
/// header is the wire layer's `401` (with `WWW-Authenticate`); a
/// *presented* credential the service refuses becomes the gateway's
/// `Unauthorized` → `403`.
pub(crate) fn bearer_token(req: &HttpRequest) -> Result<ApiToken, Refusal> {
    let challenge = |message: &str| {
        let mut resp = refusal(401, "unauthorized", message);
        resp.header("WWW-Authenticate", "Bearer realm=\"cryptext\"");
        resp
    };
    match req.header("authorization") {
        None => Err(challenge("missing Authorization header")),
        Some(value) => match value.strip_prefix("Bearer ") {
            Some(raw) if !raw.is_empty() => Ok(ApiToken::from_raw(raw)),
            _ => Err(challenge("Authorization header is not a bearer credential")),
        },
    }
}

/// `/stats` gateway counters after `admitted` and `queue_waits`, in
/// document order. A field's JSON key is its metric name without the
/// `cryptext_<layer>_` prefix and the `_total` suffix ([`json_key`]).
const GATEWAY_COUNTERS: [&str; 10] = [
    "cryptext_gateway_shed_queue_full_total",
    "cryptext_gateway_shed_draining_total",
    "cryptext_gateway_queue_deadline_expired_total",
    "cryptext_gateway_executions_total",
    "cryptext_gateway_retries_total",
    "cryptext_gateway_completed_ok_total",
    "cryptext_gateway_failed_total",
    "cryptext_gateway_deadline_exceeded_total",
    "cryptext_gateway_coalesced_followers_total",
    "cryptext_gateway_promoted_followers_total",
];

/// A tier-1 cache object's counters, each read at the object's `tier`
/// label.
const TIER1_COUNTERS: [&str; 5] = [
    "cryptext_cache_hits_total",
    "cryptext_cache_misses_total",
    "cryptext_cache_evictions_total",
    "cryptext_cache_expirations_total",
    "cryptext_cache_inserts_total",
];

/// The tier-2 object's counters: the store's order, then the two only a
/// store keeps.
const TIER2_COUNTERS: [&str; 7] = [
    "cryptext_cache_hits_total",
    "cryptext_cache_misses_total",
    "cryptext_cache_inserts_total",
    "cryptext_cache_evictions_total",
    "cryptext_cache_expirations_total",
    "cryptext_cache_invalidated_total",
    "cryptext_cache_put_errors_total",
];

/// The `GET /stats` body: the gateway and cache counters of one registry
/// snapshot, plus the three values the registry does not hold. Keys and
/// their order are stable for scraping; a series nobody registered (the
/// tier-2 counters when no store is attached) reads as zero.
pub(crate) fn stats_json(
    m: &MetricsSnapshot,
    generation: u64,
    tier2_attached: bool,
    draining: bool,
) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"gateway\":{");
    push_counter(&mut out, m, "cryptext_gateway_admitted_total");
    // Admitted requests that queued first, across every route.
    let queue_waits = m.histogram_count("cryptext_gateway_queue_wait_us");
    push_num(&mut out, "queue_waits", queue_waits);
    for name in GATEWAY_COUNTERS {
        push_counter(&mut out, m, name);
    }
    for name in ["cryptext_gateway_active_now", "cryptext_gateway_queued_now"] {
        push_num(&mut out, json_key(name), m.gauge(name).unwrap_or(0) as u64);
    }
    out.push_str("},\"cache\":{");
    for tier in ["lookup", "normalize", "normalize_results"] {
        push_tier(&mut out, m, tier, &TIER1_COUNTERS);
    }
    push_counter(&mut out, m, "cryptext_cache_negative_hits_total");
    push_num(&mut out, "generation", generation);
    push_counter(&mut out, m, "cryptext_cache_invalidation_bumps_total");
    push_counter(&mut out, m, "cryptext_cache_invalidated_entries_total");
    push_bool(&mut out, "tier2_attached", tier2_attached);
    push_tier(&mut out, m, "tier2", &TIER2_COUNTERS);
    out.push('}');
    push_bool(&mut out, "draining", draining);
    out.push('}');
    out
}

/// A metric's `/stats` key: its name without `cryptext_<layer>_` and
/// `_total`.
fn json_key(name: &str) -> &str {
    let field = name.splitn(3, '_').nth(2).unwrap_or(name);
    field.strip_suffix("_total").unwrap_or(field)
}

/// Write `"key":`, after a comma unless it opens its object.
fn push_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn push_num(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    jsonfmt::push_uint(out, value);
}

fn push_bool(out: &mut String, key: &str, value: bool) {
    push_key(out, key);
    out.push_str(if value { "true" } else { "false" });
}

fn push_counter(out: &mut String, m: &MetricsSnapshot, name: &str) {
    push_num(out, json_key(name), m.counter_total(name));
}

/// One cache tier's object: each counter read at `tier="<tier>"`.
fn push_tier(out: &mut String, m: &MetricsSnapshot, tier: &str, names: &[&str]) {
    push_key(out, tier);
    out.push('{');
    for name in names {
        push_num(out, json_key(name), m.counter_labeled(name, "tier", tier));
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_common::metrics::MetricsRegistry;
    use cryptext_gateway::{RouteClass, RouteParams};

    fn get(target: &str) -> HttpRequest {
        req("GET", target, &[], Vec::new())
    }

    /// The request these parts make, through the wire parser.
    fn req(method: &str, target: &str, headers: &[(&str, &str)], body: Vec<u8>) -> HttpRequest {
        let mut raw = format!("{method} {target} HTTP/1.1\r\n");
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        HttpRequest::parse(&[raw.into_bytes(), body].concat())
    }

    #[test]
    fn lookup_route_parses_every_knob() {
        let routed = route(&get(
            "/lookup?q=vacc1ne&k=2&d=2&exclude_identity=true&observed_only=false&deadline_ms=50",
        ))
        .ok()
        .unwrap();
        let Routed::Api(api) = routed else {
            panic!("expected API route")
        };
        assert_eq!(api.route(), RouteClass::Lookup);
        assert_eq!(api.input, "vacc1ne");
        let RouteParams::Lookup(p) = api.params else {
            panic!("expected lookup params")
        };
        assert_eq!((p.k, p.d), (2, 2));
        assert!(p.exclude_identity);
        assert!(!p.observed_only);
        assert_eq!(api.opts.deadline_ms, Some(50));
    }

    #[test]
    fn lookup_requires_the_query_token() {
        let resp = route(&get("/lookup")).err().unwrap();
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn bad_numeric_parameter_names_itself() {
        let resp = route(&get("/lookup?q=x&k=banana")).err().unwrap();
        assert_eq!(resp.status, 400);
        let body = resp.body.as_str();
        assert!(
            body.contains("\\\"k\\\""),
            "body should name the parameter: {body}"
        );
    }

    #[test]
    fn normalize_takes_body_and_query_params() {
        let routed = route(&req(
            "POST",
            "/normalize?max_candidates=3&edit_penalty=2.0",
            &[],
            b"teh vacc1ne".to_vec(),
        ))
        .ok()
        .unwrap();
        let Routed::Api(api) = routed else {
            panic!("expected API route")
        };
        assert_eq!(api.input, "teh vacc1ne");
        let RouteParams::Normalize(p) = api.params else {
            panic!("expected normalize params")
        };
        assert_eq!(p.max_candidates, 3);
        assert_eq!(p.edit_penalty, 2.0);
    }

    #[test]
    fn perturb_takes_ratio_and_seed() {
        let routed = route(&req(
            "POST",
            "/perturb?ratio=0.25&seed=7",
            &[],
            b"hi".to_vec(),
        ))
        .ok()
        .unwrap();
        let Routed::Api(api) = routed else {
            panic!("expected API route")
        };
        let RouteParams::Perturb(p) = api.params else {
            panic!("expected perturb params")
        };
        assert_eq!(p.ratio, 0.25);
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn wrong_method_is_405_with_allow() {
        let resp = route(&req("DELETE", "/lookup", &[], Vec::new()))
            .err()
            .unwrap();
        assert_eq!(resp.status, 405);
        assert_eq!(resp.header_value("Allow").as_deref(), Some("GET"));
        let resp = route(&get("/normalize")).err().unwrap();
        assert_eq!(resp.status, 405);
        assert_eq!(resp.header_value("Allow").as_deref(), Some("POST"));
    }

    #[test]
    fn unknown_path_is_404() {
        let resp = route(&get("/nope")).err().unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn stats_metrics_and_health_route() {
        assert!(matches!(route(&get("/stats")), Ok(Routed::Stats)));
        assert!(matches!(route(&get("/metrics")), Ok(Routed::Metrics)));
        assert!(matches!(route(&get("/healthz")), Ok(Routed::Health)));
        let resp = route(&req("POST", "/metrics", &[], Vec::new()))
            .err()
            .unwrap();
        assert_eq!(resp.status, 405);
        assert_eq!(resp.header_value("Allow").as_deref(), Some("GET"));
    }

    /// Every number distinct (1..=40) and both flags set, so a swapped
    /// or misread field cannot hide behind equal values.
    const STATS_PIN: &str = concat!(
        r#"{"gateway":{"admitted":1,"queue_waits":2,"shed_queue_full":3,"shed_draining":4,"queue_deadline_expired":5,"#,
        r#""executions":6,"retries":7,"completed_ok":8,"failed":9,"deadline_exceeded":10,"#,
        r#""coalesced_followers":11,"promoted_followers":12,"active_now":13,"queued_now":14},"#,
        r#""cache":{"lookup":{"hits":15,"misses":16,"evictions":17,"expirations":18,"inserts":19},"#,
        r#""normalize":{"hits":20,"misses":21,"evictions":22,"expirations":23,"inserts":24},"#,
        r#""normalize_results":{"hits":25,"misses":26,"evictions":27,"expirations":28,"inserts":29},"#,
        r#""negative_hits":30,"generation":31,"invalidation_bumps":32,"invalidated_entries":33,"tier2_attached":true,"#,
        r#""tier2":{"hits":34,"misses":35,"inserts":36,"evictions":37,"expirations":38,"invalidated":39,"put_errors":40}},"#,
        r#""draining":true}"#,
    );

    #[test]
    fn stats_document_pins_every_field() {
        let r = MetricsRegistry::new();
        for (name, value) in [
            ("cryptext_gateway_admitted_total", 1),
            ("cryptext_gateway_shed_queue_full_total", 3),
            ("cryptext_gateway_shed_draining_total", 4),
            ("cryptext_gateway_queue_deadline_expired_total", 5),
            ("cryptext_gateway_executions_total", 6),
            ("cryptext_gateway_retries_total", 7),
            ("cryptext_gateway_completed_ok_total", 8),
            ("cryptext_gateway_failed_total", 9),
            ("cryptext_gateway_deadline_exceeded_total", 10),
            ("cryptext_gateway_coalesced_followers_total", 11),
            ("cryptext_gateway_promoted_followers_total", 12),
            ("cryptext_cache_negative_hits_total", 30),
            ("cryptext_cache_invalidation_bumps_total", 32),
            ("cryptext_cache_invalidated_entries_total", 33),
        ] {
            r.counter(name, "").add(value);
        }
        // queue_waits = 2: one queued request on each of two routes.
        for route in ["lookup", "perturb"] {
            r.histogram_with("cryptext_gateway_queue_wait_us", "", &[("route", route)])
                .observe(500);
        }
        r.gauge("cryptext_gateway_active_now", "").set(13);
        r.gauge("cryptext_gateway_queued_now", "").set(14);
        let tier1 = [
            "cryptext_cache_hits_total",
            "cryptext_cache_misses_total",
            "cryptext_cache_evictions_total",
            "cryptext_cache_expirations_total",
            "cryptext_cache_inserts_total",
        ];
        for (base, tier) in [(15, "lookup"), (20, "normalize"), (25, "normalize_results")] {
            for (value, name) in (base..).zip(tier1) {
                r.counter_with(name, "", &[("tier", tier)]).add(value);
            }
        }
        let tier2 = [
            "cryptext_cache_hits_total",
            "cryptext_cache_misses_total",
            "cryptext_cache_inserts_total",
            "cryptext_cache_evictions_total",
            "cryptext_cache_expirations_total",
            "cryptext_cache_invalidated_total",
            "cryptext_cache_put_errors_total",
        ];
        for (value, name) in (34..).zip(tier2) {
            r.counter_with(name, "", &[("tier", "tier2")]).add(value);
        }
        assert_eq!(stats_json(&r.snapshot(), 31, true, true), STATS_PIN);
    }

    #[test]
    fn an_empty_registry_renders_zeros() {
        let json = stats_json(&MetricsSnapshot::default(), 0, false, false);
        assert!(json.starts_with(r#"{"gateway":{"admitted":0,"queue_waits":0,"#));
        assert!(json.ends_with(concat!(
            r#""tier2_attached":false,"tier2":{"hits":0,"misses":0,"inserts":0,"#,
            r#""evictions":0,"expirations":0,"invalidated":0,"put_errors":0}},"#,
            r#""draining":false}"#,
        )));
        let digits = json.replace("tier2", "");
        assert!(
            !digits.contains(|c: char| ('1'..='9').contains(&c)),
            "{json}"
        );
    }

    #[test]
    fn bearer_extraction() {
        let missing = bearer_token(&get("/lookup?q=x")).err().unwrap();
        assert_eq!(missing.status, 401);
        assert!(missing.header_value("WWW-Authenticate").is_some());

        let basic = bearer_token(&req(
            "GET",
            "/lookup?q=x",
            &[("authorization", "Basic dXNlcg==")],
            Vec::new(),
        ))
        .err()
        .unwrap();
        assert_eq!(basic.status, 401);

        let ok = bearer_token(&req(
            "GET",
            "/lookup?q=x",
            &[("authorization", "Bearer tok-123")],
            Vec::new(),
        ));
        assert!(ok.is_ok());
    }
}
