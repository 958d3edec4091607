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
    /// `GET /stats` — the unified [`cryptext_gateway::StatsReport`].
    Stats,
    /// `GET /metrics` — every registered instrument in Prometheus text
    /// exposition format.
    Metrics,
    /// `GET /healthz` — liveness probe.
    Health,
}

fn bad_param(name: &str, value: &str) -> WireResponse {
    WireResponse::error(
        400,
        "invalid_argument",
        &format!("query parameter {name:?} has invalid value {value:?}"),
    )
}

fn method_not_allowed(allow: &'static str) -> WireResponse {
    let mut resp = WireResponse::error(405, "method_not_allowed", "see the Allow header");
    resp.header("Allow", allow);
    resp
}

macro_rules! parse_param {
    ($req:expr, $name:literal, $default:expr) => {
        match $req.query_param($name) {
            None => $default,
            Some(raw) => match raw.parse() {
                Ok(v) => v,
                Err(_) => return Err(bad_param($name, raw)),
            },
        }
    };
}

fn parse_bool(req: &HttpRequest, name: &'static str, default: bool) -> Result<bool, WireResponse> {
    match req.query_param(name) {
        None => Ok(default),
        Some("true") | Some("1") => Ok(true),
        Some("false") | Some("0") => Ok(false),
        Some(other) => Err(bad_param(name, other)),
    }
}

fn call_options(req: &HttpRequest) -> Result<CallOptions, WireResponse> {
    let mut opts = CallOptions::default();
    if let Some(raw) = req.query_param("deadline_ms") {
        match raw.parse() {
            Ok(ms) => opts.deadline_ms = Some(ms),
            Err(_) => return Err(bad_param("deadline_ms", raw)),
        }
    }
    if let Some(raw) = req.query_param("max_retries") {
        match raw.parse() {
            Ok(n) => opts.max_retries = Some(n),
            Err(_) => return Err(bad_param("max_retries", raw)),
        }
    }
    Ok(opts)
}

fn body_text(req: &HttpRequest) -> Result<String, WireResponse> {
    match std::str::from_utf8(&req.body) {
        Ok(s) => Ok(s.to_string()),
        Err(_) => Err(WireResponse::error(
            400,
            "invalid_argument",
            "request body is not UTF-8 text",
        )),
    }
}

/// Dispatch a parsed request to a route, or produce the refusal
/// response (`404`/`405`/`400`) directly.
pub(crate) fn route(req: &HttpRequest) -> Result<Routed, WireResponse> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/lookup") => {
            let Some(token) = req.query_param("q") else {
                return Err(WireResponse::error(
                    400,
                    "invalid_argument",
                    "missing required query parameter \"q\"",
                ));
            };
            let token = token.to_string();
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
        _ => Err(WireResponse::error(
            404,
            "not_found",
            &format!("no route for {:?}", req.path),
        )),
    }
}

/// Extract the bearer credential. A missing/malformed `Authorization`
/// header is the wire layer's `401` (with `WWW-Authenticate`); a
/// *presented* credential the service refuses becomes the gateway's
/// `Unauthorized` → `403`.
pub(crate) fn bearer_token(req: &HttpRequest) -> Result<ApiToken, WireResponse> {
    let challenge = |message: &str| {
        let mut resp = WireResponse::error(401, "unauthorized", message);
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

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_gateway::{RouteClass, RouteParams};

    fn get(target: &str) -> HttpRequest {
        req("GET", target, &[], Vec::new())
    }

    fn req(method: &str, target: &str, headers: &[(&str, &str)], body: Vec<u8>) -> HttpRequest {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            query: crate::wire::parse_query(query),
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body,
            keep_alive: true,
        }
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
        let body = String::from_utf8(resp.body).unwrap();
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
        assert_eq!(resp.header_value("Allow"), Some("GET"));
        let resp = route(&get("/normalize")).err().unwrap();
        assert_eq!(resp.status, 405);
        assert_eq!(resp.header_value("Allow"), Some("POST"));
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
        assert_eq!(resp.header_value("Allow"), Some("GET"));
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
