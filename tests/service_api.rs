//! Integration: the public API under realistic multi-client load — auth,
//! rate limits, cache behaviour (§III-F) — served the way the HTTP API
//! serves it, through `Gateway::handle`.
//!
//! Every test runs once per layout in `common::LAYOUTS`: the token
//! database with tier-1 caches only, and reading through to the
//! process-global shared tier-2. Each layout must pass the same assertions
//! — the cache topology changes no byte and no counter the API reports.

mod common;

use std::sync::Arc;

use common::{each_layout, service, Layout};
use cryptext::cache::CacheStats;
use cryptext::common::{Error, SimClock};
use cryptext::core::service::ApiToken;
use cryptext::core::{LookupHit, LookupParams, NormalizeParams, PerturbParams};
use cryptext::gateway::{Gateway, GatewayConfig, Request, RouteOutput};

/// The layout's service behind a default gateway.
fn gateway(layout: Layout, limit: u32) -> (Gateway, SimClock) {
    let (svc, clock) = service(layout, limit);
    (Gateway::new(Arc::new(svc), GatewayConfig::default()), clock)
}

/// A paper-default Look Up of `word`, unwrapped to its hits.
fn look_up(gw: &Gateway, token: &ApiToken, word: &str) -> Result<Vec<LookupHit>, Error> {
    let req = Request::lookup(word, LookupParams::paper_default());
    gw.handle(token, req).map(|resp| match resp.output {
        RouteOutput::Lookup(hits) => hits,
        other => panic!("a lookup request answered {other:?}"),
    })
}

#[test]
fn full_api_surface_with_one_token() {
    each_layout(|layout| {
        let (gw, _) = gateway(layout, 1_000);
        let token = gw.service().issue_token("integration");

        let hits = look_up(&gw, &token, "vaccine").unwrap();
        assert!(!hits.is_empty());

        let req = Request::normalize("the vacc1ne mandate", NormalizeParams::default());
        match gw.handle(&token, req).unwrap().output {
            RouteOutput::Normalize(norm) => assert_eq!(norm.text, "the vaccine mandate"),
            other => panic!("a normalize request answered {other:?}"),
        }

        let req = Request::perturb("the vaccine mandate", PerturbParams::with_ratio(1.0));
        match gw.handle(&token, req).unwrap().output {
            RouteOutput::Perturb(pert) => assert!(pert.replacements.len() + pert.misses > 0),
            other => panic!("a perturb request answered {other:?}"),
        }
    });
}

#[test]
fn cache_carries_repeat_traffic() {
    each_layout(|layout| {
        let (gw, _) = gateway(layout, 100_000);
        let token = gw.service().issue_token("hot");
        let queries = ["democrats", "republicans", "vaccine", "muslim"];
        for _ in 0..50 {
            for q in queries {
                look_up(&gw, &token, q).unwrap();
            }
        }
        let CacheStats { hits, misses, .. } = gw.service().cache_stats();
        assert_eq!(misses, queries.len() as u64, "one miss per distinct query");
        assert_eq!(hits, (50 * queries.len() - queries.len()) as u64);
    });
}

#[test]
fn rate_limited_clients_recover_next_window() {
    each_layout(|layout| {
        let (gw, clock) = gateway(layout, 5);
        let token = gw.service().issue_token("bursty");
        let mut ok = 0;
        let mut limited = 0;
        for _ in 0..8 {
            match look_up(&gw, &token, "vaccine") {
                Ok(_) => ok += 1,
                Err(Error::RateLimited { .. }) => limited += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!((ok, limited), (5, 3));
        clock.advance(60_001);
        assert!(look_up(&gw, &token, "vaccine").is_ok());
    });
}

#[test]
fn concurrent_clients_are_isolated() {
    each_layout(|layout| {
        let (gw, _) = gateway(layout, 200);
        let gw = Arc::new(gw);
        let mut handles = Vec::new();
        for c in 0..6 {
            let gw = Arc::clone(&gw);
            handles.push(std::thread::spawn(move || {
                let token = gw.service().issue_token(&format!("client{c}"));
                let mut ok = 0;
                for i in 0..100 {
                    let q = ["democrats", "vaccine", "republicans"][i % 3];
                    if look_up(&gw, &token, q).is_ok() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 100, "each client within its own budget");
        }
    });
}

#[test]
fn invalid_params_surface_as_errors_not_panics() {
    each_layout(|layout| {
        let (gw, _) = gateway(layout, 100);
        let token = gw.service().issue_token("edge");
        let req = Request::lookup("x", LookupParams::new(9, 1));
        assert!(matches!(
            gw.handle(&token, req),
            Err(Error::InvalidArgument(_))
        ));
        let bad = NormalizeParams {
            k: 7,
            ..NormalizeParams::default()
        };
        assert!(gw.handle(&token, Request::normalize("text", bad)).is_err());
    });
}
