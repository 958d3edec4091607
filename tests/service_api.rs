//! Integration: the public-API facade under realistic multi-client load —
//! auth, rate limits, cache behaviour, bulk endpoints (§III-F).
//!
//! Every test runs once per layout in `common::LAYOUTS`: the
//! consistent-hash store at 1 shard and at 4 shards, and 4 shards reading
//! through to the process-global shared tier-2. Each layout must pass the
//! same assertions — the storage and cache topology change no byte and no
//! counter the API reports.

mod common;

use std::sync::Arc;

use common::{each_layout, service};
use cryptext::cache::CacheStats;
use cryptext::common::Error;
use cryptext::core::{LookupParams, NormalizeParams, PerturbParams};

#[test]
fn full_api_surface_with_one_token() {
    each_layout(|layout| {
        let (svc, _) = service(layout, 1_000);
        let token = svc.issue_token("integration");

        let hits = svc
            .look_up(&token, "vaccine", LookupParams::paper_default())
            .unwrap();
        assert!(!hits.is_empty());

        let bulk = svc
            .look_up_bulk(
                &token,
                &["democrats", "republicans", "vaccine"],
                LookupParams::paper_default(),
            )
            .unwrap();
        assert_eq!(bulk.len(), 3);

        let norm = svc
            .normalize(&token, "the vacc1ne mandate", NormalizeParams::default())
            .unwrap();
        assert_eq!(norm.text, "the vaccine mandate");

        let pert = svc
            .perturb(
                &token,
                "the vaccine mandate",
                PerturbParams::with_ratio(1.0),
            )
            .unwrap();
        assert!(pert.replacements.len() + pert.misses > 0);
    });
}

#[test]
fn cache_carries_repeat_traffic() {
    each_layout(|layout| {
        let (svc, _) = service(layout, 100_000);
        let token = svc.issue_token("hot");
        let queries = ["democrats", "republicans", "vaccine", "muslim"];
        for _ in 0..50 {
            for q in queries {
                svc.look_up(&token, q, LookupParams::paper_default())
                    .unwrap();
            }
        }
        let CacheStats { hits, misses, .. } = svc.cache_stats();
        assert_eq!(misses, queries.len() as u64, "one miss per distinct query");
        assert_eq!(hits, (50 * queries.len() - queries.len()) as u64);
    });
}

#[test]
fn rate_limited_clients_recover_next_window() {
    each_layout(|layout| {
        let (svc, clock) = service(layout, 5);
        let token = svc.issue_token("bursty");
        let mut ok = 0;
        let mut limited = 0;
        for _ in 0..8 {
            match svc.look_up(&token, "vaccine", LookupParams::paper_default()) {
                Ok(_) => ok += 1,
                Err(Error::RateLimited { .. }) => limited += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!((ok, limited), (5, 3));
        clock.advance(60_001);
        assert!(svc
            .look_up(&token, "vaccine", LookupParams::paper_default())
            .is_ok());
    });
}

#[test]
fn concurrent_clients_are_isolated() {
    each_layout(|layout| {
        let (svc, _) = service(layout, 200);
        let svc = Arc::new(svc);
        let mut handles = Vec::new();
        for c in 0..6 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let token = svc.issue_token(&format!("client{c}"));
                let mut ok = 0;
                for i in 0..100 {
                    let q = ["democrats", "vaccine", "republicans"][i % 3];
                    if svc
                        .look_up(&token, q, LookupParams::paper_default())
                        .is_ok()
                    {
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
        let (svc, _) = service(layout, 100);
        let token = svc.issue_token("edge");
        assert!(matches!(
            svc.look_up(&token, "x", LookupParams::new(9, 1)),
            Err(Error::InvalidArgument(_))
        ));
        let bad = NormalizeParams {
            k: 7,
            ..NormalizeParams::default()
        };
        assert!(svc.normalize(&token, "text", bad).is_err());
    });
}
