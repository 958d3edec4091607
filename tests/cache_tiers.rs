//! Integration: the tiered, generation-versioned result cache.
//!
//! Pins the contract of the PR-8 cache hierarchy end to end:
//!
//! * cached vs uncached `look_up` / `normalize` are **byte-identical** —
//!   cold fill, warm hit, and again across a generation bump — for shard
//!   counts 1–8 including a persist/load round trip of the sharded store
//!   (proptest);
//! * TTL expiry (simulated clock) drops entries and the recompute is
//!   byte-identical to the original answer;
//! * a shared tier-2 store serves a fleet of identically-built replicas:
//!   one replica's write-behind becomes another's read-through hit, and a
//!   generation bump flushes the shared namespace;
//! * services over *different* corpora sharing one store never read each
//!   other's entries: the content-derived namespaces keep them apart;
//! * `cache.shared.put` failpoint arms (`kill@N` / `delay@N:MS` — CI
//!   sweeps this binary under the env plane) break only the tier-2
//!   write-behind: every request still succeeds with identical bytes,
//!   the error is counted, and tier-1 keeps absorbing the traffic.

use std::sync::Arc;

use cryptext::cache::{CacheConfig, SharedCacheStore, SHARED_PUT_FAILPOINT};
use cryptext::common::{failpoint, SimClock};
use cryptext::core::database::TokenDatabase;
use cryptext::core::service::{CryptextService, ServiceConfig};
use cryptext::core::{CrypText, LookupParams, NormalizeParams, ShardedTokenDatabase, TokenStore};
use cryptext::docstore::Database;
use proptest::prelude::*;

/// Is a `CRYPTEXT_FAILPOINTS` env arm active for this process? CI sweeps
/// this binary with `cache.shared.put=kill@N` / `delay@N:MS`; assertions
/// about successful tier-2 writes are gated off under those arms (the
/// byte-identity assertions hold regardless — that is the point).
fn env_arm_active() -> bool {
    std::env::var(failpoint::ENV_VAR).is_ok_and(|v| !v.trim().is_empty())
}

/// One cache counter of `svc`'s registry:
/// `cryptext_cache_<event>_total{tier="<tier>"}`.
fn tier_count<S: TokenStore>(svc: &CryptextService<S>, event: &str, tier: &str) -> u64 {
    svc.metrics()
        .snapshot()
        .counter_labeled(&format!("cryptext_cache_{event}_total"), "tier", tier)
}

fn corpus_db(sentences: &[&str]) -> TokenDatabase {
    let mut db = TokenDatabase::in_memory();
    for s in sentences {
        db.ingest_text(s);
    }
    db
}

const FIXTURE: &[&str] = &[
    "the dirrty republicans",
    "thee dirty repubLIEcans",
    "the dirty republic@@ns",
    "vaccine vacc1ne vaxxine mandates",
    "democrats demokkkrats dem0crats",
];

fn fixture_service(ttl_ms: u64) -> (CryptextService<TokenDatabase>, SimClock) {
    let clock = SimClock::new(0);
    let svc = CryptextService::new(
        CrypText::new(corpus_db(FIXTURE)),
        ServiceConfig {
            rate_limit_per_minute: 1_000_000,
            cache_ttl_ms: ttl_ms,
            ..ServiceConfig::default()
        },
        Arc::new(clock.clone()),
    );
    (svc, clock)
}

proptest! {
    /// The tentpole pin: for any small corpus, any shard count 1–8, and a
    /// persist/load round trip of the sharded store, the service's cached
    /// `look_up` and `normalize` answers are byte-identical to the bare
    /// engine's — on the cold fill, on the warm hit, and again on both
    /// sides of a generation bump. Out-of-vocabulary queries ride along so
    /// the negative-cache path is pinned too.
    #[test]
    fn cached_results_are_byte_identical_across_generations_and_shards(
        tokens in proptest::collection::vec("[a-e1@O]{2,9}", 3..18),
        shards in 1usize..=8,
        k in 0usize..=2,
        d in 1usize..=3,
    ) {
        let mut flat = TokenDatabase::in_memory();
        for line in tokens.chunks(3) {
            flat.ingest_text(&line.join(" "));
        }

        // Persist the resharded store and load it twice: one copy feeds
        // the uncached reference engine, the other the caching service.
        // Both train their LM from the same recovered clean sentences, so
        // any divergence below is the cache's fault alone.
        let docs = Database::in_memory();
        ShardedTokenDatabase::from_database(&flat, shards).persist_to(&docs, "tokens").unwrap();
        let engine = CrypText::with_store(ShardedTokenDatabase::load_from(&docs, "tokens").unwrap());
        let svc = CryptextService::new(
            CrypText::with_store(ShardedTokenDatabase::load_from(&docs, "tokens").unwrap()),
            ServiceConfig { rate_limit_per_minute: 1_000_000, ..ServiceConfig::default() },
            Arc::new(SimClock::new(0)),
        );
        let auth = svc.issue_token("prop");

        let params = LookupParams::new(k, d);
        let mut queries: Vec<&str> = tokens.iter().take(4).map(|s| s.as_str()).collect();
        queries.push("zzqzz"); // never ingested: exercises negative caching
        let text = queries.join(" ");
        let norm_params = NormalizeParams { k, d, ..NormalizeParams::default() };

        for round in 0..2 {
            for q in &queries {
                let expected = engine.look_up(q, params).unwrap();
                let cold = svc.look_up(&auth, q, params).unwrap();
                let warm = svc.look_up(&auth, q, params).unwrap();
                prop_assert_eq!(&cold, &expected, "cold lookup, round {}", round);
                prop_assert_eq!(&warm, &expected, "warm lookup, round {}", round);
            }
            let expected = engine.normalize(&text, norm_params).unwrap();
            let cold = svc.normalize(&auth, &text, norm_params).unwrap();
            let warm = svc.normalize(&auth, &text, norm_params).unwrap();
            prop_assert_eq!(&cold, &expected, "cold normalize, round {}", round);
            prop_assert_eq!(&warm, &expected, "warm normalize, round {}", round);

            // Round 1 replays everything against the bumped generation:
            // the flushed caches must refill to the same bytes.
            svc.bump_generation();
        }

        prop_assert!(tier_count(&svc, "hits", "lookup") > 0, "warm lookups hit tier-1");
        prop_assert!(tier_count(&svc, "inserts", "normalize") > 0, "normalize filled tier-1");
        prop_assert_eq!(svc.generation(), 2);
        let bumps = svc.metrics().snapshot().counter_total("cryptext_cache_invalidation_bumps_total");
        prop_assert_eq!(bumps, 2);
    }
}

#[test]
fn ttl_expiry_drops_entries_and_recomputes_identically() {
    let (svc, clock) = fixture_service(10_000);
    let auth = svc.issue_token("ttl");
    let params = LookupParams::paper_default();

    let hits = svc.look_up(&auth, "republicans", params).unwrap();
    let norm = svc
        .normalize(&auth, "the vacc1ne mandates", NormalizeParams::default())
        .unwrap();
    assert!(tier_count(&svc, "inserts", "lookup") >= 1);
    assert!(tier_count(&svc, "inserts", "normalize") >= 1);

    // Past the TTL, an eager sweep reaps every tier-1 entry...
    clock.advance(10_001);
    assert!(
        svc.sweep_caches() >= 2,
        "expired lookup and normalize entries are reaped"
    );
    assert!(
        tier_count(&svc, "expirations", "lookup") + tier_count(&svc, "expirations", "normalize")
            >= 2
    );

    // ...and the recompute answers with the exact same bytes.
    assert_eq!(svc.look_up(&auth, "republicans", params).unwrap(), hits);
    assert_eq!(
        svc.normalize(&auth, "the vacc1ne mandates", NormalizeParams::default())
            .unwrap(),
        norm
    );
}

#[test]
fn shared_tier2_serves_replicas_and_generation_bump_flushes_the_namespace() {
    // Two identically-built replicas pointed at one shared store: their
    // content-derived namespace matches, so one replica's write-behind is
    // the other's read-through hit. The store uses the replicas' own
    // simulated clock so nothing expires mid-test.
    let clock = SimClock::new(0);
    let store = Arc::new(SharedCacheStore::new(
        CacheConfig::default(),
        Arc::new(clock.clone()),
    ));
    let build = || {
        let mut svc = CryptextService::new(
            CrypText::new(corpus_db(FIXTURE)),
            ServiceConfig {
                rate_limit_per_minute: 1_000_000,
                ..ServiceConfig::default()
            },
            Arc::new(clock.clone()),
        );
        svc.attach_tier2(Arc::clone(&store));
        svc
    };
    let (a, b) = (build(), build());
    let (auth_a, auth_b) = (a.issue_token("a"), b.issue_token("b"));
    let text = "the vacc1ne mandates demokkkrats";

    let via_a = a
        .normalize(&auth_a, text, NormalizeParams::default())
        .unwrap();
    let via_b = b
        .normalize(&auth_b, text, NormalizeParams::default())
        .unwrap();
    assert_eq!(via_b, via_a, "replica B answers with replica A's bytes");
    if !env_arm_active() {
        assert!(
            tier_count(&a, "inserts", "tier2") > 0,
            "replica A wrote its candidates behind"
        );
        assert!(
            tier_count(&b, "hits", "tier2") > 0,
            "replica B read replica A's entries through"
        );
    }

    // A generation bump on one replica flushes the *shared* namespace;
    // the other replica (bumped in lockstep, as ingest does) recomputes
    // from the engines — to the same bytes.
    a.bump_generation();
    b.bump_generation();
    if !env_arm_active() {
        assert!(
            tier_count(&a, "invalidated", "tier2") > 0,
            "namespace flush reached tier-2"
        );
    }
    assert_eq!(
        b.normalize(&auth_b, text, NormalizeParams::default())
            .unwrap(),
        via_a,
        "post-bump recompute is byte-identical"
    );
}

#[test]
fn a_shared_tier2_store_never_mixes_up_corpora() {
    // Two services over different corpora write behind into one store and
    // read through it. Their namespaces derive from their content, so each
    // answer matches its own uncached engine, never the other corpus's —
    // even though both look up the same tokens under the same keys.
    const OTHER: &[&str] = &[
        "the vaccines and the vaccination drive",
        "democracy demagogues and dem0cracy",
        "the dirty republic",
    ];
    let texts = [
        "the vacc1ne mandates demokkkrats",
        "thee dirrty repubLIEcans",
        "vaxxine dem0crats",
    ];
    let clock = SimClock::new(0);
    let store = Arc::new(SharedCacheStore::new(
        CacheConfig::default(),
        Arc::new(clock.clone()),
    ));
    // Per corpus: (caching service, its API token, uncached engine).
    let systems: Vec<_> = [FIXTURE, OTHER]
        .into_iter()
        .map(|corpus| {
            let mut svc = CryptextService::new(
                CrypText::new(corpus_db(corpus)),
                ServiceConfig {
                    rate_limit_per_minute: 1_000_000,
                    ..ServiceConfig::default()
                },
                Arc::new(clock.clone()),
            );
            svc.attach_tier2(Arc::clone(&store));
            let auth = svc.issue_token("corpus");
            (svc, auth, CrypText::new(corpus_db(corpus)))
        })
        .collect();

    let params = NormalizeParams::default();
    let uncached = |i: usize, text: &str| systems[i].2.normalize(text, params).unwrap();
    assert!(
        texts.iter().any(|t| uncached(0, t) != uncached(1, t)),
        "the corpora must disagree somewhere, or aliasing could not show"
    );
    // The first corpus fills the store; the second then reads through it
    // on every tier-1 miss.
    for (i, (svc, auth, _)) in systems.iter().enumerate() {
        for text in texts {
            assert_eq!(
                svc.normalize(auth, text, params).unwrap(),
                uncached(i, text),
                "corpus {i}: {text:?}"
            );
        }
    }
    if !env_arm_active() {
        let tier2 = |event| tier_count(&systems[1].0, event, "tier2");
        assert!(tier2("inserts") > 0, "both corpora wrote behind");
        assert!(tier2("misses") > 0, "the second corpus read through");
    }
}

#[test]
fn tier2_write_failures_never_break_requests() {
    // The write-behind to tier-2 is fire-and-forget: under a `kill` arm on
    // `cache.shared.put` (thread-local here; CI repeats it through the env
    // plane) every request still succeeds byte-identically, the failure is
    // counted, and tier-1 keeps serving warm hits.
    let clock = SimClock::new(0);
    let store = Arc::new(SharedCacheStore::new(
        CacheConfig::default(),
        Arc::new(clock.clone()),
    ));
    let mut svc = CryptextService::new(
        CrypText::new(corpus_db(FIXTURE)),
        ServiceConfig {
            rate_limit_per_minute: 1_000_000,
            ..ServiceConfig::default()
        },
        Arc::new(clock.clone()),
    );
    svc.attach_tier2(Arc::clone(&store));
    let auth = svc.issue_token("chaos");

    let reference = {
        let engine = CrypText::new(corpus_db(FIXTURE));
        engine
            .normalize("the vacc1ne mandates", NormalizeParams::default())
            .unwrap()
    };

    let _guard = failpoint::arm(SHARED_PUT_FAILPOINT, "kill@1");
    let cold = svc
        .normalize(&auth, "the vacc1ne mandates", NormalizeParams::default())
        .unwrap();
    let warm = svc
        .normalize(&auth, "the vacc1ne mandates", NormalizeParams::default())
        .unwrap();
    assert_eq!(cold, reference, "a killed write-behind never alters bytes");
    assert_eq!(warm, reference);

    assert!(
        tier_count(&svc, "put_errors", "tier2") >= 1,
        "the injected failure is counted"
    );
    assert_eq!(
        tier_count(&svc, "inserts", "tier2"),
        0,
        "nothing landed in tier-2"
    );
    assert!(
        tier_count(&svc, "hits", "normalize_results") > 0,
        "tier-1 still absorbs the warm traffic (exact repeat = result-cache hit)"
    );
}
