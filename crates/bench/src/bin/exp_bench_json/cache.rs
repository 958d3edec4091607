//! `BENCH_cache.json`: the tiered result-cache dimension — the hit/miss
//! latency split of the service's normalize caches (the whole-text result
//! cache over the cross-text candidate memo), uncached engine vs pure warm
//! hits, and a Zipf replay with a mid-stream generation bump.
//!
//! The hit/miss/invalidation counts are a pure function of the seeded
//! replay. Two latency invariants have margins wide enough to hold on any
//! machine and are gated: a warm hit costs at most a third of the uncached
//! p50, and the hit-dominated replay's p99 undercuts the uncached p99.
//! Every cached response is byte-checked against the uncached engine.

use std::sync::Arc;
use std::time::Instant;

use cryptext_bench::build_db;
use cryptext_common::SimClock;
use cryptext_core::service::{CryptextService, ServiceConfig};
use cryptext_core::{CrypText, NormalizeParams, NormalizeScratch, Normalizer};
use cryptext_stream::SocialPlatform;

use crate::doc::{Doc, Obj};
use crate::{measure, micros_since, p50_p99, Corpus, NORM_ROUNDS, SEED};

/// The Zipf replay: [`CACHE_REPLAY`] normalize requests drawn Zipf-style
/// (exponent [`CACHE_ZIPF_S`]) from a pool of [`CACHE_POOL`] distinct feed
/// texts — hot texts repeat, the tail stays cold — with one generation
/// bump (cache flush) halfway through. The small pool keeps the
/// request-level hit rate above 99%, so the replay's p99 lands on the hit
/// path.
const CACHE_POOL: usize = 32;
const CACHE_REPLAY: usize = 10_000;
const CACHE_ZIPF_S: f64 = 1.1;

pub fn run(platform: &SocialPlatform) -> Result<Doc, String> {
    // Every fourth pool text gets the same out-of-dictionary token
    // appended (to both the reference and the service side — the texts
    // stay identical). Its empty candidate list is written once and then
    // served as a *negative* candidate hit when the other carriers fill
    // cold; exact repeats never reach the memo (the whole-text result
    // cache absorbs them), so this cross-text sharing is what pins the
    // negative path.
    let texts: Vec<String> = platform
        .posts()
        .iter()
        .take(CACHE_POOL)
        .enumerate()
        .map(|(i, p)| format!("{}{}", p.text, if i % 4 == 0 { " zzqzyxt" } else { "" }))
        .collect();
    let pool: Vec<&str> = texts.iter().map(String::as_str).collect();
    let params = NormalizeParams::default();

    // The uncached reference: its own identically-built system, normalized
    // through the bare engine (no service, no cache).
    let cx = CrypText::new(build_db(platform));
    let normalizer = Normalizer::new(cx.language_model());
    let mut scratch = NormalizeScratch::new();
    let mut engine = |t: &str| {
        normalizer
            .normalize_with(cx.database(), t, params, &mut scratch)
            .expect("reference normalize")
    };
    let reference: Vec<_> = pool.iter().map(|t| engine(t)).collect();

    // The caching service under test, on a frozen clock (no TTL expiry —
    // the mid-replay generation bump is the only invalidation).
    let svc = CryptextService::new(
        CrypText::new(build_db(platform)),
        ServiceConfig {
            rate_limit_per_minute: 100_000_000,
            ..ServiceConfig::default()
        },
        Arc::new(SimClock::new(0)),
    );
    let auth = svc.issue_token("bench-cache");
    let cached = |t: &str| svc.normalize(&auth, t, params).expect("cached normalize");

    let mut samples_us = Vec::with_capacity(CACHE_REPLAY);
    for (j, i) in zipf_sequence(CACHE_POOL, CACHE_REPLAY, SEED)
        .into_iter()
        .enumerate()
    {
        if j == CACHE_REPLAY / 2 {
            svc.bump_generation();
        }
        let start = Instant::now();
        let got = cached(pool[i]);
        samples_us.push(micros_since(start));
        assert_eq!(
            got, reference[i],
            "cached replay must stay byte-identical to the uncached engine"
        );
    }
    // Read the counters before any further traffic: these are the
    // replay's own deterministic hit/miss/invalidation counts.
    let tiers = svc.metrics().snapshot();
    let count = |event: &str| tiers.counter_total(&format!("cryptext_cache_{event}_total"));
    let at = |event: &str, tier| {
        tiers.counter_labeled(&format!("cryptext_cache_{event}_total"), "tier", tier)
    };
    let (replay_p50_us, replay_p99_us) = p50_p99(samples_us);

    // The latency split: uncached engine path vs pure warm hits, same
    // pool, same rounds. One priming pass each so the warm side really is
    // all hits (the bump halfway through the replay left tail entries
    // cold) and the uncached side starts on a hot scratch.
    for t in &pool {
        let _ = engine(t);
        let _ = cached(t);
    }
    let uncached = measure(&pool, NORM_ROUNDS, |t| engine(t).corrections.len());
    let warm = measure(&pool, NORM_ROUNDS, |t| cached(t).corrections.len());
    assert_eq!(
        warm.total_hits, uncached.total_hits,
        "the warm-hit pass must produce identical corrections"
    );
    if warm.p50_us * 3.0 > uncached.p50_us {
        return Err(format!(
            "warm-hit normalize p50 {:.2}µs is not ≤ 1/3 of the uncached {:.2}µs",
            warm.p50_us, uncached.p50_us
        ));
    }
    if replay_p99_us >= uncached.p99_us {
        return Err(format!(
            "Zipf-replay p99 {replay_p99_us:.2}µs did not undercut the uncached p99 {:.2}µs",
            uncached.p99_us
        ));
    }

    let result_hits = at("hits", "normalize_results");
    let speedup = uncached.p50_us / warm.p50_us;
    Ok(Doc::new(
        "cache",
        Obj::block()
            .obj("corpus", Corpus::echo())
            .obj(
                "zipf_replay",
                Obj::block()
                    .pin("requests", CACHE_REPLAY)
                    .pin("distinct_texts", CACHE_POOL)
                    .info("zipf_s", CACHE_ZIPF_S)
                    .float("p50_us", replay_p50_us, 2)
                    .float("p99_us", replay_p99_us, 2)
                    .pin("result_hits", result_hits)
                    .pin("result_misses", at("misses", "normalize_results"))
                    .pin("candidate_hits", at("hits", "normalize"))
                    .pin("candidate_misses", at("misses", "normalize"))
                    .float("hit_rate", result_hits as f64 / CACHE_REPLAY as f64, 4)
                    .pin("negative_candidate_hits", count("negative_hits"))
                    .pin("invalidation_bumps", count("invalidation_bumps"))
                    .info("invalidated_entries", count("invalidated_entries")),
            )
            .obj(
                "latency_split",
                Obj::block()
                    .float("uncached_p50_us", uncached.p50_us, 2)
                    .float("uncached_p99_us", uncached.p99_us, 2)
                    .float("warm_hit_p50_us", warm.p50_us, 2)
                    .float("warm_hit_p99_us", warm.p99_us, 2)
                    .float("speedup_p50_uncached_over_hit", speedup, 2),
            ),
    ))
}

/// A deterministic Zipf-distributed index sequence over `pool` items:
/// xorshift64* stream mapped through the CDF of `1/(i+1)^s` weights.
fn zipf_sequence(pool: usize, len: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..pool)
        .map(|i| 1.0 / ((i + 1) as f64).powf(CACHE_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            cdf.iter().position(|&c| u < c).unwrap_or(pool - 1)
        })
        .collect()
}
