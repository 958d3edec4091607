//! End-to-end integration: simulate a platform, crawl it, and exercise
//! every CrypText function across crate boundaries.
//!
//! Every test runs once per [`SHARD_COUNTS`] entry, on the consistent-hash
//! store resharded from one crawl: each shard count must pass the same
//! assertions, since sharding changes no result byte.

use std::sync::OnceLock;

use cryptext::core::database::TokenDatabase;
use cryptext::core::ingest::Crawler;
use cryptext::core::listening::{ListeningConfig, SocialListener};
use cryptext::core::TokenStore as _;
use cryptext::core::{
    CrypText, LookupParams, NormalizeParams, PerturbParams, ShardedTokenDatabase,
};
use cryptext::corpus::Sentiment;
use cryptext::stream::{SocialPlatform, StreamConfig};

const SHARD_COUNTS: [usize; 2] = [1, 4];

/// The simulated platform and its crawled database, built once per test
/// binary.
fn crawled() -> &'static (SocialPlatform, TokenDatabase) {
    static CRAWLED: OnceLock<(SocialPlatform, TokenDatabase)> = OnceLock::new();
    CRAWLED.get_or_init(|| {
        let platform = SocialPlatform::simulate(StreamConfig {
            n_posts: 2_500,
            seed: 4242,
            ..StreamConfig::default()
        });
        let mut db = TokenDatabase::with_lexicon();
        let mut crawler = Crawler::new();
        let stats = crawler.run_once(&platform, &mut db, 0);
        assert_eq!(stats.posts, 2_500);
        (platform, db)
    })
}

/// Run `check` against the platform and the system assembled over the
/// crawl at every shard count. The shard count goes to stderr first, so a
/// failing test's captured output names it.
fn each_shard_count(mut check: impl FnMut(&SocialPlatform, CrypText<ShardedTokenDatabase>)) {
    let (platform, db) = crawled();
    for shards in SHARD_COUNTS {
        eprintln!("shards: {shards}");
        check(
            platform,
            CrypText::with_store(ShardedTokenDatabase::from_database(db, shards)),
        );
    }
}

#[test]
fn crawl_lookup_normalize_perturb_listen() {
    each_shard_count(|platform, cx| {
        // Look Up finds wild perturbations of sensitive words.
        let hits = cx
            .look_up(
                "vaccine",
                LookupParams::paper_default()
                    .perturbations_only()
                    .observed(),
            )
            .expect("lookup");
        assert!(!hits.is_empty(), "wild perturbations of 'vaccine' found");
        for h in &hits {
            assert!(h.distance >= 1 && h.distance <= 3);
            assert!(h.count > 0, "observed_only respected");
        }

        // Every gold perturbation pair is normalizable back (sampled subset).
        let mut recovered = 0usize;
        let mut checked = 0usize;
        for post in platform.posts().iter().take(400) {
            for rec in &post.perturbations {
                checked += 1;
                let out = cx
                    .normalize(&post.text, NormalizeParams::default())
                    .expect("normalize");
                let case_only = rec.perturbed.eq_ignore_ascii_case(&rec.original);
                if case_only
                    || out.corrections.iter().any(|c| {
                        c.original == rec.perturbed
                            && c.replacement.eq_ignore_ascii_case(&rec.original)
                    })
                {
                    recovered += 1;
                }
            }
        }
        assert!(checked > 50, "enough gold pairs sampled: {checked}");
        let rate = recovered as f64 / checked as f64;
        assert!(
            rate > 0.7,
            "normalization recovers most gold pairs: {rate:.2}"
        );

        // Perturbation only emits database tokens.
        let out = cx
            .perturb(
                "the democrats discussed the vaccine mandate",
                PerturbParams::with_ratio(1.0),
            )
            .expect("perturb");
        for r in &out.replacements {
            let rec = cx.database().get(&r.replacement).expect("stored token");
            assert!(rec.count > 0, "{} observed in the wild", r.replacement);
        }

        // Social listening aggregates over the same feed.
        let listener = SocialListener::new(cx.database());
        let report = listener
            .watch(platform, "democrats", &ListeningConfig::default())
            .expect("watch");
        assert!(report.total_posts() > 0);
        assert!(report.perturbation_terms().count() > 0);
    });
}

#[test]
fn perturb_then_normalize_round_trip() {
    each_shard_count(|_, cx| {
        let clean = "the democrats and republicans discussed the vaccine mandate";
        let perturbed = cx
            .perturb(clean, PerturbParams::with_ratio(0.5).seeded(3))
            .expect("perturb");
        if perturbed.replacements.is_empty() {
            return; // nothing perturbable in this seed (should not happen)
        }
        assert_ne!(perturbed.text, clean);
        let normalized = cx
            .normalize(&perturbed.text, NormalizeParams::default())
            .expect("normalize");
        // Round trip restores the clean sentence modulo case. Short function
        // words ("the" → "thhe" → "they") are genuinely ambiguous under SMS —
        // allow them to miss, but every content word must come back.
        let clean_words = cryptext::tokenizer::words(clean);
        let restored_words = cryptext::tokenizer::words(&normalized.text);
        assert_eq!(clean_words.len(), restored_words.len());
        for (c, r) in clean_words.iter().zip(&restored_words) {
            if c.len() > 4 {
                assert!(
                    c.eq_ignore_ascii_case(r),
                    "content word restored: {c} vs {r} (full: {})",
                    normalized.text
                );
            }
        }
    });
}

#[test]
fn perturbation_ratio_monotonicity() {
    each_shard_count(|_, cx| {
        let text = "the democrats and republicans discussed the vaccine mandate with doctors \
                about depression treatment options";
        let mut counts = Vec::new();
        for ratio in [0.0, 0.25, 0.5, 1.0] {
            let out = cx
                .perturb(text, PerturbParams::with_ratio(ratio).seeded(5))
                .expect("perturb");
            counts.push(out.replacements.len() + out.misses);
        }
        for w in counts.windows(2) {
            assert!(w[0] <= w[1], "attempts grow with ratio: {counts:?}");
        }
    });
}

#[test]
fn listening_shows_negative_skew_for_perturbations() {
    each_shard_count(|platform, cx| {
        let listener = SocialListener::new(cx.database());
        let mut base = Vec::new();
        let mut pert = Vec::new();
        for word in ["democrats", "republicans", "vaccine"] {
            let report = listener
                .watch(platform, word, &ListeningConfig::default())
                .expect("watch");
            if report.terms[0].total > 20 {
                base.push(report.terms[0].overall_negative_fraction());
            }
            for t in report.perturbation_terms().filter(|t| t.total >= 2) {
                pert.push(t.overall_negative_fraction());
            }
        }
        let base_avg: f64 = base.iter().sum::<f64>() / base.len() as f64;
        let pert_avg: f64 = pert.iter().sum::<f64>() / pert.len() as f64;
        assert!(
            pert_avg > base_avg + 0.1,
            "perturbed spellings skew negative: {pert_avg:.2} vs {base_avg:.2}"
        );
        // Sanity: the platform's gold labels agree with the skew.
        let toxic_posts = platform.posts().iter().filter(|p| p.toxic).count();
        assert!(toxic_posts > 0);
        let _ = Sentiment::Negative;
    });
}
