//! The ingest crawler (§III-F).
//!
//! "We set up a crawler that regularly collects recent tweets to
//! continually enrich CrypText's database with novel perturbed tokens
//! online." [`Crawler`] consumes the simulated platform's stream from a
//! cursor, feeds every post through the tokenizer into the
//! [`TokenDatabase`](crate::database::TokenDatabase), and reports what it learned.

use cryptext_common::Timestamp;
use cryptext_stream::SocialPlatform;

use crate::store::TokenStore;

/// Statistics from one crawl batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Posts consumed.
    pub posts: usize,
    /// Word tokens ingested (occurrences).
    pub tokens: usize,
    /// Previously-unseen unique tokens added to the database.
    pub new_tokens: usize,
}

/// A resumable stream crawler.
#[derive(Debug, Default)]
pub struct Crawler {
    cursor: Timestamp,
    lifetime: IngestStats,
}

impl Crawler {
    /// A crawler starting from the beginning of time.
    pub fn new() -> Self {
        Crawler::default()
    }

    /// A crawler resuming from a persisted cursor.
    pub fn from_cursor(cursor: Timestamp) -> Self {
        Crawler {
            cursor,
            lifetime: IngestStats::default(),
        }
    }

    /// The resume cursor (exclusive lower bound of the next batch).
    pub fn cursor(&self) -> Timestamp {
        self.cursor
    }

    /// Lifetime totals across all batches.
    pub fn lifetime_stats(&self) -> IngestStats {
        self.lifetime
    }

    /// Consume every post at or after the cursor, up to `max_posts`
    /// (0 = unlimited). Advances the cursor past the last consumed post.
    /// Works against any [`TokenStore`] — the crawler feeds the durable
    /// store the same way it feeds the in-memory database.
    pub fn run_once<S: TokenStore>(
        &mut self,
        platform: &SocialPlatform,
        db: &mut S,
        max_posts: usize,
    ) -> IngestStats {
        // The cheap counter, not full stats(), which passes over every
        // record for counts this loop does not use.
        let before_unique = db.unique_tokens();
        let mut stats = IngestStats::default();
        let limit = if max_posts == 0 {
            usize::MAX
        } else {
            max_posts
        };
        let mut last_ts = self.cursor;
        for post in platform.stream_from(self.cursor).take(limit) {
            stats.posts += 1;
            stats.tokens += db.ingest_text(&post.text);
            last_ts = post.created_at + 1;
        }
        self.cursor = last_ts.max(self.cursor);
        stats.new_tokens = db.unique_tokens() - before_unique;
        self.lifetime.posts += stats.posts;
        self.lifetime.tokens += stats.tokens;
        self.lifetime.new_tokens += stats.new_tokens;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TokenDatabase;
    use cryptext_stream::StreamConfig;

    fn platform() -> SocialPlatform {
        SocialPlatform::simulate(StreamConfig {
            n_posts: 400,
            seed: 3,
            ..StreamConfig::default()
        })
    }

    #[test]
    fn full_crawl_ingests_every_post() {
        let p = platform();
        let mut db = TokenDatabase::in_memory();
        let mut crawler = Crawler::new();
        let stats = crawler.run_once(&p, &mut db, 0);
        assert_eq!(stats.posts, 400);
        assert!(stats.tokens > 1_000);
        assert!(stats.new_tokens > 50);
        assert_eq!(db.stats().unique_tokens, stats.new_tokens);
        // Second run: nothing new.
        let stats2 = crawler.run_once(&p, &mut db, 0);
        assert_eq!(stats2.posts, 0);
        assert_eq!(stats2.new_tokens, 0);
    }

    #[test]
    fn batched_crawl_resumes_at_cursor() {
        let p = platform();
        let mut db_batched = TokenDatabase::in_memory();
        let mut crawler = Crawler::new();
        let mut total_posts = 0;
        loop {
            let stats = crawler.run_once(&p, &mut db_batched, 50);
            total_posts += stats.posts;
            if stats.posts == 0 {
                break;
            }
        }
        assert_eq!(total_posts, 400);

        // Batched result equals one-shot result.
        let mut db_oneshot = TokenDatabase::in_memory();
        Crawler::new().run_once(&p, &mut db_oneshot, 0);
        assert_eq!(db_batched.stats(), db_oneshot.stats());
    }

    #[test]
    fn crawler_discovers_novel_perturbations() {
        let p = platform();
        let mut db = TokenDatabase::with_lexicon();
        let before = db.stats().unique_tokens;
        Crawler::new().run_once(&p, &mut db, 0);
        let after = db.stats().unique_tokens;
        assert!(
            after > before,
            "crawler added perturbed tokens beyond the lexicon: {before} → {after}"
        );
        // At least one added token is a known perturbation from the feed's
        // gold labels.
        let gold_perturbed: Vec<&str> = p
            .posts()
            .iter()
            .flat_map(|post| post.perturbations.iter().map(|r| r.perturbed.as_str()))
            .collect();
        assert!(gold_perturbed.iter().any(|t| db.get(t).is_some()));
    }

    #[test]
    fn cursor_round_trips_for_resume() {
        let p = platform();
        let mut db = TokenDatabase::in_memory();
        let mut crawler = Crawler::new();
        crawler.run_once(&p, &mut db, 100);
        let cursor = crawler.cursor();
        assert!(cursor > 0);

        // A new crawler from the persisted cursor sees only the rest.
        let mut resumed = Crawler::from_cursor(cursor);
        let stats = resumed.run_once(&p, &mut db, 0);
        assert_eq!(stats.posts, 300);
        assert_eq!(crawler.lifetime_stats().posts, 100);
    }

    #[test]
    fn empty_platform_is_noop() {
        let p = SocialPlatform::simulate(StreamConfig {
            n_posts: 0,
            ..StreamConfig::default()
        });
        let mut db = TokenDatabase::in_memory();
        let stats = Crawler::new().run_once(&p, &mut db, 0);
        assert_eq!(stats, IngestStats::default());
    }
}
