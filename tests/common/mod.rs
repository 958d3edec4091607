//! The service fixture shared by the suites that build a
//! `CryptextService` (`service_api`, `http_wire`): one crawled corpus,
//! assembled in each deployment layout the suites must hold under.

use std::sync::{Arc, OnceLock};

use cryptext::cache::SharedCacheStore;
use cryptext::common::SimClock;
use cryptext::core::database::TokenDatabase;
use cryptext::core::service::{CryptextService, ServiceConfig};
use cryptext::core::{CrypText, ShardedTokenDatabase};
use cryptext::stream::{SocialPlatform, StreamConfig};

/// One deployment shape of the system under test.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub shards: usize,
    /// Attach `SharedCacheStore::global()` as the tier-2 store.
    pub shared_tier2: bool,
}

/// The layouts every test runs under: 1 shard, 4 shards, and 4 shards
/// reading through to the process-global shared tier-2.
pub const LAYOUTS: [Layout; 3] = [
    Layout {
        shards: 1,
        shared_tier2: false,
    },
    Layout {
        shards: 4,
        shared_tier2: false,
    },
    Layout {
        shards: 4,
        shared_tier2: true,
    },
];

/// Run `check` once per layout. The layout goes to stderr first, so a
/// failing test's captured output names the layout that failed.
pub fn each_layout(mut check: impl FnMut(Layout)) {
    for layout in LAYOUTS {
        eprintln!("layout: {layout:?}");
        check(layout);
    }
}

/// The crawled corpus, built once per test binary; every layout's store
/// is built from it, so it doubles as the naive references' database.
pub fn corpus() -> &'static TokenDatabase {
    static CORPUS: OnceLock<TokenDatabase> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let platform = SocialPlatform::simulate(StreamConfig {
            n_posts: 1_200,
            seed: 77,
            ..StreamConfig::default()
        });
        let mut db = TokenDatabase::with_lexicon();
        for post in platform.posts() {
            db.ingest_text(&post.text);
        }
        db
    })
}

/// The service over the corpus in `layout`, rate-limited to `limit`
/// requests per token per minute on a simulated clock.
pub fn service(layout: Layout, limit: u32) -> (CryptextService<ShardedTokenDatabase>, SimClock) {
    let clock = SimClock::new(0);
    let mut svc = CryptextService::new(
        CrypText::with_store(ShardedTokenDatabase::from_database(corpus(), layout.shards)),
        ServiceConfig {
            rate_limit_per_minute: limit,
            ..ServiceConfig::default()
        },
        Arc::new(clock.clone()),
    );
    if layout.shared_tier2 {
        svc.attach_tier2(SharedCacheStore::global());
    }
    (svc, clock)
}
