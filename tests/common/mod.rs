//! The service fixture shared by the suites that build a
//! `CryptextService` (`service_api`, `http_wire`): one crawled corpus,
//! assembled in each deployment layout the suites must hold under.

use std::sync::{Arc, OnceLock};

use cryptext::cache::SharedCacheStore;
use cryptext::common::SimClock;
use cryptext::core::database::TokenDatabase;
use cryptext::core::service::{CryptextService, ServiceConfig};
use cryptext::core::CrypText;
use cryptext::stream::{SocialPlatform, StreamConfig};

/// One deployment shape of the system under test.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Attach `SharedCacheStore::global()` as the tier-2 store.
    pub shared_tier2: bool,
}

/// The layouts every test runs under: tier-1 caches only, and tier-1
/// reading through to the process-global shared tier-2.
pub const LAYOUTS: [Layout; 2] = [
    Layout {
        shared_tier2: false,
    },
    Layout { shared_tier2: true },
];

/// Run `check` once per layout. The layout goes to stderr first, so a
/// failing test's captured output names the layout that failed.
pub fn each_layout(mut check: impl FnMut(Layout)) {
    for layout in LAYOUTS {
        eprintln!("layout: {layout:?}");
        check(layout);
    }
}

/// The crawled posts, simulated once per test binary.
fn posts() -> &'static [String] {
    static POSTS: OnceLock<Vec<String>> = OnceLock::new();
    POSTS.get_or_init(|| {
        let platform = SocialPlatform::simulate(StreamConfig {
            n_posts: 1_200,
            seed: 77,
            ..StreamConfig::default()
        });
        platform
            .posts()
            .iter()
            .map(|post| post.text.clone())
            .collect()
    })
}

/// A fresh database over the crawled corpus: the lexicon plus every post.
/// Each layout's service owns one, and the naive references read another.
pub fn corpus() -> TokenDatabase {
    let mut db = TokenDatabase::with_lexicon();
    db.ingest_texts(posts());
    db
}

/// The service over the corpus in `layout`, rate-limited to `limit`
/// requests per token per minute on a simulated clock.
pub fn service(layout: Layout, limit: u32) -> (CryptextService<TokenDatabase>, SimClock) {
    let clock = SimClock::new(0);
    let mut svc = CryptextService::new(
        CrypText::new(corpus()),
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
