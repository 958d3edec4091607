//! The public-API service facade (§III-F).
//!
//! "All functions of CrypText are equipped with secured public APIs,
//! allowing users to utilize Look Up, Normalization and Perturbation in
//! bulks. Accessing such APIs requires an authorization token… a Redis
//! cache is adapted to temporarily store and re-use recent queried
//! results."
//!
//! [`CryptextService`] reproduces that contract in-process: API-token
//! authentication, per-token fixed-window rate limiting over an injected
//! [`Clock`], TTL+LRU result caches, and bulk endpoints. The service is
//! generic over the [`TokenStore`], so the same facade fronts the
//! in-memory database or the durable store that logs its ingest.
//!
//! # Cache tiers
//!
//! Tier-1 is always on: four in-process caches (Look Up results,
//! whole-text Normalization results, the cross-text Normalization
//! candidate memo, and per-token Perturbation choice lists). Tier-2 — the
//! Redis role — is the byte-valued [`SharedCacheStore`] the candidate memo
//! reads through to and writes behind. A service has none until the code
//! that assembles it calls [`CryptextService::attach_tier2`], once,
//! typically with the process-global [`SharedCacheStore::global`] that a
//! fleet of replicas shares. Nothing about the tiers is read from the
//! environment.
//!
//! # Concurrency
//!
//! Every request crosses the authorization path, so it must never become
//! the serialization point for bulk traffic. The token table is an
//! `RwLock` taken in **read** mode on the hot path — rate-limit state
//! lives in per-token atomics, and the write lock is reserved for the
//! rare mutations (issuing and revoking tokens). Concurrent
//! [`CryptextService::look_up_bulk`] readers therefore proceed in
//! parallel instead of queueing behind one another (or behind a token
//! writer) on a single exclusive lock.

use std::cell::RefCell;
use std::hash::{DefaultHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cryptext_cache::{Cache, CacheConfig, CacheStats, SharedCacheStore};
use cryptext_common::hash::{fx_hash_str, FxHashMap};
use cryptext_common::metrics::{Counter, Gauge, MetricsRegistry};
use cryptext_common::par::try_par_map;
use cryptext_common::{Clock, Error, FxHasher, Result, Timestamp};
use parking_lot::RwLock;

use crate::database::TokenDatabase;
use crate::lookup::{hits_of, look_up_cancellable, HitId, LookupHit, LookupParams, LookupScratch};
use crate::metrics::StageMetrics;
use crate::normalize::{
    CandidateCache, CandidatePairs, NormalizationResult, NormalizeParams, NormalizeScratch,
    Normalizer,
};
use crate::perturb::{
    collect_choices, perturb_with, ChoiceList, PerturbParams, PerturbationOutcome,
};
use crate::store::TokenStore;
use crate::CrypText;

/// An issued API authorization token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ApiToken(String);

impl ApiToken {
    /// The opaque token string (what a client would put in a header).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Rebuild a token from its raw string — the inverse of
    /// [`Self::as_str`], for wire layers that receive the credential in a
    /// header. Construction does **not** validate: an unknown or revoked
    /// string still authorizes to `Unauthorized` exactly like a revoked
    /// issued token.
    pub fn from_raw(raw: impl Into<String>) -> Self {
        ApiToken(raw.into())
    }
}

/// Where a cached endpoint's result came from, for response cache
/// metadata (the HTTP layer derives `Cache-Control`-style hints from it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Tier-1 whole-result hit: the Look Up result cache or the
    /// whole-text Normalization result cache answered without touching
    /// retrieval or scoring.
    Tier1Hit,
    /// Computed this request (lower tiers — candidate memo, tier-2 —
    /// may still have contributed pieces).
    Cold,
}

/// One tier-1 Look Up entry, shared by reference count: the query's
/// sorted hits named by record id, and a slot for a wire body rendered
/// from them.
///
/// The ids name records of the service's store, which the service only
/// reads (`&self`), and a generation bump flushes the tier; so the ids
/// stay valid, and a kept body stays true, for the entry's whole life.
/// The service never fills the slot: a front end that serves the entry
/// again renders into it once ([`Self::body_or_init`]) and writes those
/// bytes from then on.
#[derive(Debug)]
pub struct LookupEntry {
    hits: Box<[HitId]>,
    body: OnceLock<Box<str>>,
}

impl LookupEntry {
    /// An entry for `hits`, sorted in Look Up's order, with an empty body
    /// slot.
    pub fn new(hits: Vec<HitId>) -> Self {
        LookupEntry {
            hits: hits.into_boxed_slice(),
            body: OnceLock::new(),
        }
    }

    /// The hits, in Look Up's order.
    pub fn hits(&self) -> &[HitId] {
        &self.hits
    }

    /// The kept body, if a front end has rendered it.
    pub fn body(&self) -> Option<&str> {
        self.body.get().map(|b| &**b)
    }

    /// The kept body, rendered from the hits by `render` on the first
    /// call; concurrent first callers wait for one render.
    pub fn body_or_init(&self, render: impl FnOnce(&[HitId]) -> String) -> &str {
        self.body
            .get_or_init(|| render(&self.hits).into_boxed_str())
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Requests allowed per token per fixed one-minute window.
    pub rate_limit_per_minute: u32,
    /// Look Up cache capacity (entries).
    pub cache_capacity: usize,
    /// Look Up cache TTL in milliseconds.
    pub cache_ttl_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            rate_limit_per_minute: 600,
            cache_capacity: 10_000,
            cache_ttl_ms: 5 * 60 * 1000,
        }
    }
}

/// Per-token rate-limit state, mutated through one atomic so the hot
/// authorization path only ever takes the token table's **read** lock.
///
/// The window index (clock-aligned, `now / WINDOW_MS`) and the used
/// counter are packed into a single `AtomicU64` — `(window << 32) | used`
/// — so a window rollover swaps both halves in one compare-exchange.
/// Splitting them into two atomics would race: a reset of the counter
/// could erase slots claimed between the window CAS and the counter
/// store, making admission inexact.
struct RateState {
    window: AtomicU64,
}

impl RateState {
    fn new(window_index: u64) -> Self {
        RateState {
            window: AtomicU64::new(window_index << 32),
        }
    }
}

const WINDOW_MS: u64 = 60_000;

thread_local! {
    /// Scratch for the service's Look Up endpoints, which drive the
    /// cancellable walk directly rather than through the engine's shared
    /// thread-local (gateway executor threads own this one).
    static LOOKUP_SCRATCH: RefCell<LookupScratch> = RefCell::new(LookupScratch::new());

    /// Scratch for the service's cached Normalization endpoints (one per
    /// thread — bulk fan-out workers each own their buffers and LM memo).
    static NORMALIZE_SCRATCH: RefCell<NormalizeScratch> = RefCell::new(NormalizeScratch::new());
}

/// A compact 128-bit hashed cache key: an fx digest and a SipHash-1-3
/// digest of the request material. Replaces the old per-request `String`
/// key — no allocation, fixed size. The two halves come from different
/// hash functions because FxHash is not collision-resistant on its own:
/// inputs that differ only in a word's top byte (`diagNOSig`/`diagNOSIs`)
/// collide under any salt. SipHash has no such structure, and std's
/// `DefaultHasher::new()` uses fixed keys, so tier-2 keys still agree
/// across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    fn as_u128(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

/// Hash the same material with FxHash and SipHash into one 128-bit key.
fn two_point_hash(write: impl Fn(&mut dyn Hasher)) -> CacheKey {
    let mut a = FxHasher::default();
    a.write_u64(0x9E37_79B9_7F4A_7C15);
    write(&mut a);
    let mut b = DefaultHasher::new();
    write(&mut b);
    CacheKey {
        hi: a.finish(),
        lo: b.finish(),
    }
}

/// Serialize candidate pairs for the byte-valued tier-2 store:
/// `count:u64` then per pair `word_len:u32 ‖ word bytes ‖ distance:u64`,
/// all little-endian.
fn encode_pairs(pairs: &[(String, usize)]) -> Vec<u8> {
    let body: usize = pairs.iter().map(|(w, _)| w.len() + 12).sum();
    let mut out = Vec::with_capacity(8 + body);
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (w, d) in pairs {
        out.extend_from_slice(&(w.len() as u32).to_le_bytes());
        out.extend_from_slice(w.as_bytes());
        out.extend_from_slice(&(*d as u64).to_le_bytes());
    }
    out
}

/// Decode [`encode_pairs`] bytes; `None` on any malformation (a corrupt
/// tier-2 value degrades to a miss, never an error or a panic).
fn decode_pairs(bytes: &[u8]) -> Option<Vec<(String, usize)>> {
    let (head, mut rest) = bytes.split_at_checked(8)?;
    let count = u64::from_le_bytes(head.try_into().ok()?);
    let mut pairs = Vec::new();
    for _ in 0..count {
        let (len_bytes, tail) = rest.split_at_checked(4)?;
        let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
        let (word_bytes, tail) = tail.split_at_checked(len)?;
        let word = std::str::from_utf8(word_bytes).ok()?.to_string();
        let (d_bytes, tail) = tail.split_at_checked(8)?;
        let distance = usize::try_from(u64::from_le_bytes(d_bytes.try_into().ok()?)).ok()?;
        pairs.push((word, distance));
        rest = tail;
    }
    rest.is_empty().then_some(pairs)
}

/// The clock-aligned window index of a timestamp, truncated to the packed
/// 32-bit field (wraps after ~8,000 years of minutes).
fn window_index(now: Timestamp) -> u64 {
    (now / WINDOW_MS) & 0xFFFF_FFFF
}

/// Compute the successor of one packed `(window << 32) | used` word for a
/// request arriving in `now_window`, or `None` when the window budget is
/// exhausted.
///
/// Pure so the packing arithmetic is testable at the boundaries. Two
/// hardenings over the original inline form:
///
/// * the used counter **saturates** at `u32::MAX` instead of carrying into
///   the window half. With the admission check in place the carry is not
///   reachable (a full counter is rejected first, since `limit ≤
///   u32::MAX`), but the old code enforced that only through the distance
///   between the guard and the increment — a future guard change could
///   have turned the increment into a window flip (window + 1, used reset
///   to 0: a silently refilled budget). The field invariant now holds
///   locally;
/// * the budget comparison happens in `u64` rather than truncating `used`
///   to `u32`, so a corrupted word whose used half somehow exceeded 32
///   bits rate-limits instead of casting back into the admissible range.
#[inline]
fn advance_packed(cur: u64, now_window: u64, limit: u32) -> Option<u64> {
    let (win, used) = (cur >> 32, cur & 0xFFFF_FFFF);
    if win == now_window {
        if used >= limit as u64 {
            return None;
        }
        Some((win << 32) | (used + 1).min(0xFFFF_FFFF))
    } else {
        // Fresh window: this request claims its first slot.
        Some((now_window << 32) | 1)
    }
}

/// An attached tier-2 store and where this service's data lives in it.
struct Tier2 {
    store: Arc<SharedCacheStore>,
    /// Content identity of (store, LM), taken when the store is attached:
    /// mixed with the generation into the namespace, so replicas over the
    /// same data share entries and different deployments never alias.
    identity: u64,
}

impl Tier2 {
    /// The namespace for one generation of this service's data.
    fn namespace(&self, generation: u64) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(self.identity);
        h.write_u64(generation);
        h.finish()
    }
}

/// The authenticated, rate-limited, cached service facade, generic over
/// the storage backend.
pub struct CryptextService<S: TokenStore = TokenDatabase> {
    system: CrypText<S>,
    config: ServiceConfig,
    clock: Arc<dyn Clock>,
    tokens: RwLock<std::collections::HashMap<String, RateState>>,
    issued: std::sync::atomic::AtomicU64,
    /// Tier-1 Look Up results. Each entry is shared: a hit hands out a
    /// reference count, not a copy of the hits.
    lookup_cache: Cache<CacheKey, Arc<LookupEntry>>,
    /// Tier-1 cross-text Normalization candidate memo (negative entries
    /// are empty pair lists — the out-of-dictionary p99 path).
    norm_cache: Cache<CacheKey, CandidatePairs>,
    /// Tier-1 whole-text Normalization *result* cache: an exact repeat of
    /// a text (raw bytes — the result echoes the input's casing) skips
    /// retrieval *and* scoring. Sits in front of the candidate memo; the
    /// memo still serves cross-text token repeats when this misses. Like
    /// the Look Up tier, each entry is shared, not copied, on a hit.
    norm_result_cache: Cache<CacheKey, Arc<NormalizationResult>>,
    /// Tier-1 Perturbation choice lists, one per token and choice-rule
    /// params. A list does not depend on the seed or the ratio, so a token
    /// repeated across texts and seeds skips the phonetic walk. Tier-1
    /// only: tier-2 holds candidate pairs alone.
    perturb_cache: Cache<CacheKey, ChoiceList>,
    /// Optional tier-2 byte store the normalize cache reads through to and
    /// writes behind; possibly shared with replica services.
    tier2: Option<Tier2>,
    /// Data-version counter; part of every cache key. Bumped on ingest
    /// (via the gateway), which invalidates both tiers.
    generation: AtomicU64,
    negative_hits: Counter,
    invalidation_bumps: Counter,
    invalidated_entries: Counter,
    /// The instance's metrics registry: every cache tier, the store,
    /// engine stage, and service counter above registers its live cells
    /// here. Front-ends (gateway, HTTP) adopt it via [`Self::metrics`].
    metrics: Arc<MetricsRegistry>,
    /// Per-stage engine instruments, attached to the per-thread scratches
    /// around every engine call.
    stages: Arc<StageMetrics>,
    /// Registry view of [`Self::generation`].
    generation_gauge: Gauge,
}

impl<S: TokenStore> CryptextService<S> {
    /// Wrap an assembled [`CrypText`] system, with tier-1 caches only
    /// (see [`Self::attach_tier2`]).
    pub fn new(system: CrypText<S>, config: ServiceConfig, clock: Arc<dyn Clock>) -> Self {
        let tier_config = || CacheConfig {
            capacity: config.cache_capacity,
            default_ttl_ms: Some(config.cache_ttl_ms),
            shards: 8,
        };
        let lookup_cache = Cache::new(tier_config(), Arc::clone(&clock));
        let norm_cache = Cache::new(tier_config(), Arc::clone(&clock));
        let norm_result_cache = Cache::new(tier_config(), Arc::clone(&clock));
        let perturb_cache = Cache::new(tier_config(), Arc::clone(&clock));

        // One registry per service instance: every layer below registers
        // its live cells, so each snapshot/render is a consistent view of
        // this instance (tests and replica fleets never cross-pollute).
        let metrics = Arc::new(MetricsRegistry::new());
        lookup_cache.register_metrics(&metrics, "lookup");
        norm_cache.register_metrics(&metrics, "normalize");
        norm_result_cache.register_metrics(&metrics, "normalize_results");
        perturb_cache.register_metrics(&metrics, "perturb");
        let negative_hits = metrics.counter(
            "cryptext_cache_negative_hits_total",
            "Normalize hits that served a cached negative (no-candidate) entry",
        );
        let invalidation_bumps = metrics.counter(
            "cryptext_cache_invalidation_bumps_total",
            "Generation bumps (whole-hierarchy cache invalidations)",
        );
        let invalidated_entries = metrics.counter(
            "cryptext_cache_invalidated_entries_total",
            "Entries flushed by generation bumps, across tiers",
        );
        let generation_gauge = metrics.gauge(
            "cryptext_service_generation",
            "Current data-version generation (part of every cache key)",
        );
        let stages = Arc::new(StageMetrics::new());
        stages.register(&metrics);
        system.database().register_metrics(&metrics);

        CryptextService {
            system,
            config,
            clock,
            tokens: RwLock::new(std::collections::HashMap::new()),
            issued: std::sync::atomic::AtomicU64::new(0),
            lookup_cache,
            norm_cache,
            norm_result_cache,
            perturb_cache,
            tier2: None,
            generation: AtomicU64::new(0),
            negative_hits,
            invalidation_bumps,
            invalidated_entries,
            metrics,
            stages,
            generation_gauge,
        }
    }

    /// Attach the tier-2 store — e.g. point a fleet of replica services at
    /// one [`SharedCacheStore`]. Call at most once, while
    /// assembling the service (before wrapping it in an `Arc`).
    ///
    /// The store's counters join this service's registry under
    /// `tier="tier2"` ([`Self::metrics`]). The namespace root is the
    /// content identity of the store and LM as they are now: replicas
    /// built from the same data compute the same one and share entries.
    ///
    /// # Panics
    ///
    /// If a tier-2 store is already attached.
    pub fn attach_tier2(&mut self, store: Arc<SharedCacheStore>) {
        assert!(self.tier2.is_none(), "a tier-2 store is already attached");
        let stats = self.system.database().stats();
        let mut h = FxHasher::default();
        h.write_u64(self.system.language_model().fingerprint());
        h.write_usize(stats.unique_tokens);
        h.write_u64(stats.total_occurrences);
        for sounds in stats.unique_sounds {
            h.write_usize(sounds);
        }
        h.write_usize(stats.english_tokens);
        store.register_metrics(&self.metrics, "tier2");
        self.tier2 = Some(Tier2 {
            store,
            identity: h.finish(),
        });
    }

    /// Is a tier-2 store attached?
    pub fn tier2_attached(&self) -> bool {
        self.tier2.is_some()
    }

    /// The current data-version; part of every cache key.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Bump the data-version after an out-of-band ingest: every tier-1
    /// entry (keyed on the old generation) is dropped and the old tier-2
    /// namespace is flushed. Returns the new generation.
    pub fn bump_generation(&self) -> u64 {
        let old = self.generation.fetch_add(1, Ordering::AcqRel);
        self.invalidation_bumps.inc();
        self.generation_gauge.set((old + 1) as i64);
        // Every tier-1 entry carries a generation ≤ old in its key and is
        // now unreachable; drop rather than letting stale entries LRU out.
        let mut flushed = self.lookup_cache.len()
            + self.norm_cache.len()
            + self.norm_result_cache.len()
            + self.perturb_cache.len();
        self.lookup_cache.clear();
        self.norm_cache.clear();
        self.norm_result_cache.clear();
        self.perturb_cache.clear();
        if let Some(t2) = &self.tier2 {
            flushed += t2.store.invalidate_namespace(t2.namespace(old));
        }
        self.invalidated_entries.add(flushed as u64);
        old + 1
    }

    /// Issue a new API token for `owner` ("provided upon request" in the
    /// paper). The returned token is the only credential; store it.
    pub fn issue_token(&self, owner: &str) -> ApiToken {
        let n = self
            .issued
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let token = format!(
            "cx_{owner}_{:016x}",
            fx_hash_str(owner) ^ (n << 1) ^ 0xC0FFEE
        );
        self.tokens.write().insert(
            token.clone(),
            RateState::new(window_index(self.clock.now())),
        );
        ApiToken(token)
    }

    /// Revoke a token; subsequent calls with it fail with `Unauthorized`.
    pub fn revoke_token(&self, token: &ApiToken) {
        self.tokens.write().remove(&token.0);
    }

    /// Authorize one request: token must exist and have window budget.
    ///
    /// Lock-light hot path: the token table is read-locked (many
    /// authorizations proceed concurrently; only issue/revoke take the
    /// write lock) and the per-token window state advances through one
    /// packed-atomic CAS loop. Because the window index and the used
    /// counter travel in the same word, rollover and slot claims are
    /// mutually atomic and admission is exact: each clock-aligned
    /// one-minute window admits precisely `rate_limit_per_minute`
    /// requests no matter how many threads race.
    fn authorize(&self, token: &ApiToken) -> Result<()> {
        let now: Timestamp = self.clock.now();
        let now_window = window_index(now);
        let tokens = self.tokens.read();
        let state = tokens
            .get(&token.0)
            .ok_or_else(|| Error::Unauthorized(format!("unknown token {}", token.0)))?;
        let mut cur = state.window.load(Ordering::Acquire);
        loop {
            let Some(next) = advance_packed(cur, now_window, self.config.rate_limit_per_minute)
            else {
                // The budget refills when the clock-aligned window rolls
                // over; tell the caller exactly how long that is.
                return Err(Error::RateLimited {
                    retry_after_ms: WINDOW_MS - now % WINDOW_MS,
                });
            };
            match state
                .window
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Run the authentication + rate-limit gate for one request *without*
    /// executing anything — the admission hook for front-ends (the service
    /// gateway) that separate authorization from execution. A successful
    /// call charges one request against the token's window, exactly like
    /// the inline endpoints do.
    pub fn authorize_request(&self, token: &ApiToken) -> Result<()> {
        self.authorize(token)
    }

    /// The clock this service (and its cache) runs on, so a front-end
    /// layered above shares the same notion of time — deadlines measured
    /// by the gateway and windows measured by the rate limiter must not
    /// drift apart under a simulated clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// The Look Up cache key: a hashed digest of the raw token, retrieval
    /// params, and the current generation — replacing the old allocating
    /// `format!` String key.
    fn lookup_cache_key(&self, token: &str, params: LookupParams) -> CacheKey {
        let generation = self.generation();
        two_point_hash(|h| {
            h.write_u8(b'L');
            h.write_u64(generation);
            h.write_usize(params.k);
            h.write_usize(params.d);
            h.write_u8(params.exclude_identity as u8);
            h.write_u8(params.observed_only as u8);
            h.write(token.as_bytes());
        })
    }

    /// The Normalization candidate cache key: keyed on the token's ASCII
    /// case-fold (retrieval is provably fold-invariant for ASCII tokens:
    /// Soundex codes, folds, and distances all case-fold first), the
    /// retrieval half of the params (`k`, `d` — scoring weights are
    /// recomputed per context, so they stay out of the key), and the
    /// generation. Non-ASCII tokens key on their raw bytes: the phonetic
    /// fold and `str::to_lowercase` can diverge outside ASCII, so folding
    /// the key there could alias tokens with different retrievals.
    fn normalize_cache_key(&self, token: &str, k: usize, d: usize) -> CacheKey {
        let generation = self.generation();
        two_point_hash(|h| {
            h.write_u8(b'N');
            h.write_u64(generation);
            h.write_usize(k);
            h.write_usize(d);
            if token.is_ascii() {
                for byte in token.bytes() {
                    h.write_u8(byte.to_ascii_lowercase());
                }
            } else {
                h.write(token.as_bytes());
            }
        })
    }

    /// The whole-text Normalization result key: the full params (the
    /// scoring weights shape the cached output, so unlike the candidate
    /// key they all participate) plus the *raw* text bytes. No case-fold
    /// here — the result echoes the input's casing, so differently-cased
    /// texts must not alias.
    fn normalize_result_key(&self, text: &str, params: NormalizeParams) -> CacheKey {
        let generation = self.generation();
        two_point_hash(|h| {
            h.write_u8(b'T');
            h.write_u64(generation);
            h.write_usize(params.k);
            h.write_usize(params.d);
            h.write_u64(params.edit_penalty.to_bits());
            h.write_u64(params.prior_weight.to_bits());
            h.write_usize(params.max_candidates);
            h.write(text.as_bytes());
        })
    }

    /// The Perturbation choice-list key: the raw token bytes and the
    /// params that shape its choice list (`k`, `d`, the case mode,
    /// `observed_only`), never the seed or the ratio. The caller reads the
    /// generation once per text, so every token of one request keys on the
    /// same data version.
    fn perturb_choices_key(&self, generation: u64, token: &str, params: PerturbParams) -> CacheKey {
        two_point_hash(|h| {
            h.write_u8(b'P');
            h.write_u64(generation);
            h.write_usize(params.k);
            h.write_usize(params.d);
            h.write_u8(params.case_sensitive as u8);
            h.write_u8(params.observed_only as u8);
            h.write(token.as_bytes());
        })
    }

    /// Look Up endpoint (cached).
    pub fn look_up(
        &self,
        auth: &ApiToken,
        token: &str,
        params: LookupParams,
    ) -> Result<Vec<LookupHit>> {
        self.authorize(auth)?;
        self.look_up_shared(token, params, &mut || None)
            .map(|(entry, _)| self.hits(&entry))
    }

    /// The owned hits a tier-1 entry names, read from this service's
    /// store.
    fn hits(&self, entry: &LookupEntry) -> Vec<LookupHit> {
        hits_of(self.system.database(), entry.hits())
    }

    /// Look Up *after* the caller already passed [`Self::authorize_request`]
    /// — the execution half of the gateway's admit-then-execute split, so
    /// one admitted request is charged exactly once — and the cached core
    /// every Look Up endpoint funnels through, stage instruments included.
    ///
    /// The result is the tier-1 entry itself: a hit returns a reference
    /// count on the cached entry, and a miss inserts the entry it
    /// returns. `cancel` is a cooperative cancellation probe, consulted
    /// per candidate during the store walk (through the early-exit
    /// visitor), so a request whose deadline expired stops burning store
    /// time mid-walk and surfaces the probe's error. The [`Served`] half
    /// says whether tier-1 answered ([`Served::Tier1Hit`]) or the store
    /// walk ran ([`Served::Cold`]); the gateway's response envelope
    /// carries it through to wire-level cache headers.
    pub fn look_up_shared(
        &self,
        token: &str,
        params: LookupParams,
        cancel: &mut dyn FnMut() -> Option<Error>,
    ) -> Result<(Arc<LookupEntry>, Served)> {
        let key = self.lookup_cache_key(token, params);
        if let Some(entry) = self.lookup_cache.get(&key) {
            return Ok((entry, Served::Tier1Hit));
        }
        let hits = LOOKUP_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            // Attach the shared stage instruments for the duration of the
            // engine call; detach before surfacing any error so a scratch
            // reused by a metrics-free caller stays on the no-op branch.
            scratch.attach_stages(Some(Arc::clone(&self.stages)));
            let res = look_up_cancellable(self.system.database(), token, params, scratch, cancel);
            scratch.attach_stages(None);
            res
        })?;
        let entry = Arc::new(LookupEntry::new(hits));
        self.lookup_cache.insert(key, Arc::clone(&entry));
        Ok((entry, Served::Cold))
    }

    /// [`Self::look_up_shared`] with the entry's hits projected to owned
    /// hits, read from the store ([`crate::lookup::hits_of`]).
    pub fn look_up_prechecked_traced(
        &self,
        token: &str,
        params: LookupParams,
        cancel: &mut dyn FnMut() -> Option<Error>,
    ) -> Result<(Vec<LookupHit>, Served)> {
        self.look_up_shared(token, params, cancel)
            .map(|(entry, served)| (self.hits(&entry), served))
    }

    /// Normalization after external authorization (see
    /// [`Self::look_up_shared`]), plus provenance: whether the
    /// whole-text result cache answered ([`Served::Tier1Hit`]) or
    /// retrieval + scoring ran ([`Served::Cold`] — per-token candidate
    /// memo hits still count as cold, the *result* was assembled fresh).
    /// The engine is not internally cancellable, so deadline checks
    /// happen at the gateway's layer boundaries instead.
    ///
    /// The cached Normalization core every endpoint funnels through. Two
    /// layers: the whole-text result cache answers exact repeats without
    /// touching retrieval or scoring at all, and below it per-token
    /// candidate retrieval consults the tier hierarchy (tier-1 memo, then
    /// the tier-2 byte store when attached) with misses populating both.
    /// Byte-identical to the uncached engine — the result cache stores the
    /// finished output verbatim, and the candidate memo holds only the
    /// context-independent `(word, distance)` retrieval pairs with scoring
    /// run fresh per context. As with Look Up, the returned result is the
    /// tier-1 entry itself, shared by reference count.
    pub fn normalize_shared(
        &self,
        text: &str,
        params: NormalizeParams,
    ) -> Result<(Arc<NormalizationResult>, Served)> {
        let result_key = self.normalize_result_key(text, params);
        if let Some(result) = self.norm_result_cache.get(&result_key) {
            return Ok((result, Served::Tier1Hit));
        }
        let cache = ServiceCandidateCache::new(self);
        let result = NORMALIZE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.attach_stages(Some(Arc::clone(&self.stages)));
            let res = Normalizer::new(self.system.language_model()).normalize_cached(
                self.system.database(),
                text,
                params,
                scratch,
                &cache,
            );
            scratch.attach_stages(None);
            res
        })?;
        let result = Arc::new(result);
        self.norm_result_cache
            .insert(result_key, Arc::clone(&result));
        Ok((result, Served::Cold))
    }

    /// [`Self::normalize_shared`] with the result copied out of the shared
    /// allocation.
    pub fn normalize_prechecked_traced(
        &self,
        text: &str,
        params: NormalizeParams,
    ) -> Result<(NormalizationResult, Served)> {
        self.normalize_shared(text, params)
            .map(|(result, served)| (NormalizationResult::clone(&result), served))
    }

    /// Perturbation after external authorization (see
    /// [`Self::look_up_shared`]), and the core every
    /// Perturbation endpoint funnels through. The outcome is byte-identical
    /// to [`crate::Perturber::perturb`]'s: the same draws over the same
    /// choice lists, each list read from the tier-1 choice-list cache or,
    /// on a miss, built from borrowed Look Up records and inserted. A miss
    /// walks with the Look Up stage instruments detached, as
    /// Normalization's nested retrieval does, and records one
    /// `cryptext_perturb_collect_us` sample for the whole build.
    pub fn perturb_prechecked(
        &self,
        text: &str,
        params: PerturbParams,
    ) -> Result<PerturbationOutcome> {
        let generation = self.generation();
        perturb_with(text, params, |token| {
            let key = self.perturb_choices_key(generation, token, params);
            if let Some(list) = self.perturb_cache.get(&key) {
                return Ok(list);
            }
            // The Look Up endpoints detach their stages before returning,
            // so this scratch walks on the no-op branch.
            let list = LOOKUP_SCRATCH.with(|scratch| {
                let _t = self.stages.perturb_collect_us.start_timer();
                collect_choices(
                    self.system.database(),
                    token,
                    params,
                    &mut scratch.borrow_mut(),
                )
            })?;
            self.perturb_cache.insert(key, list.clone());
            Ok(list)
        })
    }

    /// Bulk Look Up: one authorization for the whole batch, fanned out
    /// across cores ([`cryptext_common::par`]) with results in input
    /// order — identical to what the sequential per-token endpoint would
    /// return, cache included.
    ///
    /// Duplicate tokens in one batch are coalesced before the fan-out, so
    /// a hot token repeated across the batch is computed once rather than
    /// racing several workers into the same cache miss.
    pub fn look_up_bulk(
        &self,
        auth: &ApiToken,
        tokens: &[&str],
        params: LookupParams,
    ) -> Result<Vec<Vec<LookupHit>>> {
        self.authorize(auth)?;
        let mut index_of: FxHashMap<&str, usize> = FxHashMap::default();
        let mut unique: Vec<&str> = Vec::with_capacity(tokens.len());
        for &t in tokens {
            index_of.entry(t).or_insert_with(|| {
                unique.push(t);
                unique.len() - 1
            });
        }
        let computed = try_par_map(&unique, |t| {
            self.look_up_shared(t, params, &mut || None)
                .map(|(entry, _)| entry)
        })?;
        // Scatter back to input order, one projection per input position.
        Ok(tokens
            .iter()
            .map(|t| self.hits(&computed[index_of[t]]))
            .collect())
    }

    /// Normalization endpoint (cached: cross-text candidate memo with
    /// negative caching of out-of-dictionary misses).
    pub fn normalize(
        &self,
        auth: &ApiToken,
        text: &str,
        params: NormalizeParams,
    ) -> Result<NormalizationResult> {
        self.authorize(auth)?;
        self.normalize_shared(text, params)
            .map(|(r, _)| NormalizationResult::clone(&r))
    }

    /// Bulk Normalization, fanned out across cores with results in input
    /// order; every worker shares the service's candidate cache.
    pub fn normalize_bulk(
        &self,
        auth: &ApiToken,
        texts: &[&str],
        params: NormalizeParams,
    ) -> Result<Vec<NormalizationResult>> {
        self.authorize(auth)?;
        try_par_map(texts, |t| {
            self.normalize_shared(t, params)
                .map(|(r, _)| NormalizationResult::clone(&r))
        })
    }

    /// Perturbation endpoint (per-token choice lists cached; see
    /// [`Self::perturb_prechecked`]).
    pub fn perturb(
        &self,
        auth: &ApiToken,
        text: &str,
        params: PerturbParams,
    ) -> Result<PerturbationOutcome> {
        self.authorize(auth)?;
        self.perturb_prechecked(text, params)
    }

    /// Look Up cache statistics (the Fig. 5 architecture experiment
    /// reports the hit rate). Tier-1 Look Up only: every tier's counters
    /// are in [`Self::metrics`] as `cryptext_cache_*{tier=…}`.
    pub fn cache_stats(&self) -> CacheStats {
        self.lookup_cache.stats()
    }

    /// The instance metrics registry: cache tiers, the store, engine
    /// stages, and service counters all share it. Front-ends (the
    /// gateway, the HTTP wire layer) register their own instruments here
    /// so one snapshot covers the whole request path.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Eagerly reap expired entries from every cache tier; returns how
    /// many were dropped. The gateway runs this during drain so a drained
    /// service leaves no expired entries behind.
    pub fn sweep_caches(&self) -> usize {
        let mut reaped = self.lookup_cache.sweep_expired()
            + self.norm_cache.sweep_expired()
            + self.norm_result_cache.sweep_expired()
            + self.perturb_cache.sweep_expired();
        if let Some(t2) = &self.tier2 {
            reaped += t2.store.sweep_expired();
        }
        reaped
    }

    /// The wrapped system (read access).
    pub fn system(&self) -> &CrypText<S> {
        &self.system
    }

    /// The active configuration (the HTTP layer derives `Cache-Control`
    /// max-age from the cache TTL).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }
}

/// The service's [`CandidateCache`] adapter: tier-1 typed memo in front,
/// tier-2 byte store behind (read-through on miss, write-behind on fill,
/// errors absorbed — an injected tier-2 fault costs a future miss, never
/// the request). One adapter serves one Normalization call.
struct ServiceCandidateCache<'a, S: TokenStore> {
    svc: &'a CryptextService<S>,
    /// The last `get` that missed both tiers: the `put` that fills it
    /// reuses its key instead of hashing the token again.
    last_miss: RefCell<MissedKey>,
}

/// A memo key with the `(token, k, d)` it was hashed from.
#[derive(Default)]
struct MissedKey {
    token: String,
    k: usize,
    d: usize,
    key: Option<CacheKey>,
}

impl MissedKey {
    fn record(&mut self, token: &str, k: usize, d: usize, key: CacheKey) {
        self.token.clear();
        self.token.push_str(token);
        self.k = k;
        self.d = d;
        self.key = Some(key);
    }

    /// The recorded key, if it was hashed from exactly `(token, k, d)`.
    fn key_for(&self, token: &str, k: usize, d: usize) -> Option<CacheKey> {
        self.key
            .filter(|_| self.k == k && self.d == d && self.token == token)
    }
}

impl<'a, S: TokenStore> ServiceCandidateCache<'a, S> {
    fn new(svc: &'a CryptextService<S>) -> Self {
        ServiceCandidateCache {
            svc,
            last_miss: RefCell::default(),
        }
    }

    /// Tier-2 read-through: decode the entry under `key` and promote it
    /// into tier-1 so the next request never leaves process.
    fn read_through(&self, key: CacheKey) -> Option<CandidatePairs> {
        let t2 = self.svc.tier2.as_ref()?;
        let ns = t2.namespace(self.svc.generation());
        let bytes = t2.store.get(ns, key.as_u128())?;
        let pairs: CandidatePairs = Arc::new(decode_pairs(&bytes)?);
        self.svc.norm_cache.insert(key, Arc::clone(&pairs));
        Some(pairs)
    }
}

impl<S: TokenStore> CandidateCache for ServiceCandidateCache<'_, S> {
    fn get(&self, token: &str, k: usize, d: usize) -> Option<CandidatePairs> {
        let key = self.svc.normalize_cache_key(token, k, d);
        let Some(pairs) = self
            .svc
            .norm_cache
            .get(&key)
            .or_else(|| self.read_through(key))
        else {
            self.last_miss.borrow_mut().record(token, k, d, key);
            return None;
        };
        if pairs.is_empty() {
            self.svc.negative_hits.inc();
        }
        Some(pairs)
    }

    fn put(&self, token: &str, k: usize, d: usize, pairs: CandidatePairs) {
        let key = self
            .last_miss
            .borrow()
            .key_for(token, k, d)
            .unwrap_or_else(|| self.svc.normalize_cache_key(token, k, d));
        self.svc.norm_cache.insert(key, Arc::clone(&pairs));
        if let Some(t2) = &self.svc.tier2 {
            let ns = t2.namespace(self.svc.generation());
            // Write-behind: the result is already served from tier-1; a
            // tier-2 failure (failpoint sweeps arm `cache.shared.put`)
            // only means the fleet misses until the next fill.
            let _ = t2.store.put(
                ns,
                key.as_u128(),
                encode_pairs(&pairs),
                Some(self.svc.config.cache_ttl_ms),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TokenDatabase;
    use cryptext_common::SimClock;

    fn service(limit: u32) -> (CryptextService, SimClock) {
        let mut db = TokenDatabase::in_memory();
        for s in [
            "the demokRATs and democrats argue",
            "repubLIEcans and republicans fight",
            "the vaccine and the vacc1ne",
        ] {
            db.ingest_text(s);
        }
        let clock = SimClock::new(0);
        let svc = CryptextService::new(
            CrypText::new(db),
            ServiceConfig {
                rate_limit_per_minute: limit,
                ..ServiceConfig::default()
            },
            Arc::new(clock.clone()),
        );
        (svc, clock)
    }

    /// One cache counter of `svc`'s registry:
    /// `cryptext_cache_<event>_total{tier="<tier>"}`.
    fn tier_count(svc: &CryptextService, event: &str, tier: &str) -> u64 {
        svc.metrics().snapshot().counter_labeled(
            &format!("cryptext_cache_{event}_total"),
            "tier",
            tier,
        )
    }

    /// One unlabelled `cryptext_cache_<what>_total` counter of `svc`.
    fn cache_count(svc: &CryptextService, what: &str) -> u64 {
        svc.metrics()
            .snapshot()
            .counter_total(&format!("cryptext_cache_{what}_total"))
    }

    #[test]
    fn lookup_keys_do_not_collide_on_fx_structure() {
        // FxHash differences confined to a word's top byte survive any
        // salt, so two fx digests keyed these two queries identically and
        // the second lookup was served the first one's hits.
        let mut db = TokenDatabase::in_memory();
        db.ingest_text("diagnosig diagnosis");
        let svc = CryptextService::new(
            CrypText::new(db),
            ServiceConfig::default(),
            Arc::new(SimClock::new(0)),
        );
        let tok = svc.issue_token("collide");
        let params = LookupParams::paper_default();
        for query in ["diagNOSig", "diagNOSIs"] {
            let want =
                crate::lookup::look_up_naive(svc.system().database(), query, params).unwrap();
            assert_eq!(svc.look_up(&tok, query, params).unwrap(), want, "{query}");
        }
        assert_eq!(svc.cache_stats().hits, 0, "distinct queries, distinct keys");
    }

    #[test]
    fn requires_valid_token() {
        let (svc, _) = service(10);
        let bogus = ApiToken("cx_fake_0000".into());
        let err = svc
            .look_up(&bogus, "democrats", LookupParams::paper_default())
            .unwrap_err();
        assert!(matches!(err, Error::Unauthorized(_)));
    }

    #[test]
    fn issued_token_works_and_revocation_stops_it() {
        let (svc, _) = service(10);
        let tok = svc.issue_token("alice");
        assert!(tok.as_str().starts_with("cx_alice_"));
        let hits = svc
            .look_up(&tok, "democrats", LookupParams::paper_default())
            .unwrap();
        assert!(hits.iter().any(|h| h.token == "demokRATs"));
        svc.revoke_token(&tok);
        assert!(matches!(
            svc.look_up(&tok, "democrats", LookupParams::paper_default()),
            Err(Error::Unauthorized(_))
        ));
    }

    #[test]
    fn distinct_tokens_for_distinct_owners_and_calls() {
        let (svc, _) = service(10);
        let a = svc.issue_token("alice");
        let b = svc.issue_token("alice");
        let c = svc.issue_token("bob");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rate_limit_enforced_and_window_resets() {
        let (svc, clock) = service(3);
        let tok = svc.issue_token("bob");
        for _ in 0..3 {
            svc.look_up(&tok, "vaccine", LookupParams::paper_default())
                .unwrap();
        }
        let err = svc
            .look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap_err();
        // The clock sits at 0, so the full window remains.
        assert!(matches!(
            err,
            Error::RateLimited {
                retry_after_ms: 60_000
            }
        ));
        assert!(err.is_retryable());
        // A minute later the window resets.
        clock.advance(60_000);
        svc.look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap();
    }

    #[test]
    fn rate_limits_are_per_token() {
        let (svc, _) = service(1);
        let a = svc.issue_token("a");
        let b = svc.issue_token("b");
        svc.look_up(&a, "vaccine", LookupParams::paper_default())
            .unwrap();
        assert!(svc
            .look_up(&a, "vaccine", LookupParams::paper_default())
            .is_err());
        svc.look_up(&b, "vaccine", LookupParams::paper_default())
            .unwrap();
    }

    #[test]
    fn rate_limited_retry_after_tracks_window_position() {
        let (svc, clock) = service(1);
        let tok = svc.issue_token("mid");
        clock.advance(45_000); // 15s left in the current window
        svc.look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap();
        let err = svc
            .look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap_err();
        assert_eq!(err.retry_after_ms(), Some(15_000));
        // And the hint is honest: advancing exactly that far refills.
        clock.advance(15_000);
        svc.look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap();
    }

    #[test]
    fn authorize_request_charges_the_window_like_an_endpoint() {
        let (svc, _) = service(2);
        let tok = svc.issue_token("gate");
        svc.authorize_request(&tok).unwrap();
        svc.authorize_request(&tok).unwrap();
        assert!(matches!(
            svc.authorize_request(&tok),
            Err(Error::RateLimited { .. })
        ));
        let bogus = ApiToken("cx_fake_0000".into());
        assert!(matches!(
            svc.authorize_request(&bogus),
            Err(Error::Unauthorized(_))
        ));
    }

    #[test]
    fn prechecked_lookup_matches_the_authorized_endpoint() {
        let (svc, _) = service(100);
        let tok = svc.issue_token("pre");
        let direct = svc
            .look_up(&tok, "democrats", LookupParams::paper_default())
            .unwrap();
        let (pre, served) = svc
            .look_up_prechecked_traced("democrats", LookupParams::paper_default(), &mut || None)
            .unwrap();
        assert_eq!(direct, pre, "same bytes, cache included");
        // Prechecked execution shares the endpoint's cache.
        assert_eq!(served, Served::Tier1Hit);
        assert!(svc.cache_stats().hits >= 1);
        // A firing cancel probe aborts an uncached walk with its error.
        let err = svc
            .look_up_prechecked_traced("republicans", LookupParams::new(1, 2), &mut || {
                Some(Error::DeadlineExceeded { budget_ms: 3 })
            })
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { budget_ms: 3 }));
    }

    #[test]
    fn in_process_lookups_record_the_stage_instruments() {
        // The authorized endpoints run the same instrumented core as the
        // gateway path: every computed hit moves the hits counter, and
        // every cold walk (not the tier-1 hit) records encode and walk.
        let (svc, _) = service(100);
        let tok = svc.issue_token("stages");
        let params = LookupParams::paper_default();
        let single = svc.look_up(&tok, "democrats", params).unwrap();
        let bulk = svc
            .look_up_bulk(&tok, &["republicans", "vaccine", "democrats"], params)
            .unwrap();
        let computed = single.len() + bulk[0].len() + bulk[1].len();
        assert!(computed > 0);
        let snap = svc.metrics().snapshot();
        assert_eq!(
            snap.counter_total("cryptext_lookup_hits_total"),
            computed as u64
        );
        assert_eq!(snap.histogram_count("cryptext_lookup_encode_us"), 3);
        assert_eq!(snap.histogram_count("cryptext_lookup_walk_us"), 3);
    }

    #[test]
    fn lookup_results_are_cached() {
        let (svc, _) = service(100);
        let tok = svc.issue_token("carol");
        let a = svc
            .look_up(&tok, "republicans", LookupParams::paper_default())
            .unwrap();
        let b = svc
            .look_up(&tok, "republicans", LookupParams::paper_default())
            .unwrap();
        assert_eq!(a, b);
        let stats = svc.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // Different params → different cache entry.
        svc.look_up(&tok, "republicans", LookupParams::new(1, 1))
            .unwrap();
        assert_eq!(svc.cache_stats().misses, 2);
    }

    #[test]
    fn tier1_hits_share_the_cached_allocation() {
        let (svc, _) = service(100);
        let params = LookupParams::paper_default();
        let (cold, served) = svc
            .look_up_shared("democrats", params, &mut || None)
            .unwrap();
        assert_eq!(served, Served::Cold);
        assert!(!cold.hits().is_empty());
        assert_eq!(Arc::strong_count(&cold), 2, "the cache's and the caller's");
        let (hit, served) = svc
            .look_up_shared("democrats", params, &mut || None)
            .unwrap();
        assert_eq!(served, Served::Tier1Hit);
        assert!(Arc::ptr_eq(&cold, &hit), "a hit hands out the same hits");

        let (text, params) = ("the demokRATs won", NormalizeParams::default());
        let (cold, served) = svc.normalize_shared(text, params).unwrap();
        assert_eq!(served, Served::Cold);
        assert_eq!(cold.text, "the democrats won");
        assert_eq!(Arc::strong_count(&cold), 2, "the cache's and the caller's");
        let (hit, served) = svc.normalize_shared(text, params).unwrap();
        assert_eq!(served, Served::Tier1Hit);
        assert!(Arc::ptr_eq(&cold, &hit), "a hit hands out the same result");
    }

    #[test]
    fn cache_entries_expire_by_ttl() {
        let (svc, clock) = service(100);
        let tok = svc.issue_token("dave");
        svc.look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap();
        clock.advance(ServiceConfig::default().cache_ttl_ms + 1);
        svc.look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap();
        assert_eq!(svc.cache_stats().expirations, 1);
    }

    #[test]
    fn bulk_endpoints_one_authorization() {
        let (svc, _) = service(1);
        let tok = svc.issue_token("erin");
        let out = svc
            .look_up_bulk(
                &tok,
                &["democrats", "republicans", "vaccine"],
                LookupParams::paper_default(),
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        // Budget of 1 is now spent; the next call rate-limits.
        assert!(svc
            .look_up(&tok, "vaccine", LookupParams::paper_default())
            .is_err());
    }

    #[test]
    fn parallel_bulk_lookup_equals_sequential() {
        // Many distinct tokens, so the bulk call maps its unique queries
        // on the persistent worker pool wherever the pool has more than
        // one thread: on a multi-core host, and in CI's second pass, which
        // pins `CRYPTEXT_THREADS=4` for the whole suite. On one thread the
        // map is sequential; the results must agree either way. The test
        // leaves the variable alone: other tests run concurrently in this
        // process, and `par::max_threads` reads it on every call.
        let (svc, _) = service(u32::MAX);
        let tok = svc.issue_token("pat");
        let distinct: Vec<String> = (0..24).map(|i| format!("token{i}word")).collect();
        let mut queries: Vec<&str> = vec![
            "democrats",
            "republicans",
            "vaccine",
            "vacc1ne",
            "demokRATs",
            "unknownzz",
        ];
        queries.extend(distinct.iter().map(|s| s.as_str()));

        let sequential: Vec<Vec<LookupHit>> = queries
            .iter()
            .map(|q| svc.look_up(&tok, q, LookupParams::paper_default()).unwrap())
            .collect();
        let bulk = svc
            .look_up_bulk(&tok, &queries, LookupParams::paper_default())
            .unwrap();
        assert_eq!(
            bulk, sequential,
            "bulk results identical and in input order"
        );
    }

    #[test]
    fn bulk_lookup_coalesces_duplicate_tokens() {
        let (svc, _) = service(u32::MAX);
        let tok = svc.issue_token("dup");
        let queries: Vec<&str> = ["vaccine", "democrats", "republicans"]
            .into_iter()
            .cycle()
            .take(60)
            .collect();
        let out = svc
            .look_up_bulk(&tok, &queries, LookupParams::paper_default())
            .unwrap();
        assert_eq!(out.len(), 60);
        // Each distinct token probes (and misses) the cache exactly once;
        // duplicates are served from the coalesced computation.
        let stats = svc.cache_stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.inserts, 3);
        // Results still line up with the input positions.
        assert_eq!(out[0], out[3]);
        assert_eq!(out[1], out[4]);
    }

    #[test]
    fn parallel_bulk_normalize_equals_sequential() {
        let (svc, _) = service(u32::MAX);
        let tok = svc.issue_token("norm");
        let texts: Vec<&str> = vec![
            "the demokRATs won",
            "ok clean text",
            "the vacc1ne mandate",
            "nothing to fix here",
        ]
        .into_iter()
        .cycle()
        .take(32)
        .collect();
        let sequential: Vec<NormalizationResult> = texts
            .iter()
            .map(|t| svc.normalize(&tok, t, NormalizeParams::default()).unwrap())
            .collect();
        let bulk = svc
            .normalize_bulk(&tok, &texts, NormalizeParams::default())
            .unwrap();
        assert_eq!(bulk, sequential);
    }

    #[test]
    fn bulk_lookup_invalid_level_errors_like_sequential() {
        let (svc, _) = service(u32::MAX);
        let tok = svc.issue_token("err");
        let err = svc
            .look_up_bulk(&tok, &["a", "b"], LookupParams::new(9, 1))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)));
    }

    #[test]
    fn packed_counter_saturates_at_the_u32_boundary() {
        // Regression: with rate_limit_per_minute == u32::MAX, the packed
        // word's used half can legitimately reach u32::MAX - 1; admitting
        // the next request must not carry into the window field (which
        // would advance the window and silently refill the budget).
        let win = 7u64;
        let limit = u32::MAX;

        // One slot left: admission fills the counter exactly.
        let cur = (win << 32) | (u32::MAX as u64 - 1);
        let next = advance_packed(cur, win, limit).expect("one slot left");
        assert_eq!(next >> 32, win, "window half untouched");
        assert_eq!(next & 0xFFFF_FFFF, u32::MAX as u64, "counter full");

        // Full counter: exhausted, not carried.
        assert_eq!(advance_packed(next, win, limit), None);

        // Even a (theoretically unreachable) full counter passed with a
        // smaller limit saturates rather than overflowing the field.
        let full = (win << 32) | 0xFFFF_FFFF;
        assert_eq!(advance_packed(full, win, limit), None);

        // A corrupted word whose used half exceeds the limit in u64 space
        // rate-limits instead of truncating back into admissibility.
        assert_eq!(advance_packed(full, win, 100), None);

        // A new window resets regardless of the stale counter.
        let fresh = advance_packed(full, win + 1, limit).expect("fresh window");
        assert_eq!(fresh >> 32, win + 1);
        assert_eq!(fresh & 0xFFFF_FFFF, 1);
    }

    #[test]
    fn rate_limit_u32_max_never_corrupts_the_window() {
        // End-to-end at the boundary: preload the packed counter to one
        // below the cap, then drive real requests through authorize.
        let (svc, _) = service(u32::MAX);
        let tok = svc.issue_token("boundary");
        {
            let tokens = svc.tokens.read();
            let state = tokens.get(tok.as_str()).unwrap();
            let cur = state.window.load(Ordering::Acquire);
            let win = cur >> 32;
            state
                .window
                .store((win << 32) | (u32::MAX as u64 - 1), Ordering::Release);
        }
        // The last slot admits...
        svc.look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap();
        // ...and the very next request rate-limits without the window half
        // having been disturbed by a carry.
        let err = svc
            .look_up(&tok, "vaccine", LookupParams::paper_default())
            .unwrap_err();
        assert!(matches!(err, Error::RateLimited { .. }));
        let tokens = svc.tokens.read();
        let cur = tokens
            .get(tok.as_str())
            .unwrap()
            .window
            .load(Ordering::Acquire);
        assert_eq!(cur & 0xFFFF_FFFF, u32::MAX as u64, "saturated, not wrapped");
    }

    #[test]
    fn concurrent_authorization_admits_exactly_the_budget() {
        // The read-locked atomic authorize path must admit exactly
        // `rate_limit_per_minute` requests per window no matter how many
        // threads race — every fetch_add claims a distinct slot.
        let limit = 64u32;
        let (svc, _) = service(limit);
        let tok = svc.issue_token("racer");
        let admitted = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..32 {
                        if svc
                            .look_up(&tok, "vaccine", LookupParams::paper_default())
                            .is_ok()
                        {
                            admitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(admitted.load(std::sync::atomic::Ordering::Relaxed), limit);
    }

    #[test]
    fn normalize_candidates_are_cached_cross_text() {
        let (svc, _) = service(100);
        let tok = svc.issue_token("memo");
        let a = svc
            .normalize(&tok, "the demokRATs argue", NormalizeParams::default())
            .unwrap();
        assert!(tier_count(&svc, "misses", "normalize") > 0);
        assert_eq!(tier_count(&svc, "hits", "normalize"), 0);
        // A *different* text repeating the same perturbed token hits the
        // cross-text memo; the result stays byte-identical to uncached.
        let b = svc
            .normalize(
                &tok,
                "so the demokRATs fight on",
                NormalizeParams::default(),
            )
            .unwrap();
        let hits_before = tier_count(&svc, "hits", "normalize");
        assert!(hits_before > 0, "cross-text repeat is a hit");
        assert_eq!(a.corrections[0].replacement, "democrats");
        assert_eq!(b.corrections[0].replacement, "democrats");
        // Case-fold keying: a case variant of the token also hits.
        svc.normalize(&tok, "the DEMOKrats again", NormalizeParams::default())
            .unwrap();
        assert!(tier_count(&svc, "hits", "normalize") > hits_before);
    }

    #[test]
    fn out_of_dictionary_misses_are_negatively_cached() {
        let (svc, _) = service(100);
        let tok = svc.issue_token("neg");
        svc.normalize(&tok, "qzxblorp said something", NormalizeParams::default())
            .unwrap();
        assert_eq!(cache_count(&svc, "negative_hits"), 0);
        svc.normalize(&tok, "then qzxblorp left", NormalizeParams::default())
            .unwrap();
        assert!(
            cache_count(&svc, "negative_hits") >= 1,
            "repeat of a no-candidate token served from the negative entry"
        );
    }

    #[test]
    fn generation_bump_invalidates_every_tier() {
        let (mut svc, _) = service(100);
        let store = Arc::new(SharedCacheStore::new(
            cryptext_cache::CacheConfig::default(),
            svc.clock(),
        ));
        svc.attach_tier2(Arc::clone(&store));
        let tok = svc.issue_token("bump");
        svc.normalize(&tok, "the demokRATs argue", NormalizeParams::default())
            .unwrap();
        svc.look_up(&tok, "democrats", LookupParams::paper_default())
            .unwrap();
        assert!(
            tier_count(&svc, "inserts", "tier2") > 0,
            "write-behind reached tier-2"
        );
        assert_eq!(svc.bump_generation(), 1);
        assert_eq!(svc.generation(), 1);
        assert_eq!(cache_count(&svc, "invalidation_bumps"), 1);
        assert!(
            cache_count(&svc, "invalidated_entries") > 0,
            "stale entries flushed, not leaked"
        );
        assert!(
            tier_count(&svc, "invalidated", "tier2") > 0,
            "old namespace flushed"
        );
        // Post-bump traffic recomputes (same immutable data → same bytes)
        // under the new keys rather than hitting stale entries.
        let miss_base = tier_count(&svc, "misses", "normalize");
        let r = svc
            .normalize(&tok, "the demokRATs argue", NormalizeParams::default())
            .unwrap();
        assert_eq!(r.corrections[0].replacement, "democrats");
        assert!(tier_count(&svc, "misses", "normalize") > miss_base);
    }

    #[test]
    fn a_filled_memo_miss_lands_under_the_key_it_missed() {
        let (mut svc, _) = service(100);
        let store = Arc::new(SharedCacheStore::new(
            cryptext_cache::CacheConfig::default(),
            svc.clock(),
        ));
        svc.attach_tier2(Arc::clone(&store));
        let t2 = svc.tier2.as_ref().expect("attached");
        let ns = t2.namespace(svc.generation());
        let pairs: CandidatePairs = Arc::new(vec![("democrats".to_string(), 2)]);

        // Miss, then fill: the put reuses the miss's key. The memo key
        // folds ASCII case, so the entry serves the lowercase spelling.
        let cache = ServiceCandidateCache::new(&svc);
        assert!(cache.get("demokRATs", 1, 3).is_none());
        cache.put("demokRATs", 1, 3, Arc::clone(&pairs));
        let key = svc.normalize_cache_key("demokrats", 1, 3);
        assert_eq!(svc.norm_cache.get(&key), Some(Arc::clone(&pairs)));
        let written = store.get(ns, key.as_u128()).expect("written behind");
        assert_eq!(decode_pairs(&written).as_ref(), Some(&*pairs));
        let hits = tier_count(&svc, "hits", "normalize");
        assert_eq!(cache.get("demokrats", 1, 3), Some(Arc::clone(&pairs)));
        assert_eq!(
            tier_count(&svc, "hits", "normalize"),
            hits + 1,
            "tier-1 hit"
        );

        // A put for other `(token, k, d)` than the last miss hashes its
        // own key: nothing lands under the missed one.
        let cache = ServiceCandidateCache::new(&svc);
        assert!(cache.get("vacc1ne", 1, 3).is_none());
        for (token, k, d) in [("vaccine", 1, 3), ("vacc1ne", 0, 3), ("vacc1ne", 1, 2)] {
            cache.put(token, k, d, Arc::clone(&pairs));
            let own = svc.normalize_cache_key(token, k, d);
            assert_eq!(svc.norm_cache.get(&own), Some(Arc::clone(&pairs)));
            assert!(store.get(ns, own.as_u128()).is_some());
        }
        let missed = svc.normalize_cache_key("vacc1ne", 1, 3);
        assert_eq!(svc.norm_cache.get(&missed), None);
        assert_eq!(store.get(ns, missed.as_u128()), None);
    }

    #[test]
    fn shared_tier2_serves_a_replica_fleet() {
        // Two identically-built replicas pointing at one shared store:
        // a fill through one is a tier-2 hit through the other.
        let (mut svc_a, _) = service(100);
        let (mut svc_b, _) = service(100);
        let shared = Arc::new(SharedCacheStore::new(
            cryptext_cache::CacheConfig::default(),
            svc_a.clock(),
        ));
        svc_a.attach_tier2(Arc::clone(&shared));
        svc_b.attach_tier2(Arc::clone(&shared));
        let ta = svc_a.issue_token("a");
        let tb = svc_b.issue_token("b");
        let a = svc_a
            .normalize(&ta, "the demokRATs argue", NormalizeParams::default())
            .unwrap();
        let t2_hits_before = tier_count(&svc_b, "hits", "tier2");
        let b = svc_b
            .normalize(&tb, "the demokRATs argue", NormalizeParams::default())
            .unwrap();
        assert_eq!(a, b, "replicas byte-identical through the shared tier");
        assert!(
            tier_count(&svc_b, "hits", "tier2") > t2_hits_before,
            "replica B read through to the shared store"
        );
        // The promotion landed in B's tier-1: the next request stays local.
        let local_hits = tier_count(&svc_b, "hits", "normalize");
        svc_b
            .normalize(&tb, "more demokRATs here", NormalizeParams::default())
            .unwrap();
        assert!(tier_count(&svc_b, "hits", "normalize") > local_hits);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn a_second_tier2_store_is_refused() {
        let (mut svc, _) = service(100);
        let store = || {
            Arc::new(SharedCacheStore::new(
                cryptext_cache::CacheConfig::default(),
                svc.clock(),
            ))
        };
        let (first, second) = (store(), store());
        svc.attach_tier2(first);
        svc.attach_tier2(second);
    }

    #[test]
    fn tier2_put_failures_degrade_to_misses() {
        use cryptext_cache::SHARED_PUT_FAILPOINT;
        use cryptext_common::failpoint;
        let (mut svc, _) = service(100);
        let shared = Arc::new(SharedCacheStore::new(
            cryptext_cache::CacheConfig::default(),
            svc.clock(),
        ));
        svc.attach_tier2(Arc::clone(&shared));
        let tok = svc.issue_token("fp");
        let _fp = failpoint::arm(SHARED_PUT_FAILPOINT, "kill@1");
        let r = svc
            .normalize(&tok, "the demokRATs argue", NormalizeParams::default())
            .unwrap();
        assert_eq!(
            r.corrections[0].replacement, "democrats",
            "request unaffected by the dead write path"
        );
        assert!(
            tier_count(&svc, "put_errors", "tier2") > 0,
            "failure counted"
        );
        assert_eq!(
            tier_count(&svc, "inserts", "tier2"),
            0,
            "nothing stored past the failpoint"
        );
        // Tier-1 still took the fill: repeats are local hits.
        svc.normalize(&tok, "the demokRATs again", NormalizeParams::default())
            .unwrap();
        assert!(tier_count(&svc, "hits", "normalize") > 0);
    }

    #[test]
    fn pair_codec_round_trips_and_rejects_malformed_bytes() {
        let pairs = vec![
            ("democrats".to_string(), 1usize),
            ("demonrats".to_string(), 2usize),
            (String::new(), 0usize),
        ];
        let bytes = encode_pairs(&pairs);
        assert_eq!(decode_pairs(&bytes), Some(pairs.clone()));
        assert_eq!(decode_pairs(&encode_pairs(&[])), Some(Vec::new()));
        // Truncations at every prefix degrade to a miss, never a panic.
        for cut in 0..bytes.len() {
            assert_eq!(decode_pairs(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage and absurd counts are rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_pairs(&padded), None);
        assert_eq!(decode_pairs(&u64::MAX.to_le_bytes()), None);
        // Non-UTF-8 word bytes are rejected.
        let mut bad = encode_pairs(&[("ab".to_string(), 1)]);
        bad[12] = 0xFF;
        assert_eq!(decode_pairs(&bad), None);
    }

    #[test]
    fn normalize_and_perturb_endpoints() {
        let (svc, _) = service(100);
        let tok = svc.issue_token("frank");
        let norm = svc
            .normalize(&tok, "the demokRATs won", NormalizeParams::default())
            .unwrap();
        assert_eq!(norm.text, "the democrats won");
        let out = svc
            .perturb(&tok, "the democrats won", PerturbParams::with_ratio(1.0))
            .unwrap();
        assert!(out.replacements.len() + out.misses > 0);

        let bulk = svc
            .normalize_bulk(
                &tok,
                &["the demokRATs", "ok text"],
                NormalizeParams::default(),
            )
            .unwrap();
        assert_eq!(bulk.len(), 2);
    }

    /// The series perfbench's hot guard and layer trace read: every
    /// `cryptext_lookup_*` instrument and every counter of the `lookup`,
    /// `normalize` and `normalize_results` tiers, rendered for comparison.
    fn guarded_series(svc: &CryptextService) -> Vec<String> {
        let guarded_tier = |labels: &[(&str, &str)]| {
            labels.iter().any(|&(k, v)| {
                k == "tier" && matches!(v, "lookup" | "normalize" | "normalize_results")
            })
        };
        let snap = svc.metrics().snapshot();
        snap.samples
            .iter()
            .filter(|s| {
                s.name.starts_with("cryptext_lookup_")
                    || (s.name.starts_with("cryptext_cache_") && guarded_tier(&s.labels))
            })
            .map(|s| format!("{s:?}"))
            .collect()
    }

    #[test]
    fn perturb_traffic_moves_only_its_own_tier() {
        let (svc, _) = service(100);
        let tok = svc.issue_token("tier");
        svc.look_up(&tok, "democrats", LookupParams::paper_default())
            .unwrap();
        svc.normalize(&tok, "the demokRATs won", NormalizeParams::default())
            .unwrap();
        let before = guarded_series(&svc);
        assert_eq!(before.len(), 4 + 3 * 5, "four instruments, three tiers");

        // Three eligible tokens, all cold.
        let params = PerturbParams::with_ratio(1.0);
        svc.perturb(&tok, "the democrats won", params).unwrap();
        assert_eq!(tier_count(&svc, "misses", "perturb"), 3);
        assert_eq!(tier_count(&svc, "inserts", "perturb"), 3);
        assert_eq!(tier_count(&svc, "hits", "perturb"), 0);
        // A new text and seed: the repeated tokens hit, the new ones fill.
        let text = "democrats and the vaccine";
        let out = svc.perturb(&tok, text, params.seeded(7)).unwrap();
        let reference = crate::Perturber::new(svc.system().database())
            .perturb(text, params.seeded(7))
            .unwrap();
        assert_eq!(out, reference);
        assert_eq!(tier_count(&svc, "hits", "perturb"), 2);
        assert_eq!(tier_count(&svc, "misses", "perturb"), 5);
        assert_eq!(tier_count(&svc, "inserts", "perturb"), 5);

        assert_eq!(
            guarded_series(&svc),
            before,
            "no other tier or lookup instrument moved"
        );
    }

    #[test]
    fn each_choice_rule_param_keys_its_own_list() {
        // One service, params changed one at a time. Each change changes
        // the miss count, so a key that dropped the changed param would
        // serve the previous set's lists and the outcome would differ.
        let mut db = TokenDatabase::in_memory();
        db.ingest_text("the demokRATs and democrats argue about lesbian losbian");
        db.upsert_token("dem0crats", 0);
        db.upsert_token("arguee", 0);
        let svc = CryptextService::new(
            CrypText::new(db),
            ServiceConfig::default(),
            Arc::new(SimClock::new(0)),
        );
        let reference = crate::Perturber::new(svc.system().database());
        let text = "democrats lesbian argue";
        let base = PerturbParams::with_ratio(1.0).seeded(1);
        let variants = [
            (base, 2),
            (PerturbParams { k: 0, ..base }, 1),
            (PerturbParams { k: 0, d: 0, ..base }, 3),
            (
                PerturbParams {
                    observed_only: false,
                    ..base
                },
                1,
            ),
        ];
        for (params, misses) in variants {
            let want = reference.perturb(text, params).unwrap();
            assert_eq!(want.misses, misses, "{params:?}");
            assert_eq!(svc.perturb_prechecked(text, params).unwrap(), want);
        }
    }

    #[test]
    fn the_collect_timer_samples_each_built_list_once() {
        let (svc, _) = service(100);
        let samples = || {
            svc.metrics()
                .snapshot()
                .histogram_count("cryptext_perturb_collect_us")
        };
        let params = PerturbParams::with_ratio(1.0);
        svc.perturb_prechecked("the democrats won", params).unwrap();
        assert_eq!(samples(), 3, "one per distinct cold token");
        svc.perturb_prechecked("won the democrats", params.seeded(9))
            .unwrap();
        assert_eq!(samples(), 3, "tier hits record nothing");
        // Within one text too: the second `vaccine` reads the list the
        // first one built.
        svc.perturb_prechecked("vaccine and vaccine", params)
            .unwrap();
        assert_eq!(samples(), 5);
    }

    #[test]
    fn an_invalid_level_errors_like_the_reference() {
        let (svc, _) = service(100);
        let params = PerturbParams {
            k: 9,
            ..PerturbParams::with_ratio(0.5)
        };
        let reference = crate::Perturber::new(svc.system().database());
        for text in ["", "a b", "the democrats won"] {
            assert!(matches!(
                reference.perturb(text, params),
                Err(Error::InvalidArgument(_))
            ));
            assert!(
                matches!(
                    svc.perturb_prechecked(text, params),
                    Err(Error::InvalidArgument(_))
                ),
                "{text:?}"
            );
        }
    }

    #[test]
    fn a_bump_flushes_and_counts_the_perturb_tier_and_a_sweep_reaps_it() {
        let (svc, clock) = service(100);
        let params = PerturbParams::with_ratio(1.0);
        let first = svc.perturb_prechecked("the democrats won", params).unwrap();
        assert_eq!(svc.bump_generation(), 1);
        assert_eq!(cache_count(&svc, "invalidated_entries"), 3, "three lists");
        let again = svc.perturb_prechecked("the democrats won", params).unwrap();
        assert_eq!(first, again);
        assert_eq!(tier_count(&svc, "hits", "perturb"), 0);
        assert_eq!(tier_count(&svc, "misses", "perturb"), 6, "rebuilt");
        clock.advance(ServiceConfig::default().cache_ttl_ms + 1);
        assert_eq!(svc.sweep_caches(), 3, "the perturb tier is swept");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::perturb::Perturber;
    use cryptext_common::SimClock;
    use proptest::prelude::*;

    /// Case variants, leet glyphs and sound-alike dictionary words, so
    /// every branch of the choice rule is reachable; `lesbian`/`losbian`
    /// share a sound at `k = 0` but not at `k = 1`.
    const VOCAB: [&str; 22] = [
        "democrats",
        "DEMOCRATS",
        "DemoCrats",
        "demokRATs",
        "dem0crats",
        "vaccine",
        "VACCINE",
        "vacc1ne",
        "vacc!ne",
        "the",
        "they",
        "thee",
        "Th3",
        "bad",
        "BAD",
        "b@d",
        "bed",
        "bedd",
        "lesbian",
        "losbian",
        "l3sbian",
        "LESBIAN",
    ];

    fn word() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..VOCAB.len()).prop_map(|i| VOCAB[i].to_string()),
            "[a-eA-E1@O]{2,8}",
        ]
    }

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec((word(), "[ ,.!]{1,2}"), 0..10)
            .prop_map(|parts| parts.into_iter().map(|(w, sep)| w + &sep).collect())
    }

    /// Request material a cache key hashes: cased ASCII, so the candidate
    /// key's fold runs, a lone `%`, astral characters, C0 and C1 controls,
    /// combining marks, and any scalar value.
    fn key_text() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            proptest::char::range(' ', '~'),
            Just('%'),
            proptest::char::range('\u{10000}', char::MAX),
            proptest::char::range('\0', '\u{1F}'),
            proptest::char::range('\u{7F}', '\u{9F}'),
            proptest::char::range('\u{300}', '\u{36F}'),
            proptest::char::range('\0', char::MAX),
        ];
        proptest::collection::vec(piece, 0..16).prop_map(|cs| cs.into_iter().collect())
    }

    /// Every cache key of `svc` for `input`, under the given params.
    fn keys(
        svc: &CryptextService,
        input: &str,
        lookup: LookupParams,
        normalize: NormalizeParams,
        perturb: PerturbParams,
    ) -> [CacheKey; 4] {
        [
            svc.lookup_cache_key(input, lookup),
            svc.normalize_cache_key(input, normalize.k, normalize.d),
            svc.normalize_result_key(input, normalize),
            svc.perturb_choices_key(svc.generation(), input, perturb),
        ]
    }

    proptest! {
        /// The four cache keys never panic on arbitrary strings, and equal
        /// inputs give equal keys: from one service twice, from a copy of
        /// the input, and from a second service at the same generation, as
        /// tier-2 replicas must agree.
        #[test]
        fn cache_keys_are_total_and_deterministic(
            input in key_text(),
            k in 0usize..=3,
            d in 0usize..=8,
            flags in (any::<bool>(), any::<bool>()),
            weights in (0.0f64..4.0, 0.0f64..4.0),
            max_candidates in 0usize..=64,
            bumps in 0u64..3,
        ) {
            let lookup = LookupParams {
                k,
                d,
                exclude_identity: flags.0,
                observed_only: flags.1,
            };
            let normalize = NormalizeParams {
                k,
                d,
                edit_penalty: weights.0,
                prior_weight: weights.1,
                max_candidates,
            };
            let perturb = PerturbParams {
                k,
                d,
                case_sensitive: flags.0,
                observed_only: flags.1,
                ..PerturbParams::with_ratio(0.5)
            };
            let service = || {
                let svc = CryptextService::new(
                    CrypText::new(TokenDatabase::in_memory()),
                    ServiceConfig::default(),
                    Arc::new(SimClock::new(0)),
                );
                for _ in 0..bumps {
                    svc.bump_generation();
                }
                svc
            };
            let (svc, replica) = (service(), service());
            let want = keys(&svc, &input, lookup, normalize, perturb);
            prop_assert_eq!(keys(&svc, &input, lookup, normalize, perturb), want);
            prop_assert_eq!(keys(&svc, &input.clone(), lookup, normalize, perturb), want);
            prop_assert_eq!(keys(&replica, &input, lookup, normalize, perturb), want);
        }

        /// The served fast path returns `Perturber::perturb`'s outcome
        /// byte for byte: cold, from the tier (same seeds, then new
        /// seeds), and again after a generation bump, with and without a
        /// tier-2 attached. Several parameter sets
        /// share one service, so a key that dropped one of them would
        /// serve another set's lists.
        #[test]
        fn the_fast_path_equals_the_reference(
            observed in proptest::collection::vec(word(), 1..24),
            unobserved in proptest::collection::vec(0..VOCAB.len(), 0..6),
            texts in proptest::collection::vec(text(), 1..4),
            modes in proptest::collection::vec(
                (0usize..=2, 0usize..=4, any::<bool>(), any::<bool>(), 0u32..=100),
                1..4,
            ),
            seed in any::<u64>(),
            tier2 in any::<bool>(),
        ) {
            let build = || {
                let mut db = TokenDatabase::in_memory();
                for t in &observed {
                    db.ingest_token(t);
                }
                // Lexicon-style entries (count 0), which `observed_only`
                // drops.
                for &i in &unobserved {
                    db.upsert_token(VOCAB[i], 0);
                }
                db
            };
            let db = build();
            let reference = Perturber::new(&db);
            let mut svc = CryptextService::new(
                CrypText::new(build()),
                ServiceConfig::default(),
                Arc::new(SimClock::new(0)),
            );
            if tier2 {
                let store = SharedCacheStore::new(CacheConfig::default(), svc.clock());
                svc.attach_tier2(Arc::new(store));
            }
            let misses = || svc.metrics().snapshot().counter_labeled(
                "cryptext_cache_misses_total", "tier", "perturb");
            // Pass 0 fills the tier; pass 1 repeats its seeds, so every
            // list comes from the tier; pass 2 draws new seeds over cached
            // lists; pass 3 runs after a bump.
            for pass in 0..4u64 {
                if pass == 3 {
                    svc.bump_generation();
                }
                let misses_before = misses();
                for (m, &(k, d, case_sensitive, observed_only, ratio_pct)) in modes.iter().enumerate() {
                    for (i, text) in texts.iter().enumerate() {
                        let salt = if pass == 1 { 0 } else { pass };
                        let params = PerturbParams {
                            ratio: f64::from(ratio_pct) / 100.0,
                            k,
                            d,
                            case_sensitive,
                            observed_only,
                            seed: seed ^ (salt << 32) ^ ((m as u64) << 16) ^ i as u64,
                        };
                        let fast = svc.perturb_prechecked(text, params).unwrap();
                        let want = reference.perturb(text, params).unwrap();
                        prop_assert_eq!(&fast, &want, "pass {} text {:?} {:?}", pass, text, params);
                    }
                }
                if pass == 1 {
                    prop_assert_eq!(misses(), misses_before, "a repeat reads the tier");
                }
            }
        }
    }
}
