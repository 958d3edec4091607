//! # cryptext-cache
//!
//! Sharded in-memory TTL + LRU cache — CrypText's Redis substitute.
//!
//! The paper (§III-F): *"Since some queries might take a longer time to
//! process, a Redis cache is adapted to temporarily store and re-use recent
//! queried results."* This crate provides that role in-process: the service
//! facade memoizes Look Up and Normalization results keyed by
//! `(function, token, k, d)`.
//!
//! Design notes:
//!
//! * **Sharding** — keys hash to one of `N` shards, each behind its own
//!   `parking_lot::Mutex`, so concurrent lookups on different tokens do not
//!   contend.
//! * **LRU** — every shard maintains a recency index (`BTreeMap<tick, key>`),
//!   giving `O(log n)` touch/evict without unsafe linked-list code.
//! * **TTL** — entries may carry a deadline from the injected
//!   [`Clock`]; expired entries are never returned
//!   and are reaped lazily on access, by an insert into a full shard, and
//!   explicitly via [`Cache::sweep_expired`]. Each shard keeps a lower
//!   bound on its entries' deadlines, so a reap only scans a shard once
//!   that bound has passed. A [`SimClock`](cryptext_common::SimClock)
//!   makes expiry fully deterministic in tests.
//! * **Statistics** — hits/misses/evictions/expirations are atomic counters;
//!   the architecture experiment (Fig. 5) reports the hit rate.

#![warn(missing_docs)]

pub mod store;

pub use store::{SharedCacheStore, SHARED_PUT_FAILPOINT};

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cryptext_common::hash::FxHashMap;
use cryptext_common::metrics::{Counter, MetricsRegistry};
use cryptext_common::{Clock, FxHasher, Timestamp};
use parking_lot::Mutex;

/// Configuration for a [`Cache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of live entries across all shards.
    pub capacity: usize,
    /// Default time-to-live applied by [`Cache::insert`]; `None` = no expiry.
    pub default_ttl_ms: Option<u64>,
    /// Number of shards (rounded up to a power of two, at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 10_000,
            default_ttl_ms: None,
            shards: 8,
        }
    }
}

/// Snapshot of cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Successful `get`s.
    pub hits: u64,
    /// Failed `get`s (absent or expired).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because their TTL elapsed.
    pub expirations: u64,
    /// Total inserts (including overwrites).
    pub inserts: u64,
}

impl CacheStats {
    /// Hits / (hits + misses); 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    expires_at: Option<Timestamp>,
    tick: u64,
}

struct Shard<K, V> {
    map: FxHashMap<K, Entry<V>>,
    recency: BTreeMap<u64, K>,
    /// A lower bound on every entry's deadline (`Timestamp::MAX` when no
    /// entry carries one). Inserts lower it, removals leave it alone, and
    /// a reap resets it to the earliest surviving deadline, so while
    /// `now < earliest_expiry` nothing in the shard can have expired —
    /// whatever the clock did in between.
    earliest_expiry: Timestamp,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: FxHashMap::default(),
            recency: BTreeMap::new(),
            earliest_expiry: Timestamp::MAX,
        }
    }

    /// Remove every entry whose deadline is at or before `now`; returns
    /// how many were removed. Skips the scan when `earliest_expiry`
    /// proves nothing has expired.
    fn reap_expired(&mut self, now: Timestamp) -> usize {
        if now < self.earliest_expiry {
            return 0;
        }
        let Shard {
            map,
            recency,
            earliest_expiry,
        } = self;
        let before = map.len();
        let mut earliest = Timestamp::MAX;
        map.retain(|_, e| match e.expires_at {
            Some(t) if t <= now => {
                recency.remove(&e.tick);
                false
            }
            Some(t) => {
                earliest = earliest.min(t);
                true
            }
            None => true,
        });
        *earliest_expiry = earliest;
        before - map.len()
    }
}

/// A thread-safe sharded LRU cache with optional per-entry TTL.
pub struct Cache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_mask: usize,
    per_shard_capacity: usize,
    default_ttl_ms: Option<u64>,
    clock: Arc<dyn Clock>,
    tick: AtomicU64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    expirations: Counter,
    inserts: Counter,
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// Build a cache from `config`, reading time from `clock`.
    pub fn new(config: CacheConfig, clock: Arc<dyn Clock>) -> Self {
        let shard_count = config.shards.max(1).next_power_of_two();
        let per_shard_capacity = config.capacity.div_ceil(shard_count).max(1);
        Cache {
            shards: (0..shard_count).map(|_| Mutex::new(Shard::new())).collect(),
            shard_mask: shard_count - 1,
            per_shard_capacity,
            default_ttl_ms: config.default_ttl_ms,
            clock,
            tick: AtomicU64::new(0),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            expirations: Counter::new(),
            inserts: Counter::new(),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.shard_mask]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Insert with the configured default TTL.
    pub fn insert(&self, key: K, value: V) {
        self.insert_opt_ttl(key, value, self.default_ttl_ms);
    }

    /// Insert with an explicit TTL in milliseconds.
    pub fn insert_with_ttl(&self, key: K, value: V, ttl_ms: u64) {
        self.insert_opt_ttl(key, value, Some(ttl_ms));
    }

    /// Insert with an explicit optional TTL (`None` = immortal, bypassing
    /// the configured default).
    pub fn insert_opt_ttl(&self, key: K, value: V, ttl_ms: Option<u64>) {
        let now = self.clock.now();
        let expires_at = ttl_ms.map(|t| now.saturating_add(t));
        let tick = self.next_tick();
        let mut shard = self.shard_for(&key).lock();
        if let Some(old) = shard.map.remove(&key) {
            shard.recency.remove(&old.tick);
        }
        // At capacity: reap this shard's expired entries first so a dead
        // entry never forces a live one out. Only then fall back to LRU.
        if shard.map.len() >= self.per_shard_capacity {
            let reaped = shard.reap_expired(now);
            self.expirations.add(reaped as u64);
        }
        // Evict least-recently-used while still at capacity.
        while shard.map.len() >= self.per_shard_capacity {
            if let Some((&oldest_tick, _)) = shard.recency.iter().next() {
                if let Some(victim) = shard.recency.remove(&oldest_tick) {
                    shard.map.remove(&victim);
                    self.evictions.inc();
                }
            } else {
                break;
            }
        }
        if let Some(t) = expires_at {
            shard.earliest_expiry = shard.earliest_expiry.min(t);
        }
        shard.recency.insert(tick, key.clone());
        shard.map.insert(
            key,
            Entry {
                value,
                expires_at,
                tick,
            },
        );
        self.inserts.inc();
    }

    /// Fetch a live entry, refreshing its recency. Expired entries are
    /// removed and counted, then reported as misses.
    pub fn get(&self, key: &K) -> Option<V> {
        let now = self.clock.now();
        let new_tick = self.next_tick();
        let mut shard = self.shard_for(key).lock();
        let expired = match shard.map.get(key) {
            None => {
                self.misses.inc();
                return None;
            }
            Some(e) => e.expires_at.is_some_and(|t| t <= now),
        };
        if expired {
            if let Some(old) = shard.map.remove(key) {
                shard.recency.remove(&old.tick);
            }
            self.expirations.inc();
            self.misses.inc();
            return None;
        }
        let entry = shard.map.get_mut(key).expect("checked above");
        let old_tick = entry.tick;
        entry.tick = new_tick;
        let value = entry.value.clone();
        let key_clone = key.clone();
        shard.recency.remove(&old_tick);
        shard.recency.insert(new_tick, key_clone);
        self.hits.inc();
        Some(value)
    }

    /// Fetch, or compute-and-insert on miss. The computation runs *outside*
    /// the shard lock, so concurrent misses may compute twice (last write
    /// wins) — the same semantics as a Redis look-aside cache.
    pub fn get_or_insert_with(&self, key: K, f: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = f();
        self.insert(key, v.clone());
        v
    }

    /// Remove a key, returning its value if it was live.
    pub fn remove(&self, key: &K) -> Option<V> {
        let mut shard = self.shard_for(key).lock();
        let entry = shard.map.remove(key)?;
        shard.recency.remove(&entry.tick);
        let now = self.clock.now();
        if entry.expires_at.is_some_and(|t| t <= now) {
            self.expirations.inc();
            None
        } else {
            Some(entry.value)
        }
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.map.clear();
            s.recency.clear();
            s.earliest_expiry = Timestamp::MAX;
        }
    }

    /// Number of stored entries, including not-yet-reaped expired ones.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Eagerly remove all expired entries; returns how many were reaped.
    /// Shards whose `earliest_expiry` is still ahead of the clock are
    /// skipped without a scan.
    pub fn sweep_expired(&self) -> usize {
        let now = self.clock.now();
        let reaped: usize = self
            .shards
            .iter()
            .map(|shard| shard.lock().reap_expired(now))
            .sum();
        self.expirations.add(reaped as u64);
        reaped
    }

    /// Remove every entry whose key fails `keep`; returns how many were
    /// removed. The tier-2 stores use this for namespace invalidation
    /// (a generation bump flushes every key of the old namespace).
    pub fn retain_keys(&self, keep: impl Fn(&K) -> bool) -> usize {
        let mut removed = 0usize;
        for shard in &self.shards {
            let mut s = shard.lock();
            let dead: Vec<(u64, K)> = s
                .map
                .iter()
                .filter(|(k, _)| !keep(k))
                .map(|(k, e)| (e.tick, k.clone()))
                .collect();
            for (dead_tick, k) in dead {
                s.map.remove(&k);
                s.recency.remove(&dead_tick);
                removed += 1;
            }
        }
        removed
    }

    /// Counter snapshot — a projection of the same
    /// [`Counter`] cells
    /// [`Cache::register_metrics`] exposes to a registry.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            expirations: self.expirations.get(),
            inserts: self.inserts.get(),
        }
    }

    /// Register this cache's counters under the workspace naming scheme
    /// (`cryptext_cache_<event>_total{tier="<tier>"}`). The registry
    /// shares the live cells, so exports always match [`Cache::stats`];
    /// an unregistered cache records at identical cost and is simply
    /// absent from exports.
    pub fn register_metrics(&self, registry: &MetricsRegistry, tier: &'static str) {
        let labels = [("tier", tier)];
        registry.register_counter(
            "cryptext_cache_hits_total",
            "tier-1 cache hits",
            &labels,
            &self.hits,
        );
        registry.register_counter(
            "cryptext_cache_misses_total",
            "tier-1 cache misses",
            &labels,
            &self.misses,
        );
        registry.register_counter(
            "cryptext_cache_evictions_total",
            "tier-1 LRU evictions",
            &labels,
            &self.evictions,
        );
        registry.register_counter(
            "cryptext_cache_expirations_total",
            "tier-1 TTL expirations",
            &labels,
            &self.expirations,
        );
        registry.register_counter(
            "cryptext_cache_inserts_total",
            "tier-1 cache inserts (including overwrites)",
            &labels,
            &self.inserts,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_common::SimClock;

    fn sim_cache(capacity: usize, ttl: Option<u64>) -> (Cache<String, u32>, SimClock) {
        let clock = SimClock::new(0);
        let cache = Cache::new(
            CacheConfig {
                capacity,
                default_ttl_ms: ttl,
                shards: 1, // single shard → deterministic LRU order
            },
            Arc::new(clock.clone()),
        );
        (cache, clock)
    }

    #[test]
    fn insert_get_roundtrip() {
        let (c, _) = sim_cache(10, None);
        c.insert("a".into(), 1);
        assert_eq!(c.get(&"a".into()), Some(1));
        assert_eq!(c.get(&"b".into()), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn overwrite_replaces_value() {
        let (c, _) = sim_cache(10, None);
        c.insert("a".into(), 1);
        c.insert("a".into(), 2);
        assert_eq!(c.get(&"a".into()), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest_untouched() {
        let (c, _) = sim_cache(3, None);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        c.insert("c".into(), 3);
        // Touch "a" so "b" becomes LRU.
        assert_eq!(c.get(&"a".into()), Some(1));
        c.insert("d".into(), 4);
        assert_eq!(c.get(&"b".into()), None, "b evicted");
        assert_eq!(c.get(&"a".into()), Some(1));
        assert_eq!(c.get(&"c".into()), Some(3));
        assert_eq!(c.get(&"d".into()), Some(4));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let (c, _) = sim_cache(5, None);
        for i in 0..100 {
            c.insert(format!("k{i}"), i);
            assert!(c.len() <= 5, "len {} after insert {i}", c.len());
        }
    }

    #[test]
    fn ttl_expiry_with_sim_clock() {
        let (c, clock) = sim_cache(10, Some(1_000));
        c.insert("a".into(), 1);
        assert_eq!(c.get(&"a".into()), Some(1));
        clock.advance(999);
        assert_eq!(c.get(&"a".into()), Some(1), "just before deadline");
        clock.advance(1);
        assert_eq!(c.get(&"a".into()), None, "expired exactly at deadline");
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn explicit_ttl_overrides_default() {
        let (c, clock) = sim_cache(10, Some(10));
        c.insert_with_ttl("long".into(), 1, 1_000_000);
        clock.advance(500);
        assert_eq!(c.get(&"long".into()), Some(1));
    }

    #[test]
    fn no_ttl_means_immortal() {
        let (c, clock) = sim_cache(10, None);
        c.insert("a".into(), 1);
        clock.advance(u64::MAX / 2);
        assert_eq!(c.get(&"a".into()), Some(1));
    }

    #[test]
    fn sweep_reaps_only_expired() {
        let (c, clock) = sim_cache(10, None);
        c.insert_with_ttl("dead".into(), 1, 100);
        c.insert("alive".into(), 2);
        clock.advance(200);
        assert_eq!(c.sweep_expired(), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"alive".into()), Some(2));
    }

    #[test]
    fn capacity_put_reaps_expired_before_evicting_live() {
        let (c, clock) = sim_cache(2, None);
        c.insert_with_ttl("dead".into(), 1, 10);
        c.insert("live".into(), 2);
        clock.advance(20);
        // At capacity with one expired entry: the put must reap "dead"
        // rather than evict "live", which is older than nothing else alive.
        c.insert("new".into(), 3);
        assert_eq!(c.get(&"live".into()), Some(2), "live entry survived");
        assert_eq!(c.get(&"new".into()), Some(3));
        let s = c.stats();
        assert_eq!(s.evictions, 0, "no live entry was LRU-evicted");
        assert_eq!(s.expirations, 1, "the expired entry was reaped");
    }

    #[test]
    fn capacity_put_still_evicts_lru_when_nothing_expired() {
        let (c, _) = sim_cache(2, None);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        c.insert("c".into(), 3);
        assert_eq!(c.get(&"a".into()), None, "LRU evicted");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn earliest_expiry_gates_the_reap_scan() {
        let (c, clock) = sim_cache(3, None);
        let earliest = |c: &Cache<String, u32>| c.shards[0].lock().earliest_expiry;
        assert_eq!(earliest(&c), Timestamp::MAX, "empty shard");

        // Inserts lower the bound; immortal entries leave it alone.
        c.insert_with_ttl("a".into(), 1, 100);
        assert_eq!(earliest(&c), 100);
        c.insert_with_ttl("b".into(), 2, 50);
        assert_eq!(earliest(&c), 50);
        c.insert("c".into(), 3);
        assert_eq!(earliest(&c), 50);
        // Removals leave it alone: it stays a (now loose) lower bound.
        assert_eq!(c.remove(&"b".into()), Some(2));
        assert_eq!(earliest(&c), 50);
        c.insert_with_ttl("d".into(), 4, 500);
        assert_eq!(c.len(), 3);

        // At capacity with the bound passed but nothing expired: the scan
        // runs, finds nothing, tightens the bound, and exactly one LRU
        // entry ("a") is evicted.
        clock.advance(60);
        c.insert_with_ttl("e".into(), 5, 1_000);
        assert_eq!(earliest(&c), 100, "reset to the earliest survivor, a");
        assert_eq!(c.get(&"a".into()), None, "a was the LRU entry");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().expirations, 0);

        // At capacity with an expired entry: it is reaped before any live
        // entry is evicted, and the bound moves to the survivors.
        clock.advance(540); // now 600: d (500) expired, e (1060) live
        c.insert("f".into(), 6);
        assert_eq!(earliest(&c), 1_060);
        assert_eq!(c.get(&"d".into()), None);
        assert_eq!(c.get(&"c".into()), Some(3), "live entry survived");
        assert_eq!(c.stats().evictions, 1, "no eviction this time");
        assert_eq!(c.stats().expirations, 1);

        // Bound ahead of the clock: no scan, straight to one LRU eviction
        // (e, since the get above refreshed c). The bound stays put.
        c.insert("g".into(), 7);
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().expirations, 1);
        assert_eq!(c.len(), 3);
        assert_eq!(earliest(&c), 1_060);
        c.insert_with_ttl("h".into(), 8, 900); // deadline 1500; evicts f
        assert_eq!(c.stats().evictions, 3);
        assert_eq!(earliest(&c), 1_060, "a later deadline never raises it");

        // A clock that jumps back never makes a live entry look dead.
        clock.set(0);
        assert_eq!(c.sweep_expired(), 0);
        assert_eq!(earliest(&c), 1_060);

        // Sweeps reap through the same rule and reset the bound.
        clock.set(2_000);
        assert_eq!(c.sweep_expired(), 1, "h expired");
        assert_eq!(earliest(&c), Timestamp::MAX, "only immortal entries left");
        assert_eq!(c.stats().expirations, 2);
        assert_eq!(c.get(&"c".into()), Some(3));
        assert_eq!(c.get(&"g".into()), Some(7));

        // Clear resets the bound.
        c.insert_with_ttl("i".into(), 9, 10);
        assert_eq!(earliest(&c), 2_010);
        c.clear();
        assert_eq!(earliest(&c), Timestamp::MAX);
    }

    #[test]
    fn retain_keys_removes_only_failing_keys() {
        let (c, _) = sim_cache(10, None);
        for i in 0..6 {
            c.insert(format!("k{i}"), i);
        }
        let removed = c.retain_keys(|k| !k.ends_with(['1', '3']));
        assert_eq!(removed, 2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(&"k1".into()), None);
        assert_eq!(c.get(&"k2".into()), Some(2));
    }

    #[test]
    fn get_or_insert_with_computes_once_on_hit() {
        let (c, _) = sim_cache(10, None);
        let mut calls = 0;
        let v = c.get_or_insert_with("k".into(), || {
            calls += 1;
            7
        });
        assert_eq!(v, 7);
        let v = c.get_or_insert_with("k".into(), || {
            calls += 1;
            9
        });
        assert_eq!(v, 7, "cached value served");
        assert_eq!(calls, 1);
    }

    #[test]
    fn remove_returns_live_value() {
        let (c, clock) = sim_cache(10, None);
        c.insert("a".into(), 1);
        assert_eq!(c.remove(&"a".into()), Some(1));
        assert_eq!(c.remove(&"a".into()), None);
        c.insert_with_ttl("b".into(), 2, 10);
        clock.advance(20);
        assert_eq!(c.remove(&"b".into()), None, "expired value not returned");
    }

    #[test]
    fn clear_empties_everything() {
        let (c, _) = sim_cache(10, None);
        for i in 0..5 {
            c.insert(format!("k{i}"), i);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&"k0".into()), None);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let (c, _) = sim_cache(10, None);
        c.insert("a".into(), 1);
        c.get(&"a".into());
        c.get(&"a".into());
        c.get(&"nope".into());
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.inserts, 1);
    }

    #[test]
    fn hit_rate_zero_without_traffic() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn multi_shard_concurrent_smoke() {
        let clock = SimClock::new(0);
        let c = Arc::new(Cache::<u64, u64>::new(
            CacheConfig {
                capacity: 1_000,
                default_ttl_ms: None,
                shards: 8,
            },
            Arc::new(clock),
        ));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let k = t * 1_000 + (i % 100);
                    c.insert(k, i);
                    let _ = c.get(&k);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 1_000);
        let s = c.stats();
        assert!(s.hits > 0);
        assert_eq!(s.inserts, 8 * 500);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cryptext_common::SimClock;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u32, Option<u16>),
        Get(u8),
        Remove(u8),
        Advance(u16),
        Rewind(u16),
        Sweep,
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                any::<u8>(),
                any::<u32>(),
                proptest::option::of(any::<u16>())
            )
                .prop_map(|(k, v, t)| Op::Insert(k, v, t)),
            any::<u8>().prop_map(Op::Get),
            any::<u8>().prop_map(Op::Remove),
            any::<u16>().prop_map(Op::Advance),
            any::<u16>().prop_map(Op::Rewind),
            Just(Op::Sweep),
            Just(Op::Clear),
        ]
    }

    proptest! {
        /// Model check against a simple reference map: the cache never
        /// returns a value that the reference says is absent or expired,
        /// never exceeds capacity, and hits always return the last insert.
        /// The shard's `earliest_expiry` stays a lower bound on every
        /// stored deadline, even when the clock moves backwards.
        #[test]
        fn model_equivalence(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let clock = SimClock::new(0);
            let capacity = 16usize;
            let cache = Cache::<u8, u32>::new(
                CacheConfig { capacity, default_ttl_ms: None, shards: 1 },
                Arc::new(clock.clone()),
            );
            // Reference: key → (value, expires_at). LRU evictions make the
            // cache a subset of the reference.
            let mut reference: std::collections::HashMap<u8, (u32, Option<u64>)> =
                std::collections::HashMap::new();

            for op in ops {
                match op {
                    Op::Insert(k, v, ttl) => {
                        match ttl {
                            Some(t) => cache.insert_with_ttl(k, v, t as u64),
                            None => cache.insert(k, v),
                        }
                        let expires = ttl.map(|t| clock.now() + t as u64);
                        reference.insert(k, (v, expires));
                    }
                    Op::Get(k) => {
                        if let Some(got) = cache.get(&k) {
                            let (v, expires) = reference
                                .get(&k)
                                .unwrap_or_else(|| panic!("cache returned unknown key {k}"));
                            prop_assert_eq!(got, *v, "stale value for {}", k);
                            prop_assert!(
                                expires.is_none_or(|t| t > clock.now()),
                                "expired value returned for {}", k
                            );
                        }
                    }
                    Op::Remove(k) => {
                        cache.remove(&k);
                        reference.remove(&k);
                    }
                    Op::Advance(ms) => {
                        clock.advance(ms as u64);
                    }
                    Op::Rewind(ms) => {
                        clock.set(clock.now().saturating_sub(ms as u64));
                    }
                    Op::Sweep => {
                        cache.sweep_expired();
                    }
                    Op::Clear => {
                        cache.clear();
                        reference.clear();
                    }
                }
                prop_assert!(cache.len() <= capacity);
                let shard = cache.shards[0].lock();
                let min_deadline = shard.map.values().filter_map(|e| e.expires_at).min();
                prop_assert!(
                    min_deadline.is_none_or(|t| shard.earliest_expiry <= t),
                    "earliest_expiry {} above a stored deadline {:?}",
                    shard.earliest_expiry,
                    min_deadline
                );
            }
        }
    }
}
