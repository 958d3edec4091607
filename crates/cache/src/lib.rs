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
//! * **LRU** — every shard links its entries into a recency list, most
//!   recently used first. The list lives in a slab of nodes linked by
//!   index (freed nodes chain into a free list), so a hit relinks one node
//!   and an evicting insert unlinks the tail and reuses its node: `O(1)`,
//!   no key clone, no unsafe code. Recency is the order in which
//!   operations take the shard's lock.
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

use std::hash::{Hash, Hasher};
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
    /// The entry's node in its shard's [`Recency`] list.
    node: u32,
}

/// End-of-list marker for [`Node`] links.
const NIL: u32 = u32::MAX;

/// One node of a [`Recency`] list: the key of the entry it stands for
/// (`None` while the node is free) and its neighbours, `prev` toward the
/// most recently used end and `next` toward the least.
struct Node<K> {
    key: Option<K>,
    prev: u32,
    next: u32,
}

/// A shard's recency order: a doubly linked list over a slab of nodes,
/// `head` the most recently used entry and `tail` the least. Freed nodes
/// chain from `free` through `next` and are reused before the slab grows.
struct Recency<K> {
    nodes: Vec<Node<K>>,
    head: u32,
    tail: u32,
    free: u32,
}

impl<K> Recency<K> {
    fn new() -> Self {
        Recency {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Link a node for `key` at the most recently used end; returns it.
    fn push_front(&mut self, key: K) -> u32 {
        let node = if self.free == NIL {
            let node = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("a shard holds fewer than u32::MAX entries");
            self.nodes.push(Node {
                key: None,
                prev: NIL,
                next: NIL,
            });
            node
        } else {
            let node = self.free;
            self.free = self.nodes[node as usize].next;
            node
        };
        self.nodes[node as usize].key = Some(key);
        self.link_front(node);
        node
    }

    fn link_front(&mut self, node: u32) {
        let n = &mut self.nodes[node as usize];
        n.prev = NIL;
        n.next = self.head;
        match self.head {
            NIL => self.tail = node,
            head => self.nodes[head as usize].prev = node,
        }
        self.head = node;
    }

    fn unlink(&mut self, node: u32) {
        let Node { prev, next, .. } = self.nodes[node as usize];
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next as usize].prev = prev,
        }
    }

    /// Mark `node` most recently used.
    fn touch(&mut self, node: u32) {
        if self.head != node {
            self.unlink(node);
            self.link_front(node);
        }
    }

    /// Unlink `node` onto the free list; returns its key.
    fn release(&mut self, node: u32) -> Option<K> {
        self.unlink(node);
        let n = &mut self.nodes[node as usize];
        n.next = self.free;
        self.free = node;
        n.key.take()
    }

    /// Release the least recently used node; returns its key.
    fn pop_back(&mut self) -> Option<K> {
        match self.tail {
            NIL => None,
            tail => self.release(tail),
        }
    }

    /// Free every node, keeping the slab's allocation.
    fn clear(&mut self) {
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }
}

struct Shard<K, V> {
    map: FxHashMap<K, Entry<V>>,
    recency: Recency<K>,
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
            recency: Recency::new(),
            earliest_expiry: Timestamp::MAX,
        }
    }

    /// Keep `earliest_expiry` a lower bound once an entry carries
    /// `expires_at`.
    fn lower_expiry_bound(&mut self, expires_at: Option<Timestamp>) {
        if let Some(t) = expires_at {
            self.earliest_expiry = self.earliest_expiry.min(t);
        }
    }

    /// Remove `key`'s entry and free its recency node.
    fn remove(&mut self, key: &K) -> Option<Entry<V>> {
        let entry = self.map.remove(key)?;
        self.recency.release(entry.node);
        Some(entry)
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
                recency.release(e.node);
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
        let mut guard = self.shard_for(&key).lock();
        let shard = &mut *guard;
        self.inserts.inc();
        // Overwrite: the entry takes the new value and deadline and
        // becomes the most recently used.
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            entry.expires_at = expires_at;
            shard.recency.touch(entry.node);
            shard.lower_expiry_bound(expires_at);
            return;
        }
        // At capacity: reap this shard's expired entries first so a dead
        // entry never forces a live one out. Only then fall back to LRU.
        if shard.map.len() >= self.per_shard_capacity {
            let reaped = shard.reap_expired(now);
            self.expirations.add(reaped as u64);
        }
        // Evict the least recently used entry while still at capacity; its
        // node is the one the new entry reuses.
        while shard.map.len() >= self.per_shard_capacity {
            match shard.recency.pop_back() {
                Some(victim) => {
                    shard.map.remove(&victim);
                    self.evictions.inc();
                }
                None => break,
            }
        }
        shard.lower_expiry_bound(expires_at);
        let node = shard.recency.push_front(key.clone());
        shard.map.insert(
            key,
            Entry {
                value,
                expires_at,
                node,
            },
        );
    }

    /// Fetch a live entry, refreshing its recency. Expired entries are
    /// removed and counted, then reported as misses.
    pub fn get(&self, key: &K) -> Option<V> {
        let now = self.clock.now();
        let mut guard = self.shard_for(key).lock();
        let shard = &mut *guard;
        let Some(entry) = shard.map.get(key) else {
            self.misses.inc();
            return None;
        };
        if entry.expires_at.is_some_and(|t| t <= now) {
            shard.remove(key);
            self.expirations.inc();
            self.misses.inc();
            return None;
        }
        let value = entry.value.clone();
        shard.recency.touch(entry.node);
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
        let entry = self.shard_for(key).lock().remove(key)?;
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
            let mut guard = shard.lock();
            let Shard { map, recency, .. } = &mut *guard;
            map.retain(|k, e| {
                let kept = keep(k);
                if !kept {
                    recency.release(e.node);
                    removed += 1;
                }
                kept
            });
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

        /// Exact victims: a single-shard cache under capacity pressure
        /// behaves as a reference LRU, a recency-ordered list of
        /// `(key, value, deadline)` (most recent first) that keeps expired
        /// entries until something reaps them. Every `get` hits exactly
        /// when the reference holds a live entry, with its value, and
        /// `len()` agrees after every op, so a list that evicts the wrong
        /// entry or forgets a touch is caught at the next op that can
        /// tell.
        #[test]
        fn evicts_exactly_the_reference_lru_victim(
            ops in proptest::collection::vec(lru_op_strategy(), 1..160)
        ) {
            let clock = SimClock::new(0);
            let capacity = 6usize;
            let cache = Cache::<u8, u32>::new(
                CacheConfig { capacity, default_ttl_ms: None, shards: 1 },
                Arc::new(clock.clone()),
            );
            let mut reference: Vec<(u8, u32, Option<u64>)> = Vec::new();
            let live = |deadline: Option<u64>, now: u64| deadline.is_none_or(|t| t > now);

            for op in ops {
                let now = clock.now();
                match op {
                    Op::Insert(k, v, ttl) => {
                        let deadline = ttl.map(|t| now + t as u64);
                        match ttl {
                            Some(t) => cache.insert_with_ttl(k, v, t as u64),
                            None => cache.insert(k, v),
                        }
                        if let Some(at) = reference.iter().position(|e| e.0 == k) {
                            reference.remove(at);
                        } else if reference.len() >= capacity {
                            reference.retain(|e| live(e.2, now));
                            if reference.len() >= capacity {
                                reference.pop();
                            }
                        }
                        reference.insert(0, (k, v, deadline));
                    }
                    Op::Get(k) => {
                        let expect = match reference.iter().position(|e| e.0 == k) {
                            Some(at) if live(reference[at].2, now) => {
                                let entry = reference.remove(at);
                                reference.insert(0, entry);
                                Some(entry.1)
                            }
                            Some(at) => {
                                reference.remove(at);
                                None
                            }
                            None => None,
                        };
                        prop_assert_eq!(cache.get(&k), expect, "get({})", k);
                    }
                    Op::Remove(k) => {
                        let expect = reference
                            .iter()
                            .position(|e| e.0 == k)
                            .map(|at| reference.remove(at))
                            .filter(|e| live(e.2, now))
                            .map(|e| e.1);
                        prop_assert_eq!(cache.remove(&k), expect, "remove({})", k);
                    }
                    Op::Advance(ms) => {
                        clock.advance(ms as u64);
                    }
                    Op::Rewind(ms) => {
                        clock.set(now.saturating_sub(ms as u64));
                    }
                    Op::Sweep => {
                        let before = reference.len();
                        reference.retain(|e| live(e.2, now));
                        prop_assert_eq!(cache.sweep_expired(), before - reference.len());
                    }
                    Op::Clear => {
                        cache.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(cache.len(), reference.len(), "len after {:?}", op);
            }
        }
    }

    /// Ops over 10 keys and short deadlines, weighted toward inserts and
    /// gets, so a capacity-6 shard keeps evicting and entries expire
    /// between touches.
    fn lru_op_strategy() -> impl Strategy<Value = Op> {
        proptest::strategy::Union::weighted(vec![
            (
                30,
                (0u8..10, any::<u32>(), proptest::option::of(0u16..300))
                    .prop_map(|(k, v, t)| Op::Insert(k, v, t))
                    .boxed(),
            ),
            (30, (0u8..10).prop_map(Op::Get).boxed()),
            (6, (0u8..10).prop_map(Op::Remove).boxed()),
            (8, (0u16..100).prop_map(Op::Advance).boxed()),
            (4, (0u16..100).prop_map(Op::Rewind).boxed()),
            (3, Just(Op::Sweep).boxed()),
            (1, Just(Op::Clear).boxed()),
        ])
    }
}
