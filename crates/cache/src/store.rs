//! The tier-2 byte-valued cache store, [`SharedCacheStore`].
//!
//! The paper (§III-F) fronts the query engines with a Redis cache. Tier-1 of
//! our hierarchy is the typed in-process [`Cache`] inside each
//! `CryptextService`; this module is the second tier the service reads
//! through to and writes behind. Values are opaque bytes and every key
//! lives in a *namespace* — a 64-bit digest of (LM fingerprint, store
//! identity, generation) — so a generation bump on ingest invalidates by
//! flushing the old namespace, never by guessing individual keys.
//!
//! [`SharedCacheStore`] is the Redis stand-in under the vendored-shim
//! constraint: a single in-process server object a fleet of replica
//! services point at through `Arc`s, usually the process-global
//! [`SharedCacheStore::global`]. A service gets it only when the code
//! assembling the service attaches it (`CryptextService::attach_tier2`).
//! The byte-valued get/put surface is the boundary a Redis client would
//! sit behind. Its write path is a [`failpoint`] (`cache.shared.put`), so
//! `CRYPTEXT_FAILPOINTS` sweeps can kill or delay tier-2 writes; callers
//! must absorb the error as a miss — a broken second tier degrades
//! performance, never correctness.

use std::sync::{Arc, OnceLock};

use cryptext_common::metrics::{Counter, MetricsRegistry};
use cryptext_common::{failpoint, Clock, Result};

use crate::{Cache, CacheConfig};

/// Failpoint name armed on [`SharedCacheStore`]'s write path.
pub const SHARED_PUT_FAILPOINT: &str = "cache.shared.put";

/// The shared-role tier-2 store: a byte-valued, namespaced, TTL-capable
/// cache standing in for Redis. A fleet of replica services holds `Arc`s
/// to one instance; distinct logical databases never collide because
/// namespaces are content-derived. Every method takes `&self` and is safe
/// under concurrent use. Writes pass through the [`SHARED_PUT_FAILPOINT`]
/// failpoint so fault sweeps can break the second tier without breaking
/// results.
pub struct SharedCacheStore {
    inner: Cache<(u64, u128), Vec<u8>>,
    invalidated: Counter,
    put_errors: Counter,
}

impl SharedCacheStore {
    /// Build from a cache config, reading time from `clock`.
    pub fn new(config: CacheConfig, clock: Arc<dyn Clock>) -> Self {
        SharedCacheStore {
            inner: Cache::new(config, clock),
            invalidated: Counter::new(),
            put_errors: Counter::new(),
        }
    }

    /// The process-global shared store (system clock, default capacity) —
    /// the one store every replica service in a process attaches to.
    pub fn global() -> Arc<SharedCacheStore> {
        static GLOBAL: OnceLock<Arc<SharedCacheStore>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| {
            Arc::new(SharedCacheStore::new(
                CacheConfig::default(),
                cryptext_common::system_clock(),
            ))
        }))
    }

    /// Fetch the bytes stored under `(ns, key)`, if live. Never returns a
    /// value written under a different `(ns, key)` pair.
    pub fn get(&self, ns: u64, key: u128) -> Option<Vec<u8>> {
        self.inner.get(&(ns, key))
    }

    /// Store `value` under `(ns, key)` with an optional TTL. An error means
    /// the entry was *not* stored (an injected fault on the write path);
    /// callers absorb it as a future miss.
    pub fn put(&self, ns: u64, key: u128, value: Vec<u8>, ttl_ms: Option<u64>) -> Result<()> {
        if let Err(e) = failpoint::check(SHARED_PUT_FAILPOINT) {
            self.put_errors.inc();
            return Err(e);
        }
        self.inner.insert_opt_ttl((ns, key), value, ttl_ms);
        Ok(())
    }

    /// Drop every entry written under `ns`; returns how many were flushed.
    pub fn invalidate_namespace(&self, ns: u64) -> usize {
        let n = self.inner.retain_keys(|&(k_ns, _)| k_ns != ns);
        self.invalidated.add(n as u64);
        n
    }

    /// Eagerly reap expired entries; returns how many were reaped.
    pub fn sweep_expired(&self) -> usize {
        self.inner.sweep_expired()
    }

    /// Register this store's counters with a workspace
    /// [`MetricsRegistry`] under `tier` (e.g. `"tier2"`), sharing the live
    /// cells: `cryptext_cache_{hits,misses,inserts,evictions,expirations,
    /// invalidated,put_errors}_total`. Registries are the only way to read
    /// a store's counters.
    pub fn register_metrics(&self, registry: &MetricsRegistry, tier: &'static str) {
        self.inner.register_metrics(registry, tier);
        registry.register_counter(
            "cryptext_cache_invalidated_total",
            "entries flushed by namespace invalidation",
            &[("tier", tier)],
            &self.invalidated,
        );
        registry.register_counter(
            "cryptext_cache_put_errors_total",
            "tier-2 puts that failed (entry dropped)",
            &[("tier", tier)],
            &self.put_errors,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_common::SimClock;

    fn sim_store<F: FnOnce(CacheConfig, Arc<dyn Clock>) -> S, S>(make: F) -> (S, SimClock) {
        let clock = SimClock::new(0);
        let store = make(
            CacheConfig {
                capacity: 64,
                default_ttl_ms: None,
                shards: 1,
            },
            Arc::new(clock.clone()),
        );
        (store, clock)
    }

    /// One of `store`'s counters, read through a fresh registry:
    /// `cryptext_cache_<event>_total{tier="tier2"}`.
    fn count(store: &SharedCacheStore, event: &str) -> u64 {
        let registry = MetricsRegistry::new();
        store.register_metrics(&registry, "tier2");
        registry.snapshot().counter_labeled(
            &format!("cryptext_cache_{event}_total"),
            "tier",
            "tier2",
        )
    }

    fn roundtrip(store: &SharedCacheStore) {
        assert_eq!(store.get(1, 7), None);
        store.put(1, 7, vec![1, 2, 3], None).unwrap();
        assert_eq!(store.get(1, 7), Some(vec![1, 2, 3]));
        assert_eq!(store.get(2, 7), None, "namespaces are disjoint");
        assert_eq!(store.get(1, 8), None);
    }

    #[test]
    fn shared_store_roundtrip_and_namespacing() {
        let (s, _) = sim_store(SharedCacheStore::new);
        roundtrip(&s);
        assert_eq!(count(&s, "hits"), 1);
        assert_eq!(count(&s, "misses"), 3);
        assert_eq!(count(&s, "inserts"), 1);
    }

    #[test]
    fn namespace_invalidation_flushes_only_that_namespace() {
        let (s, _) = sim_store(SharedCacheStore::new);
        s.put(1, 10, vec![1], None).unwrap();
        s.put(1, 11, vec![2], None).unwrap();
        s.put(2, 10, vec![3], None).unwrap();
        assert_eq!(s.invalidate_namespace(1), 2);
        assert_eq!(s.get(1, 10), None);
        assert_eq!(s.get(1, 11), None);
        assert_eq!(s.get(2, 10), Some(vec![3]));
        assert_eq!(count(&s, "invalidated"), 2);
    }

    #[test]
    fn ttl_expiry_and_sweep() {
        let (s, clock) = sim_store(SharedCacheStore::new);
        s.put(1, 1, vec![9], Some(100)).unwrap();
        s.put(1, 2, vec![8], None).unwrap();
        clock.advance(200);
        assert_eq!(s.get(1, 1), None);
        assert_eq!(s.sweep_expired(), 0, "expired entry already reaped by get");
        s.put(1, 3, vec![7], Some(50)).unwrap();
        clock.advance(60);
        assert_eq!(s.sweep_expired(), 1);
        assert_eq!(s.get(1, 2), Some(vec![8]));
    }

    #[test]
    fn shared_put_failpoint_breaks_writes_not_reads() {
        let (s, _) = sim_store(SharedCacheStore::new);
        s.put(1, 1, vec![1], None).unwrap();
        {
            let _fp = failpoint::arm(SHARED_PUT_FAILPOINT, "kill@1");
            let err = s.put(1, 2, vec![2], None).unwrap_err();
            assert!(failpoint::is_injected(&err));
            // Monotonic: a dead store stays dead while armed.
            assert!(s.put(1, 3, vec![3], None).is_err());
        }
        assert_eq!(s.get(1, 1), Some(vec![1]), "pre-fault entry still served");
        assert_eq!(s.get(1, 2), None, "failed put stored nothing");
        assert_eq!(count(&s, "put_errors"), 2);
        // Disarmed: writes flow again.
        s.put(1, 2, vec![2], None).unwrap();
        assert_eq!(s.get(1, 2), Some(vec![2]));
    }

    #[test]
    fn global_shared_store_is_one_instance() {
        let a = SharedCacheStore::global();
        let b = SharedCacheStore::global();
        assert!(Arc::ptr_eq(&a, &b));
        // Use a namespace no other test shares: derived from this test name.
        let ns = cryptext_common::hash::fx_hash_str("global_shared_store_is_one_instance");
        a.put(ns, 42, vec![4], None).unwrap();
        assert_eq!(b.get(ns, 42), Some(vec![4]));
    }
}
