//! The tier-2 byte-valued cache store behind the [`CacheStore`] trait.
//!
//! The paper (§III-F) fronts the query engines with a Redis cache. Tier-1 of
//! our hierarchy is the typed in-process [`Cache`](crate::Cache) inside each
//! `CryptextService`; this module defines the pluggable second tier the
//! service reads through to and writes behind. Values are opaque bytes and
//! every key lives in a *namespace* — a 64-bit digest of (LM fingerprint,
//! store identity, generation) — so a generation bump on ingest invalidates
//! by flushing the old namespace, never by guessing individual keys.
//!
//! One backend implements it: [`SharedCacheStore`], the Redis stand-in
//! under the vendored-shim constraint — a single in-process server object
//! a fleet of replica services point at through `Arc`s, usually the
//! process-global [`SharedCacheStore::global`]. A service gets it only when
//! the code assembling the service attaches it
//! (`CryptextService::attach_tier2`). Its write path is a
//! [`failpoint`](cryptext_common::failpoint) (`cache.shared.put`), so
//! `CRYPTEXT_FAILPOINTS` sweeps can kill or delay tier-2 writes; callers
//! must absorb the error as a miss — a broken second tier degrades
//! performance, never correctness. The trait is the surface a real Redis
//! client would implement.

use std::sync::{Arc, OnceLock};

use cryptext_common::metrics::{Counter, MetricsRegistry};
use cryptext_common::{failpoint, Clock, Result};

use crate::{Cache, CacheConfig};

/// Counter snapshot for a tier-2 store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Successful `get`s.
    pub hits: u64,
    /// Failed `get`s (absent or expired).
    pub misses: u64,
    /// Successful `put`s.
    pub inserts: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because their TTL elapsed.
    pub expirations: u64,
    /// Entries flushed by [`CacheStore::invalidate_namespace`].
    pub invalidated: u64,
    /// `put`s that failed (injected faults included); the entry was dropped.
    pub put_errors: u64,
}

/// A byte-valued, namespaced, TTL-capable cache store — the tier-2 contract.
///
/// Implementations are shared-nothing from the caller's perspective: every
/// method takes `&self` and must be safe under concurrent use. `get` must
/// never return a value written under a different `(ns, key)` pair, and
/// `invalidate_namespace(ns)` must drop every entry written under `ns`.
pub trait CacheStore: Send + Sync {
    /// Fetch the bytes stored under `(ns, key)`, if live.
    fn get(&self, ns: u64, key: u128) -> Option<Vec<u8>>;

    /// Store `value` under `(ns, key)` with an optional TTL. Errors mean the
    /// entry was *not* stored (e.g. an injected fault on the write path);
    /// callers absorb them as future misses.
    fn put(&self, ns: u64, key: u128, value: Vec<u8>, ttl_ms: Option<u64>) -> Result<()>;

    /// Drop every entry in `ns`; returns how many were flushed.
    fn invalidate_namespace(&self, ns: u64) -> usize;

    /// Eagerly reap expired entries; returns how many were reaped.
    fn sweep_expired(&self) -> usize;

    /// Counter snapshot.
    fn stats(&self) -> StoreStats;

    /// Register this store's counters with a workspace
    /// [`MetricsRegistry`] under `tier` (e.g. `"tier2"`). Default:
    /// no-op, for backends with nothing to export. Implementations
    /// share live cells, so exports always match [`CacheStore::stats`].
    fn register_metrics(&self, registry: &MetricsRegistry, tier: &'static str) {
        let _ = (registry, tier);
    }
}

/// Failpoint name armed on [`SharedCacheStore`]'s write path.
pub const SHARED_PUT_FAILPOINT: &str = "cache.shared.put";

/// The shared-role tier-2 backend: an in-process server object standing in
/// for Redis. A fleet of replica services holds `Arc`s to one instance;
/// distinct logical databases never collide because namespaces are
/// content-derived. Writes pass through the [`SHARED_PUT_FAILPOINT`]
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
}

impl CacheStore for SharedCacheStore {
    fn get(&self, ns: u64, key: u128) -> Option<Vec<u8>> {
        self.inner.get(&(ns, key))
    }

    fn put(&self, ns: u64, key: u128, value: Vec<u8>, ttl_ms: Option<u64>) -> Result<()> {
        if let Err(e) = failpoint::check(SHARED_PUT_FAILPOINT) {
            self.put_errors.inc();
            return Err(e);
        }
        self.inner.insert_opt_ttl((ns, key), value, ttl_ms);
        Ok(())
    }

    fn invalidate_namespace(&self, ns: u64) -> usize {
        let n = self.inner.retain_keys(|&(k_ns, _)| k_ns != ns);
        self.invalidated.add(n as u64);
        n
    }

    fn sweep_expired(&self) -> usize {
        self.inner.sweep_expired()
    }

    fn stats(&self) -> StoreStats {
        let s = self.inner.stats();
        StoreStats {
            hits: s.hits,
            misses: s.misses,
            inserts: s.inserts,
            evictions: s.evictions,
            expirations: s.expirations,
            invalidated: self.invalidated.get(),
            put_errors: self.put_errors.get(),
        }
    }

    fn register_metrics(&self, registry: &MetricsRegistry, tier: &'static str) {
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

    fn roundtrip(store: &dyn CacheStore) {
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
        let st = s.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 3);
        assert_eq!(st.inserts, 1);
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
        assert_eq!(s.stats().invalidated, 2);
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
        assert_eq!(s.stats().put_errors, 2);
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
