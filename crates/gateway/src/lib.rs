//! Overload-resilient service gateway.
//!
//! [`Gateway`] is a layered front-end over
//! [`CryptextService`](cryptext_core::service::CryptextService) — the same
//! onion-of-layers shape a tower-style HTTP router puts in front of a
//! backend, built here without an async runtime: every request runs on
//! the thread that calls the gateway (under HTTP, its connection's
//! thread). A request crosses the layers outermost-in:
//!
//! 1. **Admission control** ([`admission`]) — per-[`RouteClass`] bounded
//!    concurrency with a bounded wait queue. A full queue sheds the
//!    request *immediately* with [`Error::Overloaded`] carrying a
//!    `retry_after_ms` hint; overload degrades throughput for the excess,
//!    never latency for the admitted.
//! 2. **Authorization** — the service's own token + rate-limit gate,
//!    charged exactly once per admitted request
//!    ([`CryptextService::authorize_request`](cryptext_core::service::CryptextService::authorize_request)).
//!    Running it *after* admission means a token revoked while requests
//!    sit in the queue rejects them deterministically at dequeue.
//! 3. **Single-flight coalescing** ([`singleflight`]) — duplicate
//!    in-flight lookups/normalizations attach to the leader and receive
//!    the leader's shared tier-1 entry, not a clone of it; a leader that
//!    fails retryably promotes one follower instead of failing the
//!    cohort.
//! 4. **Deadline + retry budget** ([`deadline`]) — one [`Deadline`] per
//!    request, checked at every layer boundary and probed cooperatively
//!    inside the store walk; retryable failures get a bounded number of
//!    jitter-backoff retries, but only while the deadline still has
//!    budget.
//! 5. **Execution** — the request body runs inline on the caller's
//!    thread. A panic becomes `Error::Internal`; then the flight is
//!    settled and the admission slot released. A body that overruns its
//!    deadline returns its own result; the deadline stops work at the
//!    checks above, not by abandoning a running body.
//!
//! Two entry points run a request through these layers and differ only
//! in what they return. [`Gateway::handle`] returns the typed
//! [`RouteOutput`] for in-process callers: Look Up hits read from the
//! store by the record ids the tier-1 entry names, a Normalization result
//! copied out of its entry. [`Gateway::handle_json`] returns the JSON
//! wire [`Body`] for wire layers such as `cryptext-http`: rendered from
//! the shared entry, or, for a Look Up that tier-1 answered, the body
//! kept with the entry, which the first such hit renders and every later
//! one shares.
//!
//! Draining reverses the onion: [`Gateway::begin_drain`] stops admissions
//! (queued waiters shed, new arrivals shed), in-flight requests finish
//! under the drain deadline, then a flush hook (the durable store's
//! delta-log sync) runs before shutdown.
//!
//! [`Error::Overloaded`]: cryptext_common::Error::Overloaded

pub mod admission;
pub mod deadline;
pub mod envelope;
pub mod gateway;
pub mod singleflight;

use std::sync::atomic::AtomicU64;

use cryptext_common::metrics::{Counter, Gauge, Histogram, MetricsRegistry};

pub use deadline::Deadline;
pub use envelope::{Body, CacheDisposition, Request, Response, RouteOutput, RouteParams};
pub use gateway::{CallOptions, DrainReport, Gateway};
pub use singleflight::{FollowerOutcome, Join, SingleFlight};

/// The route classes the gateway budgets independently, mirroring the
/// service's endpoint families. Heavy routes (perturbation rewrites a
/// whole text) get their own lane so they cannot starve cheap lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteClass {
    /// Look Up: `P_x` retrieval for one token.
    Lookup,
    /// Normalization: perturbed text back to dictionary words.
    Normalize,
    /// Perturbation: rewriting a text with database perturbations.
    Perturb,
}

impl RouteClass {
    /// All route classes, in lane order.
    pub const ALL: [RouteClass; 3] = [
        RouteClass::Lookup,
        RouteClass::Normalize,
        RouteClass::Perturb,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            RouteClass::Lookup => 0,
            RouteClass::Normalize => 1,
            RouteClass::Perturb => 2,
        }
    }

    /// Stable lower-case name (stats, bench reports).
    pub fn name(self) -> &'static str {
        match self {
            RouteClass::Lookup => "lookup",
            RouteClass::Normalize => "normalize",
            RouteClass::Perturb => "perturb",
        }
    }
}

/// Concurrency budget for one route class.
#[derive(Debug, Clone, Copy)]
pub struct RouteBudget {
    /// Requests executing at once; the `max_concurrent + 1`-th admitted
    /// request waits in the queue instead.
    pub max_concurrent: usize,
    /// Requests allowed to wait for a slot; arrival `max_queued + 1`
    /// is shed immediately.
    pub max_queued: usize,
}

impl RouteBudget {
    /// Budget of `max_concurrent` executing plus `max_queued` waiting.
    pub fn new(max_concurrent: usize, max_queued: usize) -> Self {
        RouteBudget {
            max_concurrent: max_concurrent.max(1),
            max_queued,
        }
    }

    /// Total requests this lane holds before shedding.
    pub fn capacity(&self) -> usize {
        self.max_concurrent + self.max_queued
    }
}

/// Gateway configuration: per-route budgets plus the timing knobs shared
/// by every request.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Budget for [`RouteClass::Lookup`].
    pub lookup: RouteBudget,
    /// Budget for [`RouteClass::Normalize`].
    pub normalize: RouteBudget,
    /// Budget for [`RouteClass::Perturb`].
    pub perturb: RouteBudget,
    /// Deadline granted when [`CallOptions::deadline_ms`] is unset.
    pub default_deadline_ms: u64,
    /// Retries granted to retryable failures when
    /// [`CallOptions::max_retries`] is unset.
    pub max_retries: u32,
    /// Base backoff between retries; attempt `n` waits roughly
    /// `base * 2^(n-1)` plus jitter (capped — see [`gateway`]).
    pub retry_backoff_ms: u64,
    /// The `retry_after_ms` hint attached to shed requests.
    pub shed_retry_after_ms: u64,
    /// Real-time budget [`Gateway::drain_with`] waits for in-flight
    /// requests before flushing anyway.
    pub drain_deadline_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            lookup: RouteBudget::new(8, 16),
            normalize: RouteBudget::new(4, 8),
            perturb: RouteBudget::new(2, 4),
            default_deadline_ms: 2_000,
            max_retries: 2,
            retry_backoff_ms: 5,
            shed_retry_after_ms: 25,
            drain_deadline_ms: 5_000,
        }
    }
}

/// The gateway's instrument bundle: registry-native counters plus the
/// per-route queue-wait histograms. [`GatewayStats::register`] shares
/// every cell with the service's [`MetricsRegistry`]; read them by metric
/// name from [`Gateway::stats`], which refreshes the two gauges first.
#[derive(Debug, Default)]
pub(crate) struct GatewayStats {
    pub admitted: Counter,
    pub shed_queue_full: Counter,
    pub shed_draining: Counter,
    pub queue_deadline_expired: Counter,
    pub executions: Counter,
    pub retries: Counter,
    pub completed_ok: Counter,
    pub failed: Counter,
    pub deadline_exceeded: Counter,
    pub coalesced_followers: Counter,
    pub promoted_followers: Counter,
    /// Queue wait per admitted-after-waiting request, µs, indexed by
    /// [`RouteClass::index`]. `/stats` reports their summed observation
    /// count as `queue_waits`.
    pub queue_wait_us: [Histogram; 3],
    /// Requests executing right now; refreshed on every snapshot/render.
    pub active_now: Gauge,
    /// Requests queued right now; refreshed on every snapshot/render.
    pub queued_now: Gauge,
    /// Backoff jitter nonce: kept separate from the `retries` counter so
    /// each retry draws a unique value even under concurrent increments
    /// (a get-then-inc on the counter could hand two retriers the same
    /// jitter).
    pub retry_nonce: AtomicU64,
}

impl GatewayStats {
    /// Register every gateway instrument with `registry` under the
    /// workspace `cryptext_gateway_*` names. Call once per registry;
    /// duplicate names panic — the gateway owns its service's registry
    /// slice, so construct at most one gateway per service instance.
    pub(crate) fn register(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "cryptext_gateway_admitted_total",
            "Requests that passed admission (straight in or after queueing)",
            &[],
            &self.admitted,
        );
        registry.register_counter(
            "cryptext_gateway_shed_queue_full_total",
            "Requests shed because the wait queue was full",
            &[],
            &self.shed_queue_full,
        );
        registry.register_counter(
            "cryptext_gateway_shed_draining_total",
            "Requests shed because the gateway was draining",
            &[],
            &self.shed_draining,
        );
        registry.register_counter(
            "cryptext_gateway_queue_deadline_expired_total",
            "Queued requests whose deadline expired before a slot freed",
            &[],
            &self.queue_deadline_expired,
        );
        registry.register_counter(
            "cryptext_gateway_executions_total",
            "Executions run on the caller's thread (leaders, promoted followers and uncoalesced calls)",
            &[],
            &self.executions,
        );
        registry.register_counter(
            "cryptext_gateway_retries_total",
            "Retry attempts across all requests",
            &[],
            &self.retries,
        );
        registry.register_counter(
            "cryptext_gateway_completed_ok_total",
            "Requests that returned Ok to their caller",
            &[],
            &self.completed_ok,
        );
        registry.register_counter(
            "cryptext_gateway_failed_total",
            "Admitted requests that returned an error, except followers whose wait timed out",
            &[],
            &self.failed,
        );
        registry.register_counter(
            "cryptext_gateway_deadline_exceeded_total",
            "Coalesced followers whose deadline expired while waiting on their leader",
            &[],
            &self.deadline_exceeded,
        );
        registry.register_counter(
            "cryptext_gateway_coalesced_followers_total",
            "Requests that attached to an in-flight leader instead of executing",
            &[],
            &self.coalesced_followers,
        );
        registry.register_counter(
            "cryptext_gateway_promoted_followers_total",
            "Followers promoted to leader after a retryable leader failure",
            &[],
            &self.promoted_followers,
        );
        for route in RouteClass::ALL {
            registry.register_histogram(
                "cryptext_gateway_queue_wait_us",
                "Admission queue wait per queued-then-admitted request (microseconds)",
                &[("route", route.name())],
                &self.queue_wait_us[route.index()],
            );
        }
        registry.register_gauge(
            "cryptext_gateway_active_now",
            "Requests executing right now, across all routes",
            &[],
            &self.active_now,
        );
        registry.register_gauge(
            "cryptext_gateway_queued_now",
            "Requests waiting in admission queues right now",
            &[],
            &self.queued_now,
        );
    }
}
