//! # cryptext-common
//!
//! Shared infrastructure for the CrypText workspace.
//!
//! This crate deliberately has no heavyweight dependencies; it provides the
//! small building blocks every other crate needs:
//!
//! * [`error`] — the workspace-wide [`Error`] type and
//!   [`Result`] alias.
//! * [`hash`] — an Fx-style fast hasher plus [`FxHashMap`]
//!   / [`FxHashSet`] aliases (database-style hot maps should
//!   not pay SipHash costs).
//! * [`rng`] — deterministic, seedable PRNG ([`SplitMix64`])
//!   and sampling helpers used wherever reproducibility matters.
//! * [`clock`] — a simulated clock for the social-stream substrate and cache
//!   TTL logic, so tests never depend on wall time.
//! * [`interner`] — a thread-safe string interner used by the token database.
//! * [`par`] — order-preserving parallel map over scoped threads, backing
//!   the bulk service endpoints and parallel corpus ingest.
//! * [`failpoint`] — deterministic fault injection for durability tests
//!   (kill / torn-write at named crash boundaries).
//! * [`metrics`] — the workspace-wide observability layer: lock-free
//!   counters, gauges, and log-scale latency histograms behind one
//!   [`MetricsRegistry`], rendered as
//!   Prometheus text by the HTTP layer.

#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod failpoint;
pub mod hash;
pub mod interner;
pub mod jsonfmt;
pub mod metrics;
pub mod par;
pub mod rng;

pub use clock::{system_clock, Clock, SimClock, SystemClock, TimeRange, Timestamp};
pub use error::{Error, Result};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use interner::{Interner, Symbol};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use rng::SplitMix64;
