//! Per-request deadline budgets.
//!
//! A [`Deadline`] is created once at admission and threaded through every
//! layer; it measures time on the *service's* injected
//! [`Clock`], so gateway deadlines and the rate
//! limiter's windows share one notion of time (a simulated clock in
//! tests freezes both coherently).
//!
//! Blocking waits, by contrast, cannot sleep on the injected clock — a
//! frozen [`SimClock`](cryptext_common::SimClock) would park them
//! forever even when the event they wait for (a freed slot, a settled
//! flight) arrives via condvar notification. Every wait in this crate is
//! therefore a condvar loop over short **real-time** slices
//! (`WAIT_SLICE`) that re-checks the injected clock each wake: notified
//! progress is observed immediately, and expiry is observed within one
//! slice of the clock saying so.

use std::sync::Arc;
use std::time::Duration;

use cryptext_common::{Clock, Error, Result, Timestamp};

/// How long a blocking wait parks before re-checking its predicate and
/// the injected clock. Small enough that simulated-clock expiry is seen
/// promptly; large enough that a parked waiter costs ~no CPU.
pub(crate) const WAIT_SLICE: Duration = Duration::from_millis(2);

/// A request's time budget: a start instant on the injected clock plus a
/// span in milliseconds. Cheap to clone; clones share the clock.
#[derive(Clone)]
pub struct Deadline {
    clock: Arc<dyn Clock>,
    start: Timestamp,
    budget_ms: u64,
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("start", &self.start)
            .field("budget_ms", &self.budget_ms)
            .field("remaining_ms", &self.remaining_ms())
            .finish()
    }
}

impl Deadline {
    /// Start a budget of `budget_ms` now (on `clock`).
    pub fn new(clock: Arc<dyn Clock>, budget_ms: u64) -> Self {
        let start = clock.now();
        Deadline {
            clock,
            start,
            budget_ms,
        }
    }

    /// The granted budget, in milliseconds.
    pub fn budget_ms(&self) -> u64 {
        self.budget_ms
    }

    /// Milliseconds spent since the deadline started.
    pub fn elapsed_ms(&self) -> u64 {
        self.clock.now().saturating_sub(self.start)
    }

    /// Milliseconds of budget left (0 when expired).
    pub fn remaining_ms(&self) -> u64 {
        self.budget_ms.saturating_sub(self.elapsed_ms())
    }

    /// Has the budget run out?
    pub fn expired(&self) -> bool {
        self.remaining_ms() == 0
    }

    /// The cancellation probe shape the cancellable store walk consumes:
    /// `Some(DeadlineExceeded)` once expired, `None` while budget
    /// remains.
    pub fn probe(&self) -> Option<Error> {
        self.expired().then_some(Error::DeadlineExceeded {
            budget_ms: self.budget_ms,
        })
    }

    /// Layer-boundary check: `Err(DeadlineExceeded)` once expired.
    pub fn check(&self) -> Result<()> {
        match self.probe() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_common::SimClock;

    #[test]
    fn budget_counts_down_on_the_injected_clock() {
        let clock = SimClock::new(1_000);
        let d = Deadline::new(Arc::new(clock.clone()), 50);
        assert_eq!(d.remaining_ms(), 50);
        assert!(!d.expired());
        assert!(d.check().is_ok());

        clock.advance(49);
        assert_eq!(d.remaining_ms(), 1);
        assert!(d.probe().is_none());

        clock.advance(1);
        assert!(d.expired());
        assert!(matches!(
            d.probe(),
            Some(Error::DeadlineExceeded { budget_ms: 50 })
        ));
        assert!(d.check().is_err());
    }

    #[test]
    fn zero_budget_is_born_expired_and_overshoot_saturates() {
        let clock = SimClock::new(0);
        let d = Deadline::new(Arc::new(clock.clone()), 0);
        assert!(d.expired());
        clock.advance(10_000);
        assert_eq!(d.remaining_ms(), 0, "no underflow past expiry");
    }

    #[test]
    fn clones_share_the_clock_and_start() {
        let clock = SimClock::new(0);
        let d = Deadline::new(Arc::new(clock.clone()), 10);
        let d2 = d.clone();
        clock.advance(10);
        assert!(d.expired() && d2.expired(), "clones expire together");
    }
}
