//! Admission control: bounded concurrency with a bounded wait queue.
//!
//! One [`RouteAdmission`] guards one route class. At most
//! `max_concurrent` requests hold execution [`Permit`]s; the next
//! `max_queued` wait on a condvar; everyone past that is shed
//! *immediately* with [`Error::Overloaded`] — the load-shedding contract
//! is that overload costs the excess a fast typed error, never the
//! admitted cohort unbounded queueing delay.
//!
//! Waits are deadline-bounded ([`Deadline`]) and drain-aware: once the
//! owning gateway flips its draining flag and wakes the lanes, every
//! queued waiter sheds with `Overloaded` rather than starting new work
//! on a service that is shutting down.
//!
//! Queue order is depth-bounded but not strictly FIFO: waiters race for
//! a freed slot on wakeup, which is the usual condvar admission shape
//! and keeps the fast path a single mutex acquire.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cryptext_common::{Error, Result};

use crate::deadline::{Deadline, WAIT_SLICE};
use crate::RouteBudget;

#[derive(Debug, Default)]
struct AdmState {
    active: usize,
    queued: usize,
}

/// Admission gate for one route class.
#[derive(Debug)]
pub struct RouteAdmission {
    budget: RouteBudget,
    state: Mutex<AdmState>,
    cv: Condvar,
}

/// A successfully acquired slot: the permit plus how long the request
/// queued first, if it did ([`None`] means a free slot admitted it
/// immediately — the gateway records the wait into its per-route
/// queue-wait histogram). The gateway folds this into its own
/// [`Admitted`](crate::gateway::Admitted) once authorization also
/// passes.
#[derive(Debug)]
pub(crate) struct Acquired {
    pub permit: Permit,
    pub queue_wait: Option<Duration>,
}

/// An execution slot on one route. Dropping it frees the slot and wakes
/// queued waiters; the gateway drops it once the request body has
/// finished and its flight is settled.
pub struct Permit {
    route: Arc<RouteAdmission>,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit").finish_non_exhaustive()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut st = lock(&self.route.state);
        st.active -= 1;
        drop(st);
        self.route.cv.notify_all();
    }
}

/// Lock that shrugs off poisoning: admission state is two counters whose
/// updates never unwind mid-change, and execution panics are caught by
/// the gateway's execution core, so a poisoned mutex here carries no torn
/// state.
fn lock<'a>(m: &'a Mutex<AdmState>) -> MutexGuard<'a, AdmState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl RouteAdmission {
    pub(crate) fn new(budget: RouteBudget) -> Arc<Self> {
        Arc::new(RouteAdmission {
            budget,
            state: Mutex::new(AdmState::default()),
            cv: Condvar::new(),
        })
    }

    /// Requests currently holding permits.
    pub fn active(&self) -> usize {
        lock(&self.state).active
    }

    /// Requests currently waiting for a permit.
    pub fn queued(&self) -> usize {
        lock(&self.state).queued
    }

    /// Wake every queued waiter so it re-checks the draining flag.
    pub(crate) fn wake_all(&self) {
        self.cv.notify_all();
    }

    /// Admit one request or shed it.
    ///
    /// * free slot → permit, immediately;
    /// * full slots, queue room → wait until a slot frees, the deadline
    ///   expires (`DeadlineExceeded`), or draining starts (`Overloaded`);
    /// * full slots, full queue (or already draining) → `Overloaded`
    ///   right now, with `shed_retry_after_ms` as the backoff hint.
    pub(crate) fn acquire(
        self: &Arc<Self>,
        deadline: &Deadline,
        draining: &AtomicBool,
        shed_retry_after_ms: u64,
    ) -> Result<Acquired> {
        let overloaded = || Error::Overloaded {
            retry_after_ms: shed_retry_after_ms,
        };
        let mut st = lock(&self.state);
        if draining.load(Ordering::Acquire) {
            return Err(overloaded());
        }
        if st.active < self.budget.max_concurrent {
            st.active += 1;
            return Ok(Acquired {
                permit: Permit {
                    route: Arc::clone(self),
                },
                queue_wait: None,
            });
        }
        if st.queued >= self.budget.max_queued {
            return Err(overloaded());
        }
        st.queued += 1;
        // Real time, not the (possibly simulated) request clock: the
        // queue-wait histogram measures actual condvar occupancy.
        let queued_at = Instant::now();
        loop {
            // Real-time slices so a frozen simulated clock cannot park
            // the wait past a notification (see `deadline` module docs).
            let (guard, _) = self
                .cv
                .wait_timeout(st, WAIT_SLICE)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if draining.load(Ordering::Acquire) {
                st.queued -= 1;
                return Err(overloaded());
            }
            if st.active < self.budget.max_concurrent {
                st.queued -= 1;
                st.active += 1;
                return Ok(Acquired {
                    permit: Permit {
                        route: Arc::clone(self),
                    },
                    queue_wait: Some(queued_at.elapsed()),
                });
            }
            if deadline.expired() {
                st.queued -= 1;
                return Err(Error::DeadlineExceeded {
                    budget_ms: deadline.budget_ms(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_common::{SimClock, SystemClock};

    fn deadline_ms(ms: u64) -> Deadline {
        Deadline::new(Arc::new(SystemClock), ms)
    }

    fn frozen_deadline() -> Deadline {
        // A frozen clock never expires the budget: waits end only via
        // notification or draining.
        Deadline::new(Arc::new(SimClock::new(0)), 1_000)
    }

    #[test]
    fn admits_up_to_concurrency_then_sheds_past_the_queue() {
        let route = RouteAdmission::new(RouteBudget::new(2, 1));
        let draining = AtomicBool::new(false);
        let d = frozen_deadline();

        let p1 = route.acquire(&d, &draining, 25).unwrap();
        let p2 = route.acquire(&d, &draining, 25).unwrap();
        assert!(p1.queue_wait.is_none() && p2.queue_wait.is_none());
        assert_eq!((route.active(), route.queued()), (2, 0));

        // Third would queue; occupy the queue slot from another thread,
        // then the fourth arrival must shed immediately.
        let route2 = Arc::clone(&route);
        let waiter = std::thread::spawn(move || {
            let draining = AtomicBool::new(false);
            route2.acquire(&frozen_deadline(), &draining, 25)
        });
        while route.queued() != 1 {
            std::thread::sleep(WAIT_SLICE);
        }
        match route.acquire(&d, &draining, 25) {
            Err(Error::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 25),
            other => panic!("expected shed, got {other:?}"),
        }

        // Freeing one slot admits the queued waiter.
        drop(p1.permit);
        let admitted = waiter.join().unwrap().unwrap();
        assert!(
            admitted.queue_wait.is_some(),
            "queued request records its wait"
        );
        assert_eq!((route.active(), route.queued()), (2, 0));
        drop(admitted.permit);
        drop(p2.permit);
        assert_eq!(route.active(), 0);
    }

    #[test]
    fn queued_wait_times_out_with_deadline_exceeded() {
        let route = RouteAdmission::new(RouteBudget::new(1, 4));
        let draining = AtomicBool::new(false);
        let _hold = route.acquire(&frozen_deadline(), &draining, 25).unwrap();
        let err = route
            .acquire(&deadline_ms(20), &draining, 25)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { budget_ms: 20 }));
        assert_eq!(route.queued(), 0, "timed-out waiter left the queue");
    }

    #[test]
    fn draining_sheds_new_arrivals_and_queued_waiters() {
        let route = RouteAdmission::new(RouteBudget::new(1, 4));
        let draining = Arc::new(AtomicBool::new(false));
        let hold = route.acquire(&frozen_deadline(), &draining, 25).unwrap();

        let (route2, draining2) = (Arc::clone(&route), Arc::clone(&draining));
        let queued = std::thread::spawn(move || {
            route2
                .acquire(&frozen_deadline(), &draining2, 25)
                .map(|_| ())
        });
        while route.queued() != 1 {
            std::thread::sleep(WAIT_SLICE);
        }

        draining.store(true, Ordering::Release);
        route.wake_all();
        assert!(matches!(
            queued.join().unwrap(),
            Err(Error::Overloaded { .. })
        ));
        assert!(matches!(
            route.acquire(&frozen_deadline(), &draining, 25).map(|_| ()),
            Err(Error::Overloaded { .. })
        ));
        drop(hold);
    }
}
