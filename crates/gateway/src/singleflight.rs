//! Single-flight coalescing: duplicate in-flight work runs once.
//!
//! A [`SingleFlight`] group maps a request key (route + input hash + DB
//! generation, computed by the gateway) to the one **leader** executing
//! it. Duplicates arriving while the leader runs attach as **followers**
//! and receive the leader's exact result — `Ok` values are clones of the
//! same bytes (a leader nobody joined copies nothing), errors are
//! broadcast via
//! [`Error::duplicate`](cryptext_common::Error::duplicate) so a
//! non-`Clone` error still reaches every waiter with its category and
//! message intact.
//!
//! **Leader failure does not doom the cohort.** When a leader settles
//! with a retryable error (or with its own personal `DeadlineExceeded`)
//! while followers wait, the flight is left *abandoned* instead of
//! completed: exactly one follower promotes to leader and executes with
//! its own deadline and retry budget; the rest keep waiting on the new
//! leader. Only non-retryable errors (bad input, unauthorized) broadcast
//! — those would fail identically for every follower anyway.
//!
//! Waiting follows the crate-wide rule ([`crate::deadline`]): condvar
//! waits in real-time slices, expiry measured on the injected clock. A
//! follower whose deadline expires detaches ([`FollowerOutcome::TimedOut`])
//! without disturbing the flight.

use std::collections::hash_map::Entry;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cryptext_common::hash::FxHashMap;
use cryptext_common::{Error, Result};

use crate::deadline::{Deadline, WAIT_SLICE};

/// One coalescing group (the gateway keeps one per coalescable route).
pub struct SingleFlight<V> {
    flights: Mutex<FxHashMap<u64, Arc<Flight<V>>>>,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight {
            flights: Mutex::new(FxHashMap::default()),
        }
    }
}

impl<V> std::fmt::Debug for SingleFlight<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight")
            .field("in_flight", &lock(&self.flights).len())
            .finish()
    }
}

/// One in-flight execution that followers wait on.
pub struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

enum FlightState<V> {
    /// A leader is executing; `waiters` followers wait.
    Running { waiters: usize },
    /// The leader failed retryably; the next follower to wake claims
    /// leadership.
    Abandoned { waiters: usize },
    /// Final result, broadcast to every waiter.
    Done(Result<V>),
}

/// What [`SingleFlight::join`] made of the caller.
pub enum Join<V> {
    /// No duplicate in flight: the caller must execute and then
    /// `settle` the key.
    Leader,
    /// A leader is already executing; wait on the flight.
    Follower(Arc<Flight<V>>),
}

/// How a follower's wait ended.
pub enum FollowerOutcome<V> {
    /// The leader settled; this is its result (cloned value or
    /// duplicated error).
    Settled(Result<V>),
    /// The leader failed retryably and this follower was promoted: it
    /// must now execute and settle the key itself.
    Promoted,
    /// The follower's own deadline expired first.
    TimedOut,
}

/// How [`SingleFlight::settle`] disposed of the flight (stats/tests).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Settled {
    /// Result broadcast, flight retired.
    Done,
    /// Retryable failure with live waiters: flight left for promotion.
    Abandoned,
    /// No flight under the key (every follower already detached and the
    /// last one cleaned up).
    NoFlight,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clone an `Ok` for one more waiter, or duplicate the error so each
/// waiter owns a faithful copy.
fn duplicate_result<V: Clone>(r: &Result<V>) -> Result<V> {
    match r {
        Ok(v) => Ok(v.clone()),
        Err(e) => Err(e.duplicate()),
    }
}

/// Should a failed leader hand the flight to a follower instead of
/// broadcasting? Retryable errors, plus the leader's own deadline expiry
/// — a leader that ran out of *its* budget says nothing about the
/// followers' budgets.
fn promotes(e: &Error) -> bool {
    e.is_retryable() || matches!(e, Error::DeadlineExceeded { .. })
}

impl<V: Clone> SingleFlight<V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Join the flight for `key`: the first caller becomes the leader,
    /// later callers attach as followers. A leader **must** eventually
    /// `settle` the key, or followers wait out their
    /// deadlines.
    pub fn join(&self, key: u64) -> Join<V> {
        let mut map = lock(&self.flights);
        match map.entry(key) {
            Entry::Occupied(entry) => {
                let flight = Arc::clone(entry.get());
                // Register under the flight lock while still holding the
                // map lock (the same order `settle` uses), so the waiter
                // count can never miss a concurrent settle.
                match &mut *lock(&flight.state) {
                    FlightState::Running { waiters } | FlightState::Abandoned { waiters } => {
                        *waiters += 1
                    }
                    // Unreachable: settles remove the entry under the
                    // map lock before marking Done. Registering is still
                    // harmless — wait() returns the result immediately.
                    FlightState::Done(_) => {}
                }
                Join::Follower(flight)
            }
            Entry::Vacant(entry) => {
                entry.insert(Arc::new(Flight {
                    state: Mutex::new(FlightState::Running { waiters: 0 }),
                    cv: Condvar::new(),
                }));
                Join::Leader
            }
        }
    }

    /// Deliver the leader's final result for `key`.
    ///
    /// A promotable failure (see module docs) with followers still
    /// waiting leaves the flight abandoned for one of them to claim;
    /// anything else broadcasts and retires the flight. With no follower
    /// registered the flight just retires: nothing is copied, and the
    /// leader's value moves on to its own caller untouched. The map lock
    /// orders every `join` before this point, so no late follower can
    /// attach to a flight retired this way.
    pub(crate) fn settle(&self, key: u64, result: &Result<V>) -> Settled {
        let mut map = lock(&self.flights);
        let Some(flight) = map.get(&key).map(Arc::clone) else {
            return Settled::NoFlight;
        };
        let mut st = lock(&flight.state);
        let waiters = match *st {
            FlightState::Running { waiters } | FlightState::Abandoned { waiters } => waiters,
            FlightState::Done(_) => 0,
        };
        if let Err(e) = result {
            if promotes(e) && waiters > 0 {
                *st = FlightState::Abandoned { waiters };
                drop(st);
                drop(map);
                flight.cv.notify_all();
                return Settled::Abandoned;
            }
        }
        map.remove(&key);
        if waiters == 0 {
            return Settled::Done;
        }
        *st = FlightState::Done(duplicate_result(result));
        drop(st);
        drop(map);
        flight.cv.notify_all();
        Settled::Done
    }

    /// Wait on a flight joined as a follower.
    pub fn wait(&self, flight: &Arc<Flight<V>>, deadline: &Deadline) -> FollowerOutcome<V> {
        let mut st = lock(&flight.state);
        loop {
            match &mut *st {
                FlightState::Done(r) => return FollowerOutcome::Settled(duplicate_result(r)),
                FlightState::Abandoned { waiters } => {
                    // Claim leadership for this follower; the rest keep
                    // waiting on the (again-running) flight.
                    *st = FlightState::Running {
                        waiters: *waiters - 1,
                    };
                    return FollowerOutcome::Promoted;
                }
                FlightState::Running { waiters } => {
                    if deadline.expired() {
                        *waiters -= 1;
                        drop(st);
                        return FollowerOutcome::TimedOut;
                    }
                }
            }
            let (guard, _) = flight
                .cv
                .wait_timeout(st, WAIT_SLICE)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Flights currently in the map (tests/leak checks).
    pub fn in_flight(&self) -> usize {
        lock(&self.flights).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptext_common::{SimClock, SystemClock};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn frozen_deadline() -> Deadline {
        Deadline::new(Arc::new(SimClock::new(0)), 1_000)
    }

    /// Block until `n` followers are registered on `key`'s flight.
    fn await_waiters<V>(sf: &SingleFlight<V>, key: u64, n: usize) {
        loop {
            let map = lock(&sf.flights);
            let attached = map.get(&key).map(|f| match *lock(&f.state) {
                FlightState::Running { waiters } => waiters,
                _ => 0,
            });
            drop(map);
            if attached == Some(n) {
                return;
            }
            std::thread::sleep(WAIT_SLICE);
        }
    }

    /// A value that counts its clones, so a test can see what settling
    /// copies.
    #[derive(Debug)]
    struct Counted {
        bytes: Vec<u8>,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::SeqCst);
            Counted {
                bytes: self.bytes.clone(),
                clones: Arc::clone(&self.clones),
            }
        }
    }

    #[test]
    fn a_lone_leader_copies_nothing_and_followers_get_exact_clones() {
        let clones = Arc::new(AtomicUsize::new(0));
        let value = |bytes: &[u8]| Counted {
            bytes: bytes.to_vec(),
            clones: Arc::clone(&clones),
        };
        let sf: Arc<SingleFlight<Counted>> = Arc::new(SingleFlight::new());

        // Leader-only flight: settling retires it without a copy.
        assert!(matches!(sf.join(1), Join::Leader));
        let lone = Ok(value(b"lone"));
        assert_eq!(sf.settle(1, &lone), Settled::Done);
        assert_eq!(
            clones.load(Ordering::SeqCst),
            0,
            "no clone for a lone leader"
        );
        assert_eq!(sf.in_flight(), 0, "flight retired");
        assert!(matches!(sf.join(1), Join::Leader), "the key leads afresh");
        assert_eq!(sf.settle(1, &lone), Settled::Done);
        assert_eq!(clones.load(Ordering::SeqCst), 0);

        // With followers: each receives the leader's exact bytes.
        const FOLLOWERS: usize = 4;
        assert!(matches!(sf.join(2), Join::Leader));
        let handles: Vec<_> = (0..FOLLOWERS)
            .map(|_| {
                let sf = Arc::clone(&sf);
                std::thread::spawn(move || match sf.join(2) {
                    Join::Follower(flight) => match sf.wait(&flight, &frozen_deadline()) {
                        FollowerOutcome::Settled(r) => r.unwrap().bytes,
                        _ => panic!("follower expected a settled result"),
                    },
                    Join::Leader => panic!("leader already exists"),
                })
            })
            .collect();
        await_waiters(&sf, 2, FOLLOWERS);
        let shared = Ok(value(b"shared bytes"));
        assert_eq!(sf.settle(2, &shared), Settled::Done);
        for h in handles {
            assert_eq!(h.join().unwrap(), b"shared bytes");
        }
        assert_eq!(
            clones.load(Ordering::SeqCst),
            FOLLOWERS + 1,
            "one copy into the flight, one per follower"
        );
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn followers_receive_the_leaders_exact_value() {
        let sf: Arc<SingleFlight<Vec<u8>>> = Arc::new(SingleFlight::new());
        assert!(matches!(sf.join(7), Join::Leader));

        let mut handles = Vec::new();
        for _ in 0..3 {
            let sf = Arc::clone(&sf);
            handles.push(std::thread::spawn(move || match sf.join(7) {
                Join::Follower(flight) => match sf.wait(&flight, &frozen_deadline()) {
                    FollowerOutcome::Settled(r) => r.unwrap(),
                    _ => panic!("follower expected a settled result"),
                },
                Join::Leader => panic!("leader already exists"),
            }));
        }
        // Let every follower attach before settling.
        await_waiters(&sf, 7, 3);
        assert_eq!(sf.settle(7, &Ok(vec![1, 2, 3])), Settled::Done);
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![1, 2, 3]);
        }
        assert_eq!(sf.in_flight(), 0, "settled flight retired");
    }

    #[test]
    fn non_retryable_errors_broadcast_as_duplicates() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        assert!(matches!(sf.join(1), Join::Leader));
        let sf2 = Arc::clone(&sf);
        let follower = std::thread::spawn(move || match sf2.join(1) {
            Join::Follower(flight) => match sf2.wait(&flight, &frozen_deadline()) {
                FollowerOutcome::Settled(r) => r,
                _ => panic!("expected settled"),
            },
            Join::Leader => panic!("leader already exists"),
        });
        // Settle only once the follower has attached: one that joined
        // after the flight retired would lead a flight of its own.
        await_waiters(&sf, 1, 1);
        let err = Error::InvalidArgument("k too large".into());
        assert_eq!(sf.settle(1, &Err(err)), Settled::Done);
        match follower.join().unwrap() {
            Err(Error::InvalidArgument(msg)) => assert_eq!(msg, "k too large"),
            other => panic!("expected duplicated InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    fn retryable_leader_failure_promotes_exactly_one_follower() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        assert!(matches!(sf.join(9), Join::Leader));

        let mut handles = Vec::new();
        for _ in 0..2 {
            let sf = Arc::clone(&sf);
            handles.push(std::thread::spawn(move || match sf.join(9) {
                Join::Follower(flight) => match sf.wait(&flight, &frozen_deadline()) {
                    FollowerOutcome::Promoted => {
                        // The promoted follower executes and settles.
                        assert_eq!(sf.settle(9, &Ok(77)), Settled::Done);
                        ("promoted", 77)
                    }
                    FollowerOutcome::Settled(r) => ("settled", r.unwrap()),
                    FollowerOutcome::TimedOut => panic!("unexpected timeout"),
                },
                Join::Leader => panic!("leader already exists"),
            }));
        }
        await_waiters(&sf, 9, 2);

        let overloaded = Error::Overloaded { retry_after_ms: 5 };
        assert_eq!(sf.settle(9, &Err(overloaded)), Settled::Abandoned);

        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let promoted = outcomes
            .iter()
            .filter(|(role, _)| *role == "promoted")
            .count();
        assert_eq!(promoted, 1, "exactly one follower claims leadership");
        assert!(outcomes.iter().all(|&(_, v)| v == 77));
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn retryable_failure_with_no_waiters_just_retires_the_flight() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        assert!(matches!(sf.join(3), Join::Leader));
        let err = Error::Overloaded { retry_after_ms: 5 };
        assert_eq!(sf.settle(3, &Err(err)), Settled::Done);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn follower_deadline_detaches_without_disturbing_the_flight() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        assert!(matches!(sf.join(4), Join::Leader));
        let flight = match sf.join(4) {
            Join::Follower(f) => f,
            Join::Leader => panic!("leader already exists"),
        };
        let short = Deadline::new(Arc::new(SystemClock), 10);
        assert!(matches!(
            sf.wait(&flight, &short),
            FollowerOutcome::TimedOut
        ));
        // The leader is unaffected and can still settle for nobody.
        assert_eq!(sf.settle(4, &Ok(1)), Settled::Done);
    }
}
