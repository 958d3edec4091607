//! Integration: the service gateway under synthetic overload — shed, not
//! collapse.
//!
//! Every test drives the public `cryptext::gateway` surface over a real
//! `CryptextService` and asserts the robustness contract end to end:
//!
//! * a 10× admission storm sheds the excess *fast* with typed
//!   [`Error::Overloaded`] while the admitted cohort's results stay
//!   byte-identical to a direct service call;
//! * duplicate in-flight requests coalesce to one execution and share the
//!   leader's exact bytes; a retryably-failing leader promotes exactly one
//!   follower; a non-retryable failure broadcasts;
//! * deadlines are respected in the admission queue, before any work, and
//!   mid-store-walk;
//! * a token revoked while requests sit in the admission queue rejects
//!   them deterministically at dequeue;
//! * rate-limited clients fail fast with a typed, honest
//!   [`Error::RateLimited`] hint — no retry budget is burned on them;
//! * a chaos-armed graceful drain (flush killed by failpoint) still
//!   quiesces in-flight work, sheds new arrivals, and loses zero committed
//!   batches: the durable store reopens to the full committed prefix.
//!
//! CI re-runs this binary under `CRYPTEXT_FAILPOINTS` arms for the
//! gateway's own failpoints (`gateway.execute=delay@1:5`,
//! `gateway.drain.flush=kill@1`). The assertions below hold under those
//! arms by construction: delays only stretch wall-clock time (deadlines in
//! these tests ride a frozen simulated clock), and the drain test expects
//! the flush kill already.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cryptext::common::metrics::MetricsSnapshot;
use cryptext::common::{failpoint, Error, SimClock};
use cryptext::core::database::TokenDatabase;
use cryptext::core::durable::{DurableOptions, DurableTokenStore};
use cryptext::core::lookup::LookupHit;
use cryptext::core::service::{ApiToken, CryptextService, ServiceConfig};
use cryptext::core::{CrypText, LookupParams};
use cryptext::gateway::{
    CallOptions, Gateway, GatewayConfig, Request, RouteBudget, RouteClass, RouteOutput,
    SingleFlight,
};

/// Poll cadence for test choreography; matches the gateway's internal
/// wait slice closely enough that conditions are observed promptly.
const TICK: Duration = Duration::from_millis(2);

/// Generous bound for any single choreography step (single-core debug CI).
const STEP_TIMEOUT: Duration = Duration::from_secs(20);

/// A paper-default Look Up of `word` through `Gateway::handle`, unwrapped
/// to its hits.
fn look_up(gw: &Gateway, auth: &ApiToken, word: &str) -> Result<Vec<LookupHit>, Error> {
    let req = Request::lookup(word, LookupParams::paper_default());
    gw.handle(auth, req).map(|resp| match resp.output {
        RouteOutput::Lookup(hits) => hits,
        other => panic!("a lookup request answered {other:?}"),
    })
}

/// A gateway counter by metric name, `cryptext_gateway_<what>_total`.
fn count(s: &MetricsSnapshot, what: &str) -> u64 {
    s.counter_total(&format!("cryptext_gateway_{what}_total"))
}

/// A gateway gauge by metric name, `cryptext_gateway_<what>`.
fn gauge(s: &MetricsSnapshot, what: &str) -> i64 {
    s.gauge(&format!("cryptext_gateway_{what}"))
        .expect("registered")
}

/// Queue-wait observations for one route, read from the workspace
/// metrics registry (the per-route histogram the gateway records into;
/// `/stats` reports the sum of these counts as `queue_waits`).
fn queue_waits_on(gw: &Gateway<TokenDatabase>, route: &str) -> u64 {
    gw.metrics().snapshot().histogram_count_labeled(
        "cryptext_gateway_queue_wait_us",
        "route",
        route,
    )
}

/// Spin until `cond` holds or fail the test with `what`.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < STEP_TIMEOUT,
            "timed out waiting for {what}"
        );
        std::thread::sleep(TICK);
    }
}

/// A one-shot gate: request closures park on it so tests can line up
/// admission states before letting any work finish.
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Latch {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let start = Instant::now();
        let mut open = self.open.lock().unwrap();
        while !*open {
            assert!(start.elapsed() < STEP_TIMEOUT, "latch never opened");
            let (guard, _) = self.cv.wait_timeout(open, TICK).unwrap();
            open = guard;
        }
    }
}

/// A service over a small fixed corpus on a frozen simulated clock, so
/// deadlines never expire unless a test advances time on purpose.
fn test_service(limit: u32) -> (Arc<CryptextService<TokenDatabase>>, SimClock) {
    let mut db = TokenDatabase::in_memory();
    for text in [
        "the dirrty republicans",
        "thee dirty repubLIEcans",
        "the dirty republic@@ns",
        "vaccine vacc1ne vaxxine mandates",
        "democrats demokkkrats dem0crats",
    ] {
        db.ingest_text(text);
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
    (Arc::new(svc), clock)
}

#[test]
fn a_10x_storm_sheds_fast_and_serves_the_admitted_byte_identically() {
    // Lane capacity 4 (2 executing + 2 queued); 40 requests is a 10×
    // storm. The excess 36 must shed immediately with a typed hint; the
    // admitted 4 must see exactly the bytes a direct call returns.
    let (svc, _) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> = Arc::new(Gateway::new(
        Arc::clone(&svc),
        GatewayConfig {
            lookup: RouteBudget::new(2, 2),
            shed_retry_after_ms: 25,
            ..GatewayConfig::default()
        },
    ));
    let auth = svc.issue_token("storm");
    let direct = svc
        .look_up(&auth, "republicans", LookupParams::paper_default())
        .unwrap();

    let latch = Latch::new();
    let mut handles = Vec::new();
    for _ in 0..40 {
        let (gw, auth, latch) = (Arc::clone(&gw), auth.clone(), Arc::clone(&latch));
        handles.push(std::thread::spawn(move || {
            gw.call(
                RouteClass::Lookup,
                &auth,
                CallOptions::default(),
                move |svc, _| {
                    latch.wait();
                    svc.look_up_prechecked_traced(
                        "republicans",
                        LookupParams::paper_default(),
                        &mut || None,
                    )
                    .map(|(hits, _)| hits)
                },
            )
        }));
    }

    // Saturation point: both execution slots held, both queue seats taken,
    // and all 36 excess arrivals already shed — none of them is waiting.
    eventually("storm saturation", || {
        let s = gw.stats();
        count(&s, "shed_queue_full") == 36
            && gauge(&s, "active_now") == 2
            && gauge(&s, "queued_now") == 2
    });
    latch.open();

    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(hits) => {
                assert_eq!(hits, direct, "admitted result must match the direct call");
                ok += 1;
            }
            Err(Error::Overloaded { retry_after_ms }) => {
                assert_eq!(retry_after_ms, 25, "shed carries the configured hint");
                shed += 1;
            }
            Err(e) => panic!("storm produced an unexpected error: {e}"),
        }
    }
    assert_eq!((ok, shed), (4, 36), "capacity admitted, the excess shed");

    let s = gw.stats();
    assert_eq!(count(&s, "admitted"), 4);
    assert_eq!(count(&s, "completed_ok"), 4);
    assert_eq!(
        queue_waits_on(&gw, "lookup"),
        2,
        "both queue seats were eventually served (per-route histogram)"
    );
    assert_eq!(
        s.histogram_count("cryptext_gateway_queue_wait_us"),
        2,
        "the all-route total `/stats` reports as queue_waits"
    );
    assert_eq!(
        count(&s, "retries"),
        0,
        "shed is pre-retry: no budget burned on the excess"
    );
    assert_eq!((gauge(&s, "active_now"), gauge(&s, "queued_now")), (0, 0));
}

#[test]
fn coalesced_duplicates_execute_once_and_share_exact_bytes() {
    let (svc, _) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("dup");
    let direct = svc
        .look_up(&auth, "democrats", LookupParams::paper_default())
        .unwrap();

    let flights: Arc<SingleFlight<Vec<LookupHit>>> = Arc::new(SingleFlight::new());
    let latch = Latch::new();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let (gw, auth, latch, flights) = (
            Arc::clone(&gw),
            auth.clone(),
            Arc::clone(&latch),
            Arc::clone(&flights),
        );
        handles.push(std::thread::spawn(move || {
            gw.call_coalesced(
                RouteClass::Lookup,
                0xC0A1E5CE,
                &auth,
                CallOptions::default(),
                &flights,
                move |svc, _| {
                    latch.wait();
                    svc.look_up_prechecked_traced(
                        "democrats",
                        LookupParams::paper_default(),
                        &mut || None,
                    )
                    .map(|(hits, _)| hits)
                },
            )
        }));
    }

    // The leader parks on the latch; the other seven must attach to its
    // flight rather than execute.
    eventually("seven followers attached", || {
        count(&gw.stats(), "coalesced_followers") == 7
    });
    latch.open();

    for h in handles {
        let hits = h.join().unwrap().expect("coalesced lookup succeeds");
        assert_eq!(hits, direct, "followers get the leader's exact bytes");
    }
    let s = gw.stats();
    assert_eq!(count(&s, "executions"), 1, "eight requests, one execution");
    assert_eq!(
        count(&s, "admitted"),
        8,
        "every caller was admitted and charged"
    );
    assert_eq!(count(&s, "completed_ok"), 8);
    assert_eq!(count(&s, "promoted_followers"), 0);
}

#[test]
fn a_retryably_failing_leader_promotes_exactly_one_follower() {
    let (svc, _) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("promote");

    let flights: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
    let executions = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let (gw, auth, flights, executions) = (
            Arc::clone(&gw),
            auth.clone(),
            Arc::clone(&flights),
            Arc::clone(&executions),
        );
        let gw_for_body = Arc::clone(&gw);
        handles.push(std::thread::spawn(move || {
            gw.call_coalesced(
                RouteClass::Perturb,
                7,
                &auth,
                // No self-retries: the leader's failure must surface so the
                // *promotion* path (a follower re-executes) carries the
                // retry, not the leader's own loop.
                CallOptions::default().no_retries(),
                &flights,
                move |_, _| {
                    if executions.fetch_add(1, Ordering::SeqCst) == 0 {
                        // First execution is the leader: hold until the
                        // follower has attached, then fail retryably.
                        let start = Instant::now();
                        while count(&gw_for_body.stats(), "coalesced_followers") == 0 {
                            if start.elapsed() > STEP_TIMEOUT {
                                return Err(Error::Internal("no follower attached".into()));
                            }
                            std::thread::sleep(TICK);
                        }
                        Err(Error::Overloaded { retry_after_ms: 1 })
                    } else {
                        Ok(42)
                    }
                },
            )
        }));
    }

    let mut outcomes: Vec<Result<u32, Error>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    outcomes.sort_by_key(|r| r.is_ok());
    assert!(
        matches!(outcomes[0], Err(Error::Overloaded { .. })),
        "the leader surfaces its own failure: {:?}",
        outcomes[0]
    );
    assert_eq!(
        *outcomes[1].as_ref().unwrap(),
        42,
        "the promoted follower re-executes and succeeds"
    );
    let s = gw.stats();
    assert_eq!(count(&s, "coalesced_followers"), 1);
    assert_eq!(count(&s, "promoted_followers"), 1, "exactly one promotion");
    assert_eq!(
        count(&s, "executions"),
        2,
        "leader attempt + promoted attempt"
    );
    assert_eq!(executions.load(Ordering::SeqCst), 2);
}

#[test]
fn a_non_retryable_leader_failure_broadcasts_to_the_cohort() {
    let (svc, _) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("broadcast");

    let flights: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
    let latch = Latch::new();
    let mut handles = Vec::new();
    for _ in 0..3 {
        let (gw, auth, flights, latch) = (
            Arc::clone(&gw),
            auth.clone(),
            Arc::clone(&flights),
            Arc::clone(&latch),
        );
        handles.push(std::thread::spawn(move || {
            // The lookup lane: wide enough (concurrency 8) that all three
            // callers hold permits at once — followers keep their permit
            // while they wait on the leader.
            gw.call_coalesced(
                RouteClass::Lookup,
                9,
                &auth,
                CallOptions::default(),
                &flights,
                move |_, _| -> Result<u32, Error> {
                    latch.wait();
                    Err(Error::InvalidArgument("bad dimensions".into()))
                },
            )
        }));
    }
    eventually("two followers attached", || {
        count(&gw.stats(), "coalesced_followers") == 2
    });
    latch.open();

    for h in handles {
        assert!(
            matches!(h.join().unwrap(), Err(Error::InvalidArgument(_))),
            "a deterministic failure is shared, not re-executed"
        );
    }
    let s = gw.stats();
    assert_eq!(
        count(&s, "executions"),
        1,
        "nobody re-runs a non-retryable failure"
    );
    assert_eq!(count(&s, "promoted_followers"), 0);
    assert_eq!(count(&s, "failed"), 3);
}

#[test]
fn an_already_expired_deadline_is_rejected_before_any_work() {
    let (svc, _) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("expired");
    let ran = Arc::new(AtomicUsize::new(0));

    let ran2 = Arc::clone(&ran);
    let out: Result<u32, Error> = gw.call(
        RouteClass::Lookup,
        &auth,
        CallOptions::with_deadline_ms(0),
        move |_, _| {
            ran2.fetch_add(1, Ordering::SeqCst);
            Ok(1)
        },
    );
    assert!(matches!(out, Err(Error::DeadlineExceeded { budget_ms: 0 })));
    assert_eq!(ran.load(Ordering::SeqCst), 0, "the body never ran");
    eventually("slot released", || gauge(&gw.stats(), "active_now") == 0);
}

#[test]
fn an_expired_deadline_cancels_the_store_walk_mid_flight() {
    // The clock expires *inside* the request body — the cancellable walk
    // must notice via its per-candidate probe and abort with the typed
    // deadline error rather than finishing the scan.
    let (svc, clock) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("walker");

    let out = gw.call(
        RouteClass::Lookup,
        &auth,
        CallOptions::with_deadline_ms(40).no_retries(),
        move |svc, deadline| {
            // Burn the whole budget before the walk starts; the first
            // probe consulted during the walk then fires.
            clock.advance(40);
            svc.look_up_prechecked_traced("republicans", LookupParams::new(1, 2), &mut || {
                deadline.probe()
            })
            .map(|(hits, _)| hits)
        },
    );
    assert!(
        matches!(out, Err(Error::DeadlineExceeded { budget_ms: 40 })),
        "walk aborted mid-flight: {out:?}"
    );
}

#[test]
fn revocation_races_queued_requests_and_rejects_them_at_dequeue() {
    // One slot, two queue seats. A request is mid-execution and two more
    // are queued when the token is revoked: the in-flight one (already
    // authorized) completes; both queued ones hit authorization at
    // dequeue and are rejected deterministically — no panic, no partial
    // result.
    let (svc, _) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> = Arc::new(Gateway::new(
        Arc::clone(&svc),
        GatewayConfig {
            lookup: RouteBudget::new(1, 2),
            ..GatewayConfig::default()
        },
    ));
    let auth = svc.issue_token("revocable");
    let direct = svc
        .look_up(&auth, "vaccine", LookupParams::paper_default())
        .unwrap();

    let latch = Latch::new();
    let mut handles = Vec::new();
    for _ in 0..3 {
        let (gw2, auth2, latch2) = (Arc::clone(&gw), auth.clone(), Arc::clone(&latch));
        handles.push(std::thread::spawn(move || {
            gw2.call(
                RouteClass::Lookup,
                &auth2,
                CallOptions::default(),
                move |svc, _| {
                    latch2.wait();
                    svc.look_up_prechecked_traced(
                        "vaccine",
                        LookupParams::paper_default(),
                        &mut || None,
                    )
                    .map(|(hits, _)| hits)
                },
            )
        }));
        // Admit the first request before the others arrive, so exactly
        // one is authorized pre-revocation and two sit in the queue.
        eventually("first request executing", || {
            gauge(&gw.stats(), "active_now") == 1
        });
    }
    eventually("two requests queued", || {
        gauge(&gw.stats(), "queued_now") == 2
    });

    svc.revoke_token(&auth);
    latch.open();

    let (mut ok, mut unauthorized) = (0, 0);
    for h in handles {
        match h.join().unwrap() {
            Ok(hits) => {
                assert_eq!(hits, direct, "the pre-revocation request is whole");
                ok += 1;
            }
            Err(Error::Unauthorized(_)) => unauthorized += 1,
            Err(e) => panic!("unexpected error in revocation race: {e}"),
        }
    }
    assert_eq!(
        (ok, unauthorized),
        (1, 2),
        "in-flight completes, queued requests reject at dequeue"
    );
    assert_eq!(
        count(&gw.stats(), "admitted"),
        3,
        "all three passed admission"
    );
    let s = gw.stats();
    assert_eq!((gauge(&s, "active_now"), gauge(&s, "queued_now")), (0, 0));
}

#[test]
fn rate_limited_requests_fail_fast_with_an_honest_typed_hint() {
    let (svc, clock) = test_service(3);
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("bursty");

    let (mut ok, mut limited) = (0, 0);
    for _ in 0..5 {
        match look_up(&gw, &auth, "vaccine") {
            Ok(_) => ok += 1,
            Err(e @ Error::RateLimited { retry_after_ms }) => {
                // The frozen clock sits at window start: the full window
                // remains, and the hint says exactly that.
                assert_eq!(retry_after_ms, 60_000);
                assert!(e.is_retryable(), "callers may back off and retry");
                limited += 1;
            }
            Err(e) => panic!("unexpected error under rate limiting: {e}"),
        }
    }
    assert_eq!((ok, limited), (3, 2));
    assert_eq!(
        count(&gw.stats(), "retries"),
        0,
        "rate limiting rejects at the auth layer — the gateway must not \
         burn its own retry budget against a depleted window"
    );

    // The hint is honest: advancing exactly one window refills.
    clock.advance(60_000);
    assert!(look_up(&gw, &auth, "vaccine").is_ok());
}

#[test]
fn chaos_drain_quiesces_sheds_and_loses_no_committed_batches() {
    let armed_env = std::env::var(failpoint::ENV_VAR).is_ok_and(|v| !v.trim().is_empty());
    let posts: Vec<String> = (0..30)
        .map(|i| match i % 4 {
            0 => format!("the dirrty republicans round {i}"),
            1 => "thee dirty repubLIEcans".to_string(),
            2 => format!("vacc1ne mandate pushback {i}"),
            _ => "democrats demokkkrats dem0crats".to_string(),
        })
        .collect();

    // Reference: the same posts into a plain in-memory store.
    let mut reference = TokenDatabase::in_memory();
    for p in &posts {
        reference.ingest_text(p);
    }
    let reference = reference.stats();

    // The durable store the drain flush targets: one committed batch per
    // post, fsync deferred so the final flush actually has work to do.
    let dir = std::env::temp_dir().join(format!(
        "cryptext-overload-drain-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DurableTokenStore::<TokenDatabase>::open(
        &dir,
        DurableOptions {
            shards: 1,
            sync_every_batch: false,
        },
    )
    .expect("clean open");
    for p in &posts {
        if let Err(e) = store.try_ingest_text(p) {
            // A broad env arm (e.g. `*=kill@N`) can reach the ingest
            // boundaries; that plane is fault_injection.rs's subject.
            assert!(
                armed_env && failpoint::is_injected(&e),
                "ingest failed: {e}"
            );
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    }

    let (svc, _) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> = Arc::new(Gateway::new(
        Arc::clone(&svc),
        GatewayConfig {
            drain_deadline_ms: 15_000,
            ..GatewayConfig::default()
        },
    ));
    let auth = svc.issue_token("ops");

    // One slow request in flight when the drain begins.
    let latch = Latch::new();
    let slow = {
        let (gw, auth, latch) = (Arc::clone(&gw), auth.clone(), Arc::clone(&latch));
        std::thread::spawn(move || {
            gw.call(
                RouteClass::Perturb,
                &auth,
                CallOptions::default(),
                move |_, _| {
                    latch.wait();
                    Ok(11u32)
                },
            )
        })
    };
    eventually("slow request in flight", || {
        gauge(&gw.stats(), "active_now") == 1
    });

    // A sidecar proves the drain sheds new arrivals *while* it waits for
    // the slow request, then lets that request finish.
    let sidecar = {
        let (gw, auth, latch) = (Arc::clone(&gw), auth.clone(), Arc::clone(&latch));
        std::thread::spawn(move || {
            let start = Instant::now();
            while !gw.is_draining() {
                assert!(start.elapsed() < STEP_TIMEOUT, "drain never began");
                std::thread::sleep(TICK);
            }
            let shed = gw.call(RouteClass::Lookup, &auth, CallOptions::default(), |_, _| {
                Ok(0u32)
            });
            assert!(
                matches!(shed, Err(Error::Overloaded { .. })),
                "arrivals during drain are shed: {shed:?}"
            );
            latch.open();
        })
    };

    // Chaos arm: the flush boundary dies. The drain must still report
    // faithfully — and the store must still recover every committed batch,
    // because batch commits hit the delta log before any flush runs.
    let _guard = failpoint::arm("gateway.drain.flush", "kill@1");
    let report = gw.drain_with(|| store.sync());
    assert!(
        report.quiesced,
        "in-flight work finished under the drain deadline"
    );
    assert_eq!(report.in_flight_at_flush, 0);
    let flush_err = report.flush_error.expect("the armed flush must fail");
    assert!(
        failpoint::is_injected(&flush_err),
        "only the injected fault: {flush_err}"
    );

    assert_eq!(
        slow.join().unwrap().unwrap(),
        11,
        "drain waited for in-flight work"
    );
    sidecar.join().unwrap();
    assert!(count(&gw.stats(), "shed_draining") >= 1);

    // Zero committed-batch loss: reopening lands on the full committed
    // prefix even though the final sync was killed.
    drop(store);
    let reopened = DurableTokenStore::<TokenDatabase>::open(
        &dir,
        DurableOptions {
            shards: 1,
            sync_every_batch: false,
        },
    )
    .expect("recovery open");
    assert_eq!(
        reopened.inner().stats(),
        reference,
        "every committed batch survived the killed flush"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    // And the gateway recovers: admissions reopen after the drain.
    gw.end_drain();
    assert!(look_up(&gw, &auth, "vaccine").is_ok());
}

#[test]
fn a_mixed_hit_miss_storm_accounts_queue_waits_only_for_queued_hits() {
    // The tiered result cache sits *behind* admission and single-flight
    // (admission → single-flight → cache → engine), so a warm hit is
    // admitted like any request — it just executes in microseconds. This
    // storm mixes warm hits with a latched cold-key miss and pins the
    // accounting: hits that found a free slot leave no queue-wait marks,
    // hits that physically queued behind the cold leader are counted
    // exactly once, and coalesced followers on the cold key still receive
    // the leader's exact bytes (served on settle, never re-executed).
    let (svc, _) = test_service(1_000_000);
    let gw: Arc<Gateway<TokenDatabase>> = Arc::new(Gateway::new(
        Arc::clone(&svc),
        GatewayConfig {
            lookup: RouteBudget::new(2, 2),
            shed_retry_after_ms: 25,
            ..GatewayConfig::default()
        },
    ));
    let auth = svc.issue_token("mix");

    // Warm two hot keys through the gateway itself (direct service calls
    // would fill the same cache and skew the counts below). Both are
    // engine misses that fill tier-1; the lane is empty, so no waits.
    let hot_r = look_up(&gw, &auth, "republicans").unwrap();
    let hot_d = look_up(&gw, &auth, "democrats").unwrap();
    let warmed = svc.cache_stats();
    assert_eq!((warmed.hits, warmed.misses), (0, 2));
    assert_eq!(queue_waits_on(&gw, "lookup"), 0, "warming found free slots");

    // Cold key: a latched leader occupies one execution slot...
    let flights: Arc<SingleFlight<Vec<LookupHit>>> = Arc::new(SingleFlight::new());
    let latch = Latch::new();
    let cold_caller = |gw: &Arc<Gateway<TokenDatabase>>| {
        let (gw, auth, latch, flights) = (
            Arc::clone(gw),
            auth.clone(),
            Arc::clone(&latch),
            Arc::clone(&flights),
        );
        std::thread::spawn(move || {
            gw.call_coalesced(
                RouteClass::Lookup,
                0x0C01DCA11,
                &auth,
                CallOptions::default(),
                &flights,
                move |svc, _| {
                    latch.wait();
                    svc.look_up_prechecked_traced(
                        "vaccine",
                        LookupParams::paper_default(),
                        &mut || None,
                    )
                    .map(|(hits, _)| hits)
                },
            )
        })
    };
    let leader = cold_caller(&gw);
    eventually("cold leader executing", || {
        gauge(&gw.stats(), "active_now") == 1
    });

    // ...a duplicate attaches to its flight from the second slot...
    let follower = cold_caller(&gw);
    eventually("cold follower attached", || {
        count(&gw.stats(), "coalesced_followers") == 1
    });

    // ...and two warm hits arrive behind it, one per hot key (distinct
    // coalescing keys, so neither attaches to the other): both must take
    // queue seats — a hit is admitted like any request.
    let warm_caller = |token: &str| {
        let (gw, auth, token) = (Arc::clone(&gw), auth.clone(), token.to_string());
        std::thread::spawn(move || look_up(&gw, &auth, &token))
    };
    let queued_r = warm_caller("republicans");
    eventually("first warm hit queued", || {
        gauge(&gw.stats(), "queued_now") == 1
    });
    let queued_d = warm_caller("democrats");
    eventually("second warm hit queued", || {
        gauge(&gw.stats(), "queued_now") == 2
    });

    // Lane saturated (2 executing + 2 queued): further warm hits shed
    // immediately — a cached result does not bypass admission control.
    let shed: Vec<_> = (0..4)
        .map(|i| {
            warm_caller(if i % 2 == 0 {
                "republicans"
            } else {
                "democrats"
            })
        })
        .collect();
    eventually("excess warm hits shed", || {
        count(&gw.stats(), "shed_queue_full") == 4
    });
    assert_eq!(
        queue_waits_on(&gw, "lookup"),
        0,
        "nothing has finished a queue wait while the leader holds its slot"
    );
    assert_eq!(svc.cache_stats().hits, 0, "queued hits have not executed");

    latch.open();

    // Cold cohort: leader computes once, follower gets the exact bytes.
    let leader_hits = leader.join().unwrap().expect("cold leader succeeds");
    let follower_hits = follower.join().unwrap().expect("cold follower succeeds");
    assert_eq!(
        follower_hits, leader_hits,
        "follower gets the leader's exact bytes on the cold key"
    );

    // Queued warm hits drain through the freed slots and serve from cache.
    assert_eq!(queued_r.join().unwrap().unwrap(), hot_r);
    assert_eq!(queued_d.join().unwrap().unwrap(), hot_d);
    for h in shed {
        match h.join().unwrap() {
            Err(Error::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 25),
            other => panic!("saturated lane must shed: {other:?}"),
        }
    }

    let s = gw.stats();
    assert_eq!(
        queue_waits_on(&gw, "lookup"),
        2,
        "exactly the two queued warm hits are accounted as waits"
    );
    for other in ["normalize", "perturb"] {
        assert_eq!(
            queue_waits_on(&gw, other),
            0,
            "no waits bleed into the {other} lane"
        );
    }
    assert_eq!(
        s.histogram_count("cryptext_gateway_queue_wait_us"),
        2,
        "the all-route total `/stats` reports as queue_waits"
    );
    assert_eq!(
        count(&s, "executions"),
        5,
        "2 warmups + cold leader + 2 queued hits"
    );
    assert_eq!(count(&s, "coalesced_followers"), 1);
    assert_eq!(count(&s, "promoted_followers"), 0);
    assert_eq!(count(&s, "admitted"), 6, "warmups, cold pair, queued hits");
    assert_eq!(count(&s, "completed_ok"), 6);
    assert_eq!(count(&s, "shed_queue_full"), 4);
    assert_eq!((gauge(&s, "active_now"), gauge(&s, "queued_now")), (0, 0));

    let c = svc.cache_stats();
    assert_eq!(c.misses, 3, "two warmups plus the cold leader");
    assert_eq!(c.hits, 2, "both queued requests served from tier-1");
    assert_eq!(c.inserts, 3);
    assert_eq!(
        s.counter_labeled("cryptext_cache_hits_total", "tier", "lookup"),
        2,
        "the registry reads the same cells"
    );
    assert_eq!(svc.generation(), 0);
}
