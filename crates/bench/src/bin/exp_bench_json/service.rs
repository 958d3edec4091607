//! `BENCH_service.json`: the gateway dimension — the admission-control
//! overhead p50 (gateway Look Up vs the direct service call), the shed
//! split of a latch-choreographed 10× admission storm, and the coalesce
//! hit rate of a duplicate-lookup wave. The storm and wave counts are
//! deterministic by construction; the overhead numbers are
//! machine-dependent.

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use cryptext_common::{Error, SimClock};
use cryptext_core::lookup::hits_of;
use cryptext_core::service::{ApiToken, CryptextService, LookupEntry, ServiceConfig};
use cryptext_core::{CrypText, LookupParams, TokenDatabase};
use cryptext_gateway::{
    CallOptions, Gateway, GatewayConfig, Request, RouteBudget, RouteClass, RouteOutput,
    SingleFlight,
};

use crate::doc::{Doc, Obj};
use crate::{measure, WARMUP_ROUNDS};

/// The gateway storm: a lane of `STORM_BUDGET` (executing, queued)
/// capacity against [`STORM_REQUESTS`] simultaneous arrivals — 10× the
/// lane's total capacity of 4, so exactly 36 must shed.
const STORM_REQUESTS: usize = 40;
const STORM_BUDGET: (usize, usize) = (2, 2);
const STORM_CAPACITY: usize = STORM_BUDGET.0 + STORM_BUDGET.1;
/// The duplicate wave: this many identical concurrent lookups must
/// coalesce to a single execution (one leader, the rest followers).
const WAVE_REQUESTS: usize = 8;
/// Rounds for the admission-overhead comparison (gateway vs direct).
const SERVICE_ROUNDS: usize = 40;

/// The six-query mix shared by the admission-overhead and wire-overhead
/// comparisons: clean words, an observed perturbation source, a miss.
pub const GATE_QUERIES: [&str; 6] = [
    "republicans",
    "democrats",
    "vaccine",
    "mandates",
    "dirty",
    "zzzmiss",
];

/// A small service on a frozen simulated clock, fronted by a gateway:
/// deadlines never expire mid-choreography, and the tiny fixed corpus
/// keeps the admitted requests' work (and therefore the measured
/// overhead) about the gateway, not the database.
pub fn fixture(config: GatewayConfig) -> (Arc<CryptextService>, Arc<Gateway>) {
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
    let svc = Arc::new(CryptextService::new(
        CrypText::new(db),
        ServiceConfig {
            rate_limit_per_minute: 1_000_000,
            ..ServiceConfig::default()
        },
        Arc::new(SimClock::new(0)),
    ));
    let gw = Arc::new(Gateway::new(Arc::clone(&svc), config));
    (svc, gw)
}

/// One paper-default Look Up through [`Gateway::handle`]; its hit count.
pub fn gateway_hits(gw: &Gateway, auth: &ApiToken, query: &str) -> usize {
    let request = Request::lookup(query, LookupParams::paper_default());
    match gw.handle(auth, request).expect("gateway lookup").output {
        RouteOutput::Lookup(hits) => hits.len(),
        other => panic!("a lookup request answered {other:?}"),
    }
}

pub fn run() -> Result<Doc, String> {
    let (completed, shed) = storm();
    if (completed, shed) != (STORM_CAPACITY, STORM_REQUESTS - STORM_CAPACITY) {
        return Err(format!(
            "storm split drifted: {completed}/{shed} completed/shed, expected {STORM_CAPACITY}/{}",
            STORM_REQUESTS - STORM_CAPACITY
        ));
    }
    let (executions, followers) = wave();
    if (executions, followers) != (1, WAVE_REQUESTS as u64 - 1) {
        return Err(format!(
            "coalescing drifted: {executions} executions, {followers} followers (expected 1 and {})",
            WAVE_REQUESTS - 1
        ));
    }

    // Admission overhead: the same Look Up mix through the full layer
    // onion (admission → auth → coalescing → deadline → inline execution)
    // vs the direct service (auth, served entry, owned hits), uncontended
    // and sequential so the difference is pure layering cost.
    let (svc, gw) = fixture(GatewayConfig::default());
    let auth = svc.issue_token("bench-overhead");
    let params = LookupParams::paper_default();
    let mut direct = |q: &str| {
        svc.authorize_request(&auth).unwrap();
        let (entry, _) = svc.look_up_shared(q, params, &mut || None).unwrap();
        hits_of(svc.system().database(), entry.hits()).len()
    };
    let mut gated = |q: &str| gateway_hits(&gw, &auth, q);
    measure(&GATE_QUERIES, WARMUP_ROUNDS, &mut direct);
    measure(&GATE_QUERIES, WARMUP_ROUNDS, &mut gated);
    let direct = measure(&GATE_QUERIES, SERVICE_ROUNDS, direct);
    let gated = measure(&GATE_QUERIES, SERVICE_ROUNDS, gated);
    assert_eq!(
        gated.total_hits, direct.total_hits,
        "the gateway adds layers, not different results"
    );

    let shed_rate = shed as f64 / STORM_REQUESTS as f64;
    let hit_rate = followers as f64 / WAVE_REQUESTS as f64;
    Ok(Doc::new(
        "service",
        Obj::block()
            .obj(
                "gateway",
                Obj::inline()
                    .info("storm_max_concurrent", STORM_BUDGET.0)
                    .info("storm_max_queued", STORM_BUDGET.1),
            )
            .obj(
                "admission_overhead",
                Obj::inline()
                    .float("direct_p50_us", direct.p50_us, 2)
                    .float("gateway_p50_us", gated.p50_us, 2)
                    .float("overhead_p50_us", gated.p50_us - direct.p50_us, 2),
            )
            .obj(
                "storm_10x",
                Obj::inline()
                    .pin("requests", STORM_REQUESTS)
                    .info("capacity", STORM_CAPACITY)
                    .pin("completed", completed)
                    .pin("shed", shed)
                    .float("shed_rate", shed_rate, 2),
            )
            .obj(
                "coalesce_wave",
                Obj::inline()
                    .pin("requests", WAVE_REQUESTS)
                    .pin("executions", executions)
                    .pin("coalesced_followers", followers)
                    .float("coalesce_hit_rate", hit_rate, 3),
            ),
    ))
}

/// The 10× storm: lane capacity 4 (2 executing + 2 queued) vs 40
/// arrivals. The latch holds every admitted request until the lane is
/// observed saturated, so the split is an exact count, not a statistic.
/// Returns `(completed, shed)`.
fn storm() -> (usize, usize) {
    let (svc, gw) = fixture(GatewayConfig {
        lookup: RouteBudget::new(STORM_BUDGET.0, STORM_BUDGET.1),
        ..GatewayConfig::default()
    });
    let auth = svc.issue_token("bench-storm");
    let params = LookupParams::paper_default();
    let direct = svc.system().look_up("republicans", params).unwrap();
    let latch = Arc::new(RwLock::new(()));
    let closed = latch.write().unwrap();
    let handles: Vec<_> = (0..STORM_REQUESTS)
        .map(|_| {
            let (gw, auth, latch) = (Arc::clone(&gw), auth.clone(), Arc::clone(&latch));
            std::thread::spawn(move || {
                gw.call(
                    RouteClass::Lookup,
                    &auth,
                    CallOptions::default(),
                    move |svc, _| latched_lookup(svc, &latch, "republicans"),
                )
            })
        })
        .collect();
    poll_until("storm saturation", || {
        let s = gw.stats();
        s.counter_total("cryptext_gateway_shed_queue_full_total")
            == (STORM_REQUESTS - STORM_CAPACITY) as u64
            && s.gauge("cryptext_gateway_active_now") == Some(STORM_BUDGET.0 as i64)
            && s.gauge("cryptext_gateway_queued_now") == Some(STORM_BUDGET.1 as i64)
    });
    drop(closed);
    let (mut completed, mut shed) = (0, 0);
    for h in handles {
        match h.join().expect("storm thread") {
            Ok(entry) => {
                let hits = hits_of(svc.system().database(), entry.hits());
                assert_eq!(hits, direct, "admitted storm result must match");
                completed += 1;
            }
            Err(Error::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("storm produced an unexpected error: {e}"),
        }
    }
    (completed, shed)
}

/// The duplicate wave: identical concurrent lookups coalesce to one
/// execution, and every caller gets the leader's tier-1 entry. Returns
/// `(executions, coalesced followers)`.
fn wave() -> (u64, u64) {
    let (svc, gw) = fixture(GatewayConfig::default());
    let auth = svc.issue_token("bench-wave");
    let params = LookupParams::paper_default();
    let direct = svc.system().look_up("democrats", params).unwrap();
    let flights: Arc<SingleFlight<Arc<LookupEntry>>> = Arc::new(SingleFlight::new());
    let latch = Arc::new(RwLock::new(()));
    let closed = latch.write().unwrap();
    let handles: Vec<_> = (0..WAVE_REQUESTS)
        .map(|_| {
            let (gw, auth, latch) = (Arc::clone(&gw), auth.clone(), Arc::clone(&latch));
            let flights = Arc::clone(&flights);
            std::thread::spawn(move || {
                gw.call_coalesced(
                    RouteClass::Lookup,
                    0xBE5E7CE5,
                    &auth,
                    CallOptions::default(),
                    &flights,
                    move |svc, _| latched_lookup(svc, &latch, "democrats"),
                )
            })
        })
        .collect();
    let followers = || {
        gw.stats()
            .counter_total("cryptext_gateway_coalesced_followers_total")
    };
    poll_until("wave coalescing", || {
        followers() == (WAVE_REQUESTS - 1) as u64
    });
    drop(closed);
    let entries: Vec<Arc<LookupEntry>> = handles
        .into_iter()
        .map(|h| h.join().expect("wave thread").expect("coalesced lookup"))
        .collect();
    let hits = hits_of(svc.system().database(), entries[0].hits());
    assert_eq!(hits, direct, "coalesced result must match");
    assert!(
        entries.iter().all(|e| Arc::ptr_eq(e, &entries[0])),
        "every caller shares the leader's entry"
    );
    let executions = gw
        .stats()
        .counter_total("cryptext_gateway_executions_total");
    (executions, followers())
}

/// The choreographies' request body: wait for the latch (the main thread
/// holds it for writing until every request is in its admission state),
/// then look `query` up through the service's served entry.
fn latched_lookup(
    svc: &CryptextService,
    latch: &RwLock<()>,
    query: &str,
) -> cryptext_common::Result<Arc<LookupEntry>> {
    drop(latch.read());
    svc.look_up_shared(query, LookupParams::paper_default(), &mut || None)
        .map(|(entry, _)| entry)
}

/// Spin until `cond` holds; panics (failing the run) on stall.
fn poll_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "bench choreography stalled waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}
