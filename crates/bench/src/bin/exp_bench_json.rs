//! Experiment B0 — **performance trajectory**: machine-readable lookup /
//! normalize / ingest throughput over a seeded corpus, written to
//! `BENCH_lookup.json`, `BENCH_normalize.json` and `BENCH_ingest.json` at
//! the workspace root so successive PRs have comparable numbers (same
//! seed, same query mix, same machine class).
//!
//! Reports, per engine path:
//!
//! * `queries_per_sec` / `texts_per_sec` — cold throughput (no service
//!   cache),
//! * `p50_us` / `p99_us` — per-call latency quantiles in microseconds,
//! * the optimized-over-naive speedup ratio for the paper-default
//!   workloads (`k = 1, d = 3` Look Up; default-parameter Normalization),
//! * result-shape invariants (`total_hits`, `corrections_total`) that must
//!   never drift — the optimized engines are byte-identical rewrites,
//! * database shape (tokens, sounds, occurrences) and ingest timing
//!   (sequential vs parallel batch),
//! * the durable streaming-ingest dimension (`BENCH_ingest.json`): the
//!   per-batch delta-log append latency vs the full `persist_to` it
//!   replaces as the durability point, compaction wall time, and the
//!   recovered database shape (pinned by `--check`),
//! * the gateway dimension (`BENCH_service.json`): the admission-control
//!   overhead p50 (gateway Look Up vs the direct service call), the
//!   shed split of a latch-choreographed 10× admission storm, and the
//!   coalesce hit rate of a duplicate-lookup wave. The storm/wave counts
//!   are deterministic by construction and pinned by `--check`; the
//!   overhead numbers are machine-dependent and informational,
//! * the tiered result-cache dimension (`BENCH_cache.json`): the
//!   hit/miss latency split of the service's normalize caches — the
//!   whole-text result cache over the cross-text candidate memo —
//!   (uncached engine vs pure warm hits) and a Zipf-replay workload with
//!   a mid-stream generation bump. The hit/miss/invalidation counts are
//!   a pure function of the seeded replay and pinned by `--check`, which
//!   additionally gates two wide-margin latency invariants: warm-hit p50
//!   ≤ 1/3 of the uncached p50, and replay p99 below the uncached p99,
//! * the HTTP wire dimension (`BENCH_http.json`): the same Look Up mix
//!   over a real loopback socket (one keep-alive connection through
//!   `cryptext-http`) vs the direct `Gateway` call, so the wire tax —
//!   parse + route + serialize + two kernel crossings — is measured
//!   apart from the layering tax. Result shapes (wire hits == direct
//!   hits) and the served-request count are deterministic and pinned by
//!   `--check`; the latency numbers are informational.
//!
//! ```text
//! cargo run --release -p cryptext-bench --bin exp_bench_json
//! ```
//!
//! With `--check`, nothing is rewritten: the invariant fields are
//! recomputed and compared against the committed JSON files, exiting
//! non-zero on drift. CI runs this as a bench smoke test, so a change that
//! silently alters retrieval or correction results fails the build even
//! when every latency number looks plausible. `--check` additionally
//! gates the metrics hot path: attaching the per-stage instrument bundle
//! must keep the lookup/normalize p50 within 5% of the detached/pinned
//! reference, and after the loopback run the registry's wire-layer
//! totals must equal the served-request count the suite pins.

use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cryptext_bench::{build_db, build_platform};
use cryptext_common::{Error, SimClock};
use cryptext_core::durable::{DurableOptions, DurableTokenStore};
use cryptext_core::lookup::LookupHit;
use cryptext_core::service::{CryptextService, ServiceConfig};
use cryptext_core::{
    look_up_naive, look_up_with, CrypText, EncodedQuery, LookupParams, LookupScratch,
    NormalizeParams, NormalizeScratch, Normalizer, ShardedTokenDatabase, StageMetrics,
    TokenDatabase,
};
use cryptext_docstore::Database;
use cryptext_gateway::{
    CallOptions, Gateway, GatewayConfig, RouteBudget, RouteClass, SingleFlight,
};
use cryptext_http::{HttpConfig, HttpServer};

const N_POSTS: usize = 4_000;
const SEED: u64 = 7;
const WARMUP_ROUNDS: usize = 4;
const MEASURE_ROUNDS: usize = 40;
const NORM_TEXTS: usize = 200;
const NORM_ROUNDS: usize = 4;
/// The shard counts of the `shards` dimension: the same Look Up workload
/// measured over the consistent-hash sharded backend at each count.
/// Count 1 doubles as the trait-indirection regression check against the
/// plain `optimized` block.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The ingest dimension's workload: this many one-post batches streamed
/// through a durable store, compacting every [`COMPACT_EVERY`] batches.
const INGEST_BATCHES: usize = 2_000;
const COMPACT_EVERY: usize = 500;
/// The gateway storm: a lane of `STORM_BUDGET` (executing, queued)
/// capacity against [`STORM_REQUESTS`] simultaneous arrivals — 10× the
/// lane's total capacity of 4, so exactly 36 must shed.
const STORM_REQUESTS: usize = 40;
const STORM_BUDGET: (usize, usize) = (2, 2);
/// The duplicate wave: this many identical concurrent lookups must
/// coalesce to a single execution (one leader, the rest followers).
const WAVE_REQUESTS: usize = 8;
/// Rounds for the admission-overhead comparison (gateway vs direct).
const SERVICE_ROUNDS: usize = 40;
/// Rounds for the HTTP wire-overhead comparison (loopback socket vs
/// direct gateway call), over the same six-query mix.
const HTTP_ROUNDS: usize = 200;
/// The cache dimension's Zipf replay: [`CACHE_REPLAY`] normalize requests
/// drawn Zipf-style (exponent [`CACHE_ZIPF_S`]) from a pool of
/// [`CACHE_POOL`] distinct feed texts — hot texts repeat, the tail stays
/// cold — with one generation bump (cache flush) halfway through. The
/// small pool keeps the request-level hit rate above 99%, so the replay's
/// p99 lands on the hit path. Every fourth pool text carries the same
/// out-of-dictionary token, so its empty candidate list is shared
/// cross-text during the cold fills — the negative-cache path.
const CACHE_POOL: usize = 32;
const CACHE_REPLAY: usize = 10_000;
const CACHE_ZIPF_S: f64 = 1.1;

struct Measured {
    queries_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    total_hits: usize,
}

/// Run `f` once per query over `rounds` rounds; returns per-call quantiles.
fn measure(queries: &[&str], rounds: usize, mut f: impl FnMut(&str) -> usize) -> Measured {
    let mut samples_us: Vec<f64> = Vec::with_capacity(queries.len() * rounds);
    let mut total_hits = 0;
    let wall = Instant::now();
    for _ in 0..rounds {
        for q in queries {
            let start = Instant::now();
            total_hits += std::hint::black_box(f(q));
            samples_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pick = |q: f64| samples_us[((samples_us.len() - 1) as f64 * q).round() as usize];
    Measured {
        queries_per_sec: samples_us.len() as f64 / wall_s,
        p50_us: pick(0.5),
        p99_us: pick(0.99),
        total_hits,
    }
}

fn json_block(out: &mut String, name: &str, m: &Measured, hits_key: &str, last: bool) {
    let _ = writeln!(out, "    \"{name}\": {{");
    let _ = writeln!(out, "      \"queries_per_sec\": {:.1},", m.queries_per_sec);
    let _ = writeln!(out, "      \"p50_us\": {:.2},", m.p50_us);
    let _ = writeln!(out, "      \"p99_us\": {:.2},", m.p99_us);
    let _ = writeln!(out, "      \"{hits_key}\": {}", m.total_hits);
    let _ = writeln!(out, "    }}{}", if last { "" } else { "," });
}

/// Every integer value attached to `key` in (our own, flat) JSON output.
fn extract_ints(json: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    json.lines()
        .filter_map(|line| {
            let idx = line.find(&needle)?;
            let rest = line[idx + needle.len()..].trim();
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().ok()
        })
        .collect()
}

/// Every numeric value attached to `key` in (our own, flat) JSON output,
/// parsed as `f64` — the float sibling of [`extract_ints`] for the
/// latency-pin fields written with `{:.2}`.
fn extract_floats(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    json.lines()
        .filter_map(|line| {
            let idx = line.find(&needle)?;
            let rest = line[idx + needle.len()..].trim();
            let num: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            num.parse().ok()
        })
        .collect()
}

/// The deterministic result-shape invariants of one measurement round.
struct Invariants {
    hits_per_round: usize,
    corrections_per_round: usize,
}

fn compute_invariants(
    db: &TokenDatabase,
    cx: &CrypText,
    queries: &[&str],
    norm_texts: &[&str],
) -> Invariants {
    let mut scratch = LookupScratch::new();
    let params = LookupParams::paper_default();
    let hits_per_round = queries
        .iter()
        .map(|q| look_up_with(db, q, params, &mut scratch).unwrap().len())
        .sum();
    let corrections_per_round = norm_texts
        .iter()
        .map(|t| {
            cx.normalize(t, NormalizeParams::default())
                .unwrap()
                .corrections
                .len()
        })
        .sum();
    Invariants {
        hits_per_round,
        corrections_per_round,
    }
}

/// Deterministic Bloom-routing statistics of the query mix over one
/// sharded store: `(shard_walks, skipped_shard_walks)` — how many
/// per-shard walks the mix would issue without routing, and how many of
/// those the per-shard code summaries skip. Pure function of the (seeded)
/// corpus, so `--check` recomputes and pins it.
fn skip_stats(wide: &ShardedTokenDatabase, queries: &[&str]) -> (usize, usize) {
    let params = LookupParams::paper_default();
    let mut query = EncodedQuery::new();
    let mut walks = 0usize;
    let mut skipped = 0usize;
    for q in queries {
        query.encode(q, params.k).expect("valid level");
        walks += cryptext_core::TokenStore::num_shards(wide);
        skipped += wide.skipped_shards(&query);
    }
    (walks, skipped)
}

/// The sharded-backend half of the bench smoke: for every entry of
/// [`SHARD_COUNTS`], the sharded store must retrieve exactly the same hit
/// count as the single instance — the byte-identical contract, recomputed
/// live in CI rather than trusted from the committed file — and the
/// committed skip-rate fields (`shard_walks` / `skipped_shard_walks`) must
/// match the routing recomputed over the live Bloom summaries.
fn check_sharded(
    db: &TokenDatabase,
    queries: &[&str],
    expected_hits: usize,
    lookup_json: &str,
) -> Result<(), String> {
    let params = LookupParams::paper_default();
    let committed_walks = extract_ints(lookup_json, "shard_walks");
    let committed_skipped = extract_ints(lookup_json, "skipped_shard_walks");
    if committed_walks.len() != SHARD_COUNTS.len() || committed_skipped.len() != SHARD_COUNTS.len()
    {
        return Err(format!(
            "BENCH_lookup.json shards entries must each carry shard_walks + \
             skipped_shard_walks ({} and {} found, want {})",
            committed_walks.len(),
            committed_skipped.len(),
            SHARD_COUNTS.len()
        ));
    }
    for (i, n) in SHARD_COUNTS.into_iter().enumerate() {
        let wide = ShardedTokenDatabase::from_database(db, n);
        let mut scratch = LookupScratch::new();
        let hits: usize = queries
            .iter()
            .map(|q| look_up_with(&wide, q, params, &mut scratch).unwrap().len())
            .sum();
        if hits != expected_hits {
            return Err(format!(
                "sharded backend ({n} shards) retrieved {hits} hits, single instance {expected_hits}"
            ));
        }
        let (walks, skipped) = skip_stats(&wide, queries);
        if committed_walks[i] != walks as u64 || committed_skipped[i] != skipped as u64 {
            return Err(format!(
                "skip-rate drift at {n} shards: committed {}/{} walks skipped, recomputed {skipped}/{walks}",
                committed_skipped[i], committed_walks[i]
            ));
        }
    }
    Ok(())
}

/// The ingest dimension's invariants: the durable workload's final
/// database shape is a pure function of the seeded corpus, so `--check`
/// recomputes it through the ordinary in-memory path and pins the
/// committed `BENCH_ingest.json` fields against it.
fn check_ingest(texts: &[String]) -> Result<(), String> {
    let json = std::fs::read_to_string("BENCH_ingest.json")
        .map_err(|e| format!("read BENCH_ingest.json: {e}"))?;
    let n = INGEST_BATCHES.min(texts.len());
    let mut db = TokenDatabase::in_memory();
    for t in &texts[..n] {
        db.ingest_text(t);
    }
    let stats = db.stats();
    let checks = [
        ("batches", n as u64),
        ("unique_tokens", stats.unique_tokens as u64),
        ("total_occurrences", stats.total_occurrences),
        ("compactions", (n / COMPACT_EVERY) as u64),
        ("final_epoch", (n / COMPACT_EVERY) as u64),
    ];
    for (key, want) in checks {
        let got = extract_ints(&json, key);
        if got != vec![want] {
            return Err(format!(
                "BENCH_ingest.json {key} is {got:?}, expected [{want}]"
            ));
        }
    }
    Ok(())
}

/// One-shot gate: gateway request closures park on it so the overload
/// choreography can line up every request's admission state (executing,
/// queued, or shed) before letting any work finish. That staging is what
/// makes the storm/wave counts deterministic rather than racy.
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
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "bench latch never opened"
            );
            let (guard, _) = self
                .cv
                .wait_timeout(open, Duration::from_millis(2))
                .unwrap();
            open = guard;
        }
    }
}

/// Spin until `cond` holds; panics (failing the bench/check) on stall.
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

/// A small service on a frozen simulated clock for the gateway
/// dimension: deadlines never expire mid-choreography, and the tiny
/// fixed corpus keeps the admitted requests' work (and therefore the
/// measured overhead) about the gateway, not the database.
fn service_fixture() -> Arc<CryptextService<TokenDatabase>> {
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
    Arc::new(CryptextService::new(
        CrypText::new(db),
        ServiceConfig {
            rate_limit_per_minute: 1_000_000,
            ..ServiceConfig::default()
        },
        Arc::new(SimClock::new(0)),
    ))
}

/// The deterministic counts of the gateway choreography, pinned by
/// `--check`.
struct ServiceChoreography {
    storm_completed: usize,
    storm_shed: usize,
    wave_followers: u64,
    wave_executions: u64,
}

/// Run the 10× storm and the duplicate wave. Latches hold every request
/// in place until the target admission state is observed, so the splits
/// below are exact counts, not statistics.
fn run_service_choreography() -> ServiceChoreography {
    // Storm: lane capacity 4 (2 executing + 2 queued) vs 40 arrivals.
    let svc = service_fixture();
    let gw: Arc<Gateway<TokenDatabase>> = Arc::new(Gateway::new(
        Arc::clone(&svc),
        GatewayConfig {
            lookup: RouteBudget::new(STORM_BUDGET.0, STORM_BUDGET.1),
            ..GatewayConfig::default()
        },
    ));
    let auth = svc.issue_token("bench-storm");
    let direct = svc
        .look_up(&auth, "republicans", LookupParams::paper_default())
        .expect("direct storm lookup");

    let latch = Latch::new();
    let mut handles = Vec::new();
    for _ in 0..STORM_REQUESTS {
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
    let capacity = STORM_BUDGET.0 + STORM_BUDGET.1;
    poll_until("storm saturation", || {
        let s = gw.stats();
        s.counter_total("cryptext_gateway_shed_queue_full_total")
            == (STORM_REQUESTS - capacity) as u64
            && s.gauge("cryptext_gateway_active_now") == Some(STORM_BUDGET.0 as i64)
            && s.gauge("cryptext_gateway_queued_now") == Some(STORM_BUDGET.1 as i64)
    });
    latch.open();
    let (mut storm_completed, mut storm_shed) = (0, 0);
    for h in handles {
        match h.join().expect("storm thread") {
            Ok(hits) => {
                assert_eq!(
                    hits, direct,
                    "admitted storm result must match the direct call"
                );
                storm_completed += 1;
            }
            Err(Error::Overloaded { .. }) => storm_shed += 1,
            Err(e) => panic!("storm produced an unexpected error: {e}"),
        }
    }

    // Duplicate wave: identical concurrent lookups coalesce to one
    // execution; every caller gets the leader's exact bytes.
    let svc = service_fixture();
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("bench-wave");
    let direct = svc
        .look_up(&auth, "democrats", LookupParams::paper_default())
        .expect("direct wave lookup");
    let flights: Arc<SingleFlight<Vec<LookupHit>>> = Arc::new(SingleFlight::new());
    let latch = Latch::new();
    let mut handles = Vec::new();
    for _ in 0..WAVE_REQUESTS {
        let (gw, auth, latch) = (Arc::clone(&gw), auth.clone(), Arc::clone(&latch));
        let flights = Arc::clone(&flights);
        handles.push(std::thread::spawn(move || {
            gw.call_coalesced(
                RouteClass::Lookup,
                0xBE5E7CE5,
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
    poll_until("wave coalescing", || {
        gw.stats()
            .counter_total("cryptext_gateway_coalesced_followers_total")
            == (WAVE_REQUESTS - 1) as u64
    });
    latch.open();
    for h in handles {
        let hits = h.join().expect("wave thread").expect("coalesced lookup");
        assert_eq!(hits, direct, "coalesced result must match the direct call");
    }
    let s = gw.stats();
    ServiceChoreography {
        storm_completed,
        storm_shed,
        wave_followers: s.counter_total("cryptext_gateway_coalesced_followers_total"),
        wave_executions: s.counter_total("cryptext_gateway_executions_total"),
    }
}

/// The gateway dimension's invariants: the choreography is deterministic
/// by construction, so `--check` re-runs it live — proving shed-not-
/// collapse and single-execution coalescing on the current build — and
/// pins the committed `BENCH_service.json` counts against the fresh run.
fn check_service() -> Result<(), String> {
    let json = std::fs::read_to_string("BENCH_service.json")
        .map_err(|e| format!("read BENCH_service.json: {e}"))?;
    let chor = run_service_choreography();
    let capacity = STORM_BUDGET.0 + STORM_BUDGET.1;
    if chor.storm_completed != capacity || chor.storm_shed != STORM_REQUESTS - capacity {
        return Err(format!(
            "storm split drifted: {}/{} completed/shed, expected {}/{}",
            chor.storm_completed,
            chor.storm_shed,
            capacity,
            STORM_REQUESTS - capacity
        ));
    }
    if chor.wave_executions != 1 || chor.wave_followers != (WAVE_REQUESTS - 1) as u64 {
        return Err(format!(
            "coalescing drifted: {} executions, {} followers (expected 1 and {})",
            chor.wave_executions,
            chor.wave_followers,
            WAVE_REQUESTS - 1
        ));
    }
    let checks = [
        (
            "requests",
            vec![STORM_REQUESTS as u64, WAVE_REQUESTS as u64],
        ),
        ("completed", vec![chor.storm_completed as u64]),
        ("shed", vec![chor.storm_shed as u64]),
        ("executions", vec![chor.wave_executions]),
        ("coalesced_followers", vec![chor.wave_followers]),
    ];
    for (key, want) in checks {
        let got = extract_ints(&json, key);
        if got != want {
            return Err(format!(
                "BENCH_service.json {key} is {got:?}, expected {want:?}"
            ));
        }
    }
    Ok(())
}

/// The six-query mix shared by the admission-overhead and wire-overhead
/// comparisons: clean words, an observed perturbation source, a miss.
const GATE_QUERIES: [&str; 6] = [
    "republicans",
    "democrats",
    "vaccine",
    "mandates",
    "dirty",
    "zzzmiss",
];

/// One Look Up over an open keep-alive connection; returns the hit
/// count parsed out of the JSON body (so the wire path's result shape
/// can be pinned against the direct path's).
fn http_lookup(stream: &mut std::net::TcpStream, token: &str, query: &str) -> usize {
    use std::io::{Read, Write};
    stream
        .write_all(
            format!(
                "GET /lookup?q={query} HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer {token}\r\n\r\n"
            )
            .as_bytes(),
        )
        .expect("wire send");
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..pos]).expect("UTF-8 headers");
            assert!(
                head.starts_with("HTTP/1.1 200"),
                "wire lookup for {query:?} answered {head:?}"
            );
            let content_length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .expect("Content-Length");
            while buf.len() < pos + 4 + content_length {
                let n = stream.read(&mut chunk).expect("wire read");
                assert!(n > 0, "server closed mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let body =
                std::str::from_utf8(&buf[pos + 4..pos + 4 + content_length]).expect("UTF-8 body");
            return body.matches("\"token\":").count();
        }
        let n = stream.read(&mut chunk).expect("wire read");
        assert!(n > 0, "server closed mid-headers");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Outcome of the HTTP wire-overhead run: the same workload measured
/// over the loopback socket and via the direct gateway call, plus the
/// server's own served-request count.
struct HttpOverhead {
    wire: Measured,
    direct: Measured,
    requests_served: u64,
    /// Registry totals after the run — what a `GET /metrics` scrape
    /// would report: wire-layer responses across all statuses, and
    /// request-timing observations.
    registry_responses: u64,
    registry_timings: u64,
}

/// Serve the bench fixture over loopback HTTP and run the comparison.
/// Single connection, sequential requests: the difference between the
/// two measurements is pure wire tax (parse + route + serialize + two
/// kernel crossings), not contention.
fn run_http_overhead(rounds: usize) -> HttpOverhead {
    let svc = service_fixture();
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("bench-http");
    let params = LookupParams::paper_default();

    let server =
        HttpServer::bind(Arc::clone(&gw), HttpConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let serve = std::thread::spawn(move || server.serve());

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for _ in 0..WARMUP_ROUNDS {
        for q in GATE_QUERIES {
            let _ = http_lookup(&mut stream, auth.as_str(), q);
            let _ = gw
                .look_up(&auth, q, params, CallOptions::default())
                .unwrap();
        }
    }
    let wire = measure(&GATE_QUERIES, rounds, |q| {
        http_lookup(&mut stream, auth.as_str(), q)
    });
    let direct = measure(&GATE_QUERIES, rounds, |q| {
        gw.look_up(&auth, q, params, CallOptions::default())
            .unwrap()
            .len()
    });
    assert_eq!(
        wire.total_hits, direct.total_hits,
        "the wire layer adds transport, not different results"
    );
    drop(stream);
    handle.shutdown();
    let report = serve.join().expect("serve thread");
    let snap = gw.metrics().snapshot();
    HttpOverhead {
        wire,
        direct,
        requests_served: report.requests_served,
        registry_responses: snap.counter_total("cryptext_http_responses_total"),
        registry_timings: snap.histogram_count("cryptext_http_request_us"),
    }
}

/// The wire dimension's invariants are deterministic (result shapes and
/// request counts, not timings), so `--check` re-runs the loopback
/// comparison live and pins the committed counts against it.
fn check_http() -> Result<(), String> {
    let json = std::fs::read_to_string("BENCH_http.json")
        .map_err(|e| format!("read BENCH_http.json: {e}"))?;
    let fresh = run_http_overhead(HTTP_ROUNDS);
    let checks = [
        (
            "total_hits",
            vec![fresh.wire.total_hits as u64, fresh.direct.total_hits as u64],
        ),
        ("requests_served", vec![fresh.requests_served]),
        ("rounds", vec![HTTP_ROUNDS as u64]),
    ];
    for (key, want) in checks {
        let got = extract_ints(&json, key);
        if got != want {
            return Err(format!(
                "BENCH_http.json {key} is {got:?}, expected {want:?}"
            ));
        }
    }
    // The registry is the same surface a `GET /metrics` scrape renders:
    // after the loopback run its wire-layer totals must equal the
    // served-request count pinned above.
    if fresh.registry_responses != fresh.requests_served {
        return Err(format!(
            "registry cryptext_http_responses_total is {}, expected the served-request count {}",
            fresh.registry_responses, fresh.requests_served
        ));
    }
    if fresh.registry_timings != fresh.requests_served {
        return Err(format!(
            "registry cryptext_http_request_us count is {}, expected the served-request count {}",
            fresh.registry_timings, fresh.requests_served
        ));
    }
    Ok(())
}

/// The metrics-overhead gate: attaching the per-stage instrument bundle
/// must not move the hot-path p50. Each workload is measured twice on
/// this machine — stages detached (the configuration the committed pins
/// were produced under) and attached (the production service
/// configuration) — taking the best-of-three p50 per arm, and the
/// instrumented p50 must stay within 5% of the reference. The reference
/// is the larger of the live detached p50 and the committed pin, so the
/// gate holds the pinning machine to its absolute numbers and degrades
/// to a pure same-run A/B on faster or slower hardware; the small
/// absolute slack absorbs `Instant` granularity on microsecond p50s.
fn check_metrics_overhead(
    db: &TokenDatabase,
    cx: &CrypText,
    queries: &[&str],
    norm_texts: &[&str],
) -> Result<(), String> {
    let lookup_json = std::fs::read_to_string("BENCH_lookup.json")
        .map_err(|e| format!("read BENCH_lookup.json: {e}"))?;
    let norm_json = std::fs::read_to_string("BENCH_normalize.json")
        .map_err(|e| format!("read BENCH_normalize.json: {e}"))?;
    // The first p50_us in each file is the optimized block's pin (the
    // naive, sharded, and normalize sections all come after it).
    let pinned_lookup = *extract_floats(&lookup_json, "p50_us")
        .first()
        .ok_or("BENCH_lookup.json has no p50_us fields")?;
    let pinned_norm = *extract_floats(&norm_json, "p50_us")
        .first()
        .ok_or("BENCH_normalize.json has no p50_us fields")?;

    let params = LookupParams::paper_default();
    let lookup_p50 = |stages: Option<Arc<StageMetrics>>| -> f64 {
        let mut scratch = LookupScratch::new();
        scratch.attach_stages(stages);
        for _ in 0..WARMUP_ROUNDS {
            for q in queries {
                let _ = look_up_with(db, q, params, &mut scratch).unwrap();
            }
        }
        (0..3)
            .map(|_| {
                measure(queries, MEASURE_ROUNDS, |q| {
                    look_up_with(db, q, params, &mut scratch).unwrap().len()
                })
                .p50_us
            })
            .fold(f64::INFINITY, f64::min)
    };
    let normalizer = Normalizer::new(cx.language_model());
    let norm_p50 = |stages: Option<Arc<StageMetrics>>| -> f64 {
        let mut scratch = NormalizeScratch::new();
        scratch.attach_stages(stages);
        // No separate warmup pass: the first of the three reps warms the
        // scratch and the best-of-three min discards it.
        (0..3)
            .map(|_| {
                measure(norm_texts, NORM_ROUNDS, |t| {
                    normalizer
                        .normalize_with(cx.database(), t, NormalizeParams::default(), &mut scratch)
                        .unwrap()
                        .corrections
                        .len()
                })
                .p50_us
            })
            .fold(f64::INFINITY, f64::min)
    };
    let gate = |what: &str, detached: f64, instrumented: f64, pinned: f64| -> Result<(), String> {
        let allowed = detached.max(pinned) * 1.05 + 0.25;
        if instrumented > allowed {
            return Err(format!(
                "instrumented {what} p50 {instrumented:.2}µs exceeds the 5% metrics-overhead \
                 gate (detached {detached:.2}µs, pinned {pinned:.2}µs, allowed {allowed:.2}µs)"
            ));
        }
        Ok(())
    };

    let lookup_detached = lookup_p50(None);
    let lookup_instrumented = lookup_p50(Some(Arc::new(StageMetrics::new())));
    gate(
        "lookup",
        lookup_detached,
        lookup_instrumented,
        pinned_lookup,
    )?;
    let norm_detached = norm_p50(None);
    let norm_instrumented = norm_p50(Some(Arc::new(StageMetrics::new())));
    gate("normalize", norm_detached, norm_instrumented, pinned_norm)
}

/// A deterministic Zipf-distributed index sequence over `pool` items:
/// xorshift64* stream mapped through the CDF of `1/(i+1)^s` weights. Pure
/// function of the seed, so `--check` replays the exact same workload.
fn zipf_sequence(pool: usize, len: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..pool)
        .map(|i| 1.0 / ((i + 1) as f64).powf(CACHE_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            cdf.iter().position(|&c| u < c).unwrap_or(pool - 1)
        })
        .collect()
}

/// What the cache dimension measured: the replay's latency quantiles, the
/// deterministic tier-1 counters it produced (whole-text result cache and
/// per-token candidate memo), and the uncached-vs-warm-hit latency split.
struct CacheReplay {
    result_hits: u64,
    result_misses: u64,
    candidate_hits: u64,
    candidate_misses: u64,
    negative_candidate_hits: u64,
    invalidation_bumps: u64,
    invalidated_entries: u64,
    replay_p50_us: f64,
    replay_p99_us: f64,
    uncached: Measured,
    warm: Measured,
}

/// Run the Zipf replay through a caching service, byte-checking every
/// response against an identically-built uncached engine, then measure
/// the uncached path and a pure warm-hit pass over the same pool.
fn run_cache_replay(platform: &cryptext_stream::SocialPlatform) -> CacheReplay {
    // Every fourth pool text gets the same out-of-dictionary token
    // appended (to both the reference and the service side — the texts
    // stay identical). Its empty candidate list is written once and then
    // served as a *negative* candidate hit when the other carriers fill
    // cold; exact repeats never reach the memo (the whole-text result
    // cache absorbs them), so this cross-text sharing is what pins the
    // negative path.
    let texts: Vec<String> = platform
        .posts()
        .iter()
        .take(CACHE_POOL)
        .enumerate()
        .map(|(i, p)| {
            if i % 4 == 0 {
                format!("{} zzqzyxt", p.text)
            } else {
                p.text.clone()
            }
        })
        .collect();
    let pool: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();

    // The uncached reference: its own identically-built system, normalized
    // through the bare engine (no service, no cache).
    let cx = CrypText::new(build_db(platform));
    let normalizer = Normalizer::new(cx.language_model());
    let mut scratch = NormalizeScratch::new();
    let reference: Vec<_> = pool
        .iter()
        .map(|t| {
            normalizer
                .normalize_with(cx.database(), t, NormalizeParams::default(), &mut scratch)
                .expect("reference normalize")
        })
        .collect();

    // The caching service under test, on a frozen clock (no TTL expiry —
    // the mid-replay generation bump is the only invalidation).
    let svc = CryptextService::new(
        CrypText::new(build_db(platform)),
        ServiceConfig {
            rate_limit_per_minute: 100_000_000,
            ..ServiceConfig::default()
        },
        Arc::new(SimClock::new(0)),
    );
    let auth = svc.issue_token("bench-cache");

    let seq = zipf_sequence(CACHE_POOL, CACHE_REPLAY, SEED);
    let mut samples_us: Vec<f64> = Vec::with_capacity(CACHE_REPLAY);
    for (j, &i) in seq.iter().enumerate() {
        if j == CACHE_REPLAY / 2 {
            svc.bump_generation();
        }
        let start = Instant::now();
        let got = svc
            .normalize(&auth, pool[i], NormalizeParams::default())
            .expect("replay normalize");
        samples_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        assert_eq!(
            got, reference[i],
            "cached replay must stay byte-identical to the uncached engine"
        );
    }
    // Capture the counters before any further traffic: these are the
    // replay's own deterministic hit/miss/invalidation counts.
    let tiers = svc.metrics().snapshot();
    let at_tier = |name: &str, tier: &str| tiers.counter_labeled(name, "tier", tier);
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pick = |q: f64| samples_us[((samples_us.len() - 1) as f64 * q).round() as usize];
    let (replay_p50_us, replay_p99_us) = (pick(0.5), pick(0.99));

    // The latency split: uncached engine path vs pure warm hits, same
    // pool, same rounds. One priming pass each so the warm side really is
    // all hits (the bump halfway through the replay left tail entries
    // cold) and the uncached side starts on a hot scratch.
    for t in &pool {
        let _ = normalizer
            .normalize_with(cx.database(), t, NormalizeParams::default(), &mut scratch)
            .unwrap();
        let _ = svc.normalize(&auth, t, NormalizeParams::default()).unwrap();
    }
    let uncached = measure(&pool, NORM_ROUNDS, |t| {
        normalizer
            .normalize_with(cx.database(), t, NormalizeParams::default(), &mut scratch)
            .unwrap()
            .corrections
            .len()
    });
    let warm = measure(&pool, NORM_ROUNDS, |t| {
        svc.normalize(&auth, t, NormalizeParams::default())
            .unwrap()
            .corrections
            .len()
    });
    assert_eq!(
        warm.total_hits, uncached.total_hits,
        "the warm-hit pass must produce identical corrections"
    );

    CacheReplay {
        result_hits: at_tier("cryptext_cache_hits_total", "normalize_results"),
        result_misses: at_tier("cryptext_cache_misses_total", "normalize_results"),
        candidate_hits: at_tier("cryptext_cache_hits_total", "normalize"),
        candidate_misses: at_tier("cryptext_cache_misses_total", "normalize"),
        negative_candidate_hits: tiers.counter_total("cryptext_cache_negative_hits_total"),
        invalidation_bumps: tiers.counter_total("cryptext_cache_invalidation_bumps_total"),
        invalidated_entries: tiers.counter_total("cryptext_cache_invalidated_entries_total"),
        replay_p50_us,
        replay_p99_us,
        uncached,
        warm,
    }
}

/// The cache dimension's gate. Unlike the other dimensions this one pins
/// *latency* as well as counts — the whole point of the tier is the
/// hit-path speedup, and the margins are wide enough to be
/// machine-independent: a warm hit must cost at most a third of the
/// uncached normalize p50, and the hit-dominated Zipf replay's p99 must
/// undercut the uncached p99. The hit/miss/invalidation counts are a pure
/// function of the seeded workload and must match the committed file
/// exactly; byte-identity of every cached response is asserted inside the
/// replay itself.
fn check_cache(platform: &cryptext_stream::SocialPlatform) -> Result<(), String> {
    let json = std::fs::read_to_string("BENCH_cache.json")
        .map_err(|e| format!("read BENCH_cache.json: {e}"))?;
    let r = run_cache_replay(platform);
    if r.warm.p50_us * 3.0 > r.uncached.p50_us {
        return Err(format!(
            "warm-hit normalize p50 {:.2}µs is not ≤ 1/3 of the uncached {:.2}µs",
            r.warm.p50_us, r.uncached.p50_us
        ));
    }
    if r.replay_p99_us >= r.uncached.p99_us {
        return Err(format!(
            "Zipf-replay p99 {:.2}µs did not undercut the uncached p99 {:.2}µs",
            r.replay_p99_us, r.uncached.p99_us
        ));
    }
    let checks = [
        ("requests", CACHE_REPLAY as u64),
        ("distinct_texts", CACHE_POOL as u64),
        ("result_hits", r.result_hits),
        ("result_misses", r.result_misses),
        ("candidate_hits", r.candidate_hits),
        ("candidate_misses", r.candidate_misses),
        ("negative_candidate_hits", r.negative_candidate_hits),
        ("invalidation_bumps", r.invalidation_bumps),
    ];
    for (key, want) in checks {
        let got = extract_ints(&json, key);
        if got != vec![want] {
            return Err(format!(
                "BENCH_cache.json {key} is {got:?}, expected [{want}]"
            ));
        }
    }
    Ok(())
}

/// Validate the committed invariant fields; returns the BENCH_lookup.json
/// contents so the sharded check can reuse them without a second read.
fn check_committed(expected: &Invariants) -> Result<String, String> {
    let lookup_json = std::fs::read_to_string("BENCH_lookup.json")
        .map_err(|e| format!("read BENCH_lookup.json: {e}"))?;
    let norm_json = std::fs::read_to_string("BENCH_normalize.json")
        .map_err(|e| format!("read BENCH_normalize.json: {e}"))?;

    let want_hits = (expected.hits_per_round * MEASURE_ROUNDS) as u64;
    let committed_hits = extract_ints(&lookup_json, "total_hits");
    if committed_hits.is_empty() {
        return Err("BENCH_lookup.json has no total_hits fields".into());
    }
    for (i, &h) in committed_hits.iter().enumerate() {
        if h != want_hits {
            return Err(format!(
                "total_hits[{i}] drifted: committed {h}, recomputed {want_hits}"
            ));
        }
    }

    let want_corrections = (expected.corrections_per_round * NORM_ROUNDS) as u64;
    let committed_corrections = extract_ints(&norm_json, "corrections_total");
    if committed_corrections.is_empty() {
        return Err("BENCH_normalize.json has no corrections_total fields".into());
    }
    for (i, &c) in committed_corrections.iter().enumerate() {
        if c != want_corrections {
            return Err(format!(
                "corrections_total[{i}] drifted: committed {c}, recomputed {want_corrections}"
            ));
        }
    }

    // The shards dimension must be present and cover exactly SHARD_COUNTS
    // (each entry's total_hits was already validated above — every
    // "total_hits" in the file, sharded entries included, must equal the
    // recomputed single-instance count).
    let committed_shards = extract_ints(&lookup_json, "shards");
    let want_shards: Vec<u64> = SHARD_COUNTS.iter().map(|&n| n as u64).collect();
    if committed_shards != want_shards {
        return Err(format!(
            "BENCH_lookup.json shards dimension is {committed_shards:?}, expected {want_shards:?}"
        ));
    }
    Ok(lookup_json)
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");

    let platform = build_platform(N_POSTS, SEED);
    let texts: Vec<String> = platform.posts().iter().map(|p| p.text.clone()).collect();

    // One lexicon-seeded database serves both the raw lookup measurements
    // and (wrapped in CrypText) the normalization measurements.
    let cx = CrypText::new(build_db(&platform));
    let db = cx.database();
    let stats = db.stats();

    // A query mix of clean words, observed perturbations, and misses.
    let queries: Vec<&str> = [
        "democrats",
        "republicans",
        "vaccine",
        "suicide",
        "muslim",
        "depression",
        "vacc1ne",
        "the",
        "demokrats",
        "zzzmiss",
        "lesbian",
        "dirty",
    ]
    .into_iter()
    .collect();
    let params = LookupParams::paper_default();

    // Normalization over a slice of real (perturbed) feed texts.
    let norm_texts: Vec<&str> = texts.iter().take(NORM_TEXTS).map(|s| s.as_str()).collect();

    if check_only {
        let invariants = compute_invariants(db, &cx, &queries, &norm_texts);
        match check_committed(&invariants)
            .and_then(|lookup_json| {
                check_sharded(db, &queries, invariants.hits_per_round, &lookup_json)
            })
            .and_then(|()| check_ingest(&texts))
            .and_then(|()| check_service())
            .and_then(|()| check_cache(&platform))
            .and_then(|()| check_http())
            .and_then(|()| check_metrics_overhead(db, &cx, &queries, &norm_texts))
        {
            Ok(()) => {
                println!(
                    "bench invariants ok: total_hits {} per round × {MEASURE_ROUNDS}, \
                     corrections {} per round × {NORM_ROUNDS}",
                    invariants.hits_per_round, invariants.corrections_per_round
                );
                return;
            }
            Err(msg) => {
                eprintln!("bench invariant drift: {msg}");
                std::process::exit(1);
            }
        }
    }

    // Ingest timing: the same corpus sequentially and in one parallel
    // batch. Measurement-mode only — check mode never reads the timings,
    // and the seq == par equivalence is already pinned by unit tests.
    let ingest_seq_start = Instant::now();
    let mut db_seq = TokenDatabase::with_lexicon();
    for t in &texts {
        db_seq.ingest_text(t);
    }
    let ingest_seq_ms = ingest_seq_start.elapsed().as_secs_f64() * 1e3;

    let ingest_par_start = Instant::now();
    let mut db_par = TokenDatabase::with_lexicon();
    db_par.ingest_texts(&texts);
    let ingest_par_ms = ingest_par_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(db_seq.stats(), db_par.stats(), "parallel ingest must agree");

    // Durable streaming ingest: per-batch delta-log append latency vs the
    // full persist_to it replaces as the durability point, plus compaction
    // wall time — O(batch) appends against the O(corpus) alternative.
    let ingest_slice = &texts[..INGEST_BATCHES.min(texts.len())];
    let dur_dir =
        std::env::temp_dir().join(format!("cryptext-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dur_dir);
    let mut dur = DurableTokenStore::<TokenDatabase>::open(&dur_dir, DurableOptions::default())
        .expect("open durable store");
    let mut append_us: Vec<f64> = Vec::with_capacity(ingest_slice.len());
    let mut compact_ms: Vec<f64> = Vec::new();
    let ingest_wall = Instant::now();
    for (i, t) in ingest_slice.iter().enumerate() {
        let start = Instant::now();
        dur.try_ingest_text(t).expect("durable ingest");
        append_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        if (i + 1) % COMPACT_EVERY == 0 {
            let c = Instant::now();
            dur.compact().expect("compaction");
            compact_ms.push(c.elapsed().as_secs_f64() * 1e3);
        }
    }
    let ingest_wall_s = ingest_wall.elapsed().as_secs_f64();
    let dur_stats = dur.inner().stats();
    let final_epoch = dur.epoch();

    let full_store = Database::in_memory();
    let full_persist_start = Instant::now();
    dur.inner()
        .persist_to(&full_store, "tokens")
        .expect("full persist");
    let full_persist_ms = full_persist_start.elapsed().as_secs_f64() * 1e3;

    // Recovery smoke: reopening replays snapshot + logs to the same state.
    drop(dur);
    let reopened = DurableTokenStore::<TokenDatabase>::open(&dur_dir, DurableOptions::default())
        .expect("recovery open");
    assert_eq!(
        reopened.inner().stats(),
        dur_stats,
        "recovered state must be identical"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dur_dir);

    append_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pick_append = |q: f64| append_us[((append_us.len() - 1) as f64 * q).round() as usize];
    let append_p50_us = pick_append(0.5);
    let append_p99_us = pick_append(0.99);
    let compact_mean_ms = compact_ms.iter().sum::<f64>() / compact_ms.len() as f64;
    let compact_max_ms = compact_ms.iter().cloned().fold(0.0f64, f64::max);

    let mut scratch = LookupScratch::new();
    for _ in 0..WARMUP_ROUNDS {
        for q in &queries {
            let _ = look_up_with(db, q, params, &mut scratch).unwrap();
            let _ = look_up_naive(db, q, params).unwrap();
        }
    }

    let optimized = measure(&queries, MEASURE_ROUNDS, |q| {
        look_up_with(db, q, params, &mut scratch).unwrap().len()
    });
    let naive = measure(&queries, MEASURE_ROUNDS, |q| {
        look_up_naive(db, q, params).unwrap().len()
    });
    assert_eq!(
        optimized.total_hits, naive.total_hits,
        "engines must retrieve identical result sets"
    );
    let lookup_speedup = naive.p50_us / optimized.p50_us;

    // The shards dimension: the same workload over the consistent-hash
    // sharded backend at every configured count. Byte-identical results
    // are asserted (total_hits), the single-shard entry doubles as the
    // trait-indirection regression guard against `optimized`, and each
    // entry records the Bloom routing's deterministic skip statistics
    // (shard walks issued vs skipped) plus the fan-out width available to
    // the per-query parallel walk on this machine.
    let sharded_measurements: Vec<(usize, Measured, usize, usize)> = SHARD_COUNTS
        .iter()
        .map(|&n| {
            let wide = ShardedTokenDatabase::from_database(db, n);
            let mut scratch = LookupScratch::new();
            for _ in 0..WARMUP_ROUNDS {
                for q in &queries {
                    let _ = look_up_with(&wide, q, params, &mut scratch).unwrap();
                }
            }
            let m = measure(&queries, MEASURE_ROUNDS, |q| {
                look_up_with(&wide, q, params, &mut scratch).unwrap().len()
            });
            assert_eq!(
                m.total_hits, optimized.total_hits,
                "{n}-shard backend must retrieve identical result sets"
            );
            let (walks, skipped) = skip_stats(&wide, &queries);
            (n, m, walks, skipped)
        })
        .collect();

    // Normalization: the zero-copy scratch-reusing engine vs the kept
    // naive reference, on identical texts.
    let normalizer = Normalizer::new(cx.language_model());
    let mut norm_scratch = NormalizeScratch::new();
    for t in &norm_texts {
        let fast = normalizer
            .normalize_with(
                cx.database(),
                t,
                NormalizeParams::default(),
                &mut norm_scratch,
            )
            .unwrap();
        let slow = normalizer
            .normalize_naive(cx.database(), t, NormalizeParams::default())
            .unwrap();
        assert_eq!(fast, slow, "normalization engines must agree on {t:?}");
    }

    let norm_opt = measure(&norm_texts, NORM_ROUNDS, |t| {
        normalizer
            .normalize_with(
                cx.database(),
                t,
                NormalizeParams::default(),
                &mut norm_scratch,
            )
            .unwrap()
            .corrections
            .len()
    });
    let norm_naive = measure(&norm_texts, NORM_ROUNDS, |t| {
        normalizer
            .normalize_naive(cx.database(), t, NormalizeParams::default())
            .unwrap()
            .corrections
            .len()
    });
    assert_eq!(
        norm_opt.total_hits, norm_naive.total_hits,
        "engines must produce identical corrections"
    );
    let norm_speedup = norm_naive.p50_us / norm_opt.p50_us;

    // ---- BENCH_lookup.json (same shape as PR 1, for trajectory diffs) ----
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"lookup\",");
    let _ = writeln!(
        out,
        "  \"corpus\": {{ \"posts\": {N_POSTS}, \"seed\": {SEED} }},"
    );
    let _ = writeln!(
        out,
        "  \"db\": {{ \"unique_tokens\": {}, \"sounds_k1\": {}, \"total_occurrences\": {} }},",
        stats.unique_tokens, stats.unique_sounds[1], stats.total_occurrences
    );
    let _ = writeln!(
        out,
        "  \"ingest\": {{ \"sequential_ms\": {ingest_seq_ms:.1}, \"parallel_batch_ms\": {ingest_par_ms:.1}, \"threads\": {} }},",
        cryptext_common::par::max_threads()
    );
    let _ = writeln!(out, "  \"lookup_k1_d3\": {{");
    json_block(&mut out, "optimized", &optimized, "total_hits", false);
    json_block(&mut out, "naive", &naive, "total_hits", false);
    let _ = writeln!(
        out,
        "    \"speedup_p50_naive_over_optimized\": {lookup_speedup:.2}"
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"shards\": [");
    for (i, (n, m, walks, skipped)) in sharded_measurements.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"shards\": {n}, \"queries_per_sec\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"total_hits\": {}, \"fan_out_threads\": {}, \"shard_walks\": {walks}, \"skipped_shard_walks\": {skipped}, \"skip_rate\": {:.2} }}{}",
            m.queries_per_sec,
            m.p50_us,
            m.p99_us,
            m.total_hits,
            cryptext_common::par::max_threads().min(*n),
            *skipped as f64 / *walks as f64,
            if i + 1 == sharded_measurements.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"normalize_default\": {{");
    let _ = writeln!(
        out,
        "    \"texts_per_sec\": {:.1},",
        norm_opt.queries_per_sec
    );
    let _ = writeln!(out, "    \"p50_us\": {:.2},", norm_opt.p50_us);
    let _ = writeln!(out, "    \"p99_us\": {:.2}", norm_opt.p99_us);
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    std::fs::write("BENCH_lookup.json", &out).expect("write BENCH_lookup.json");
    print!("{out}");

    // ---- BENCH_normalize.json (optimized vs naive, invariants) ----
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"normalize\",");
    let _ = writeln!(
        out,
        "  \"corpus\": {{ \"posts\": {N_POSTS}, \"seed\": {SEED}, \"texts\": {NORM_TEXTS}, \"rounds\": {NORM_ROUNDS} }},"
    );
    let _ = writeln!(out, "  \"normalize_default\": {{");
    json_block(&mut out, "optimized", &norm_opt, "corrections_total", false);
    json_block(&mut out, "naive", &norm_naive, "corrections_total", false);
    let _ = writeln!(
        out,
        "    \"speedup_p50_naive_over_optimized\": {norm_speedup:.2}"
    );
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    std::fs::write("BENCH_normalize.json", &out).expect("write BENCH_normalize.json");
    print!("{out}");

    // ---- BENCH_ingest.json (durable streaming-ingest dimension) ----
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"ingest\",");
    let _ = writeln!(
        out,
        "  \"corpus\": {{ \"posts\": {N_POSTS}, \"seed\": {SEED} }},"
    );
    let _ = writeln!(out, "  \"durable\": {{");
    let _ = writeln!(out, "    \"batches\": {},", ingest_slice.len());
    let _ = writeln!(out, "    \"append_p50_us\": {append_p50_us:.2},");
    let _ = writeln!(out, "    \"append_p99_us\": {append_p99_us:.2},");
    let _ = writeln!(
        out,
        "    \"batches_per_sec\": {:.1},",
        ingest_slice.len() as f64 / ingest_wall_s
    );
    let _ = writeln!(out, "    \"unique_tokens\": {},", dur_stats.unique_tokens);
    let _ = writeln!(
        out,
        "    \"total_occurrences\": {}",
        dur_stats.total_occurrences
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"compaction\": {{ \"compactions\": {}, \"wall_ms_mean\": {compact_mean_ms:.1}, \"wall_ms_max\": {compact_max_ms:.1}, \"final_epoch\": {final_epoch} }},",
        compact_ms.len()
    );
    let _ = writeln!(out, "  \"full_persist_ms\": {full_persist_ms:.1},");
    let _ = writeln!(
        out,
        "  \"durability_cost_ratio_full_persist_over_append_p50\": {:.1}",
        full_persist_ms * 1e3 / append_p50_us
    );
    out.push_str("}\n");
    std::fs::write("BENCH_ingest.json", &out).expect("write BENCH_ingest.json");
    print!("{out}");

    // ---- BENCH_service.json (gateway overload dimension) ----
    let chor = run_service_choreography();

    // Admission overhead: the same Look Up mix through the full layer
    // onion (admission → auth → coalescing → deadline → pool dispatch)
    // vs the direct service endpoint, uncontended and sequential so the
    // difference is pure layering cost.
    let svc = service_fixture();
    let gw: Arc<Gateway<TokenDatabase>> =
        Arc::new(Gateway::new(Arc::clone(&svc), GatewayConfig::default()));
    let auth = svc.issue_token("bench-overhead");
    let gate_queries = GATE_QUERIES;
    for _ in 0..WARMUP_ROUNDS {
        for q in gate_queries {
            let _ = svc.look_up(&auth, q, params).unwrap();
            let _ = gw
                .look_up(&auth, q, params, CallOptions::default())
                .unwrap();
        }
    }
    let svc_direct = measure(&gate_queries, SERVICE_ROUNDS, |q| {
        svc.look_up(&auth, q, params).unwrap().len()
    });
    let svc_gated = measure(&gate_queries, SERVICE_ROUNDS, |q| {
        gw.look_up(&auth, q, params, CallOptions::default())
            .unwrap()
            .len()
    });
    assert_eq!(
        svc_gated.total_hits, svc_direct.total_hits,
        "the gateway adds layers, not different results"
    );

    let capacity = STORM_BUDGET.0 + STORM_BUDGET.1;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"service\",");
    let _ = writeln!(
        out,
        "  \"gateway\": {{ \"storm_max_concurrent\": {}, \"storm_max_queued\": {} }},",
        STORM_BUDGET.0, STORM_BUDGET.1
    );
    let _ = writeln!(
        out,
        "  \"admission_overhead\": {{ \"direct_p50_us\": {:.2}, \"gateway_p50_us\": {:.2}, \"overhead_p50_us\": {:.2} }},",
        svc_direct.p50_us,
        svc_gated.p50_us,
        svc_gated.p50_us - svc_direct.p50_us
    );
    let _ = writeln!(
        out,
        "  \"storm_10x\": {{ \"requests\": {STORM_REQUESTS}, \"capacity\": {capacity}, \"completed\": {}, \"shed\": {}, \"shed_rate\": {:.2} }},",
        chor.storm_completed,
        chor.storm_shed,
        chor.storm_shed as f64 / STORM_REQUESTS as f64
    );
    let _ = writeln!(
        out,
        "  \"coalesce_wave\": {{ \"requests\": {WAVE_REQUESTS}, \"executions\": {}, \"coalesced_followers\": {}, \"coalesce_hit_rate\": {:.3} }}",
        chor.wave_executions,
        chor.wave_followers,
        chor.wave_followers as f64 / WAVE_REQUESTS as f64
    );
    out.push_str("}\n");
    std::fs::write("BENCH_service.json", &out).expect("write BENCH_service.json");
    print!("{out}");

    // ---- BENCH_cache.json (tiered result-cache dimension) ----
    let cache = run_cache_replay(&platform);
    let cache_hit_rate = cache.result_hits as f64 / CACHE_REPLAY as f64;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"cache\",");
    let _ = writeln!(
        out,
        "  \"corpus\": {{ \"posts\": {N_POSTS}, \"seed\": {SEED} }},"
    );
    let _ = writeln!(out, "  \"zipf_replay\": {{");
    let _ = writeln!(out, "    \"requests\": {CACHE_REPLAY},");
    let _ = writeln!(out, "    \"distinct_texts\": {CACHE_POOL},");
    let _ = writeln!(out, "    \"zipf_s\": {CACHE_ZIPF_S},");
    let _ = writeln!(out, "    \"p50_us\": {:.2},", cache.replay_p50_us);
    let _ = writeln!(out, "    \"p99_us\": {:.2},", cache.replay_p99_us);
    let _ = writeln!(out, "    \"result_hits\": {},", cache.result_hits);
    let _ = writeln!(out, "    \"result_misses\": {},", cache.result_misses);
    let _ = writeln!(out, "    \"candidate_hits\": {},", cache.candidate_hits);
    let _ = writeln!(out, "    \"candidate_misses\": {},", cache.candidate_misses);
    let _ = writeln!(out, "    \"hit_rate\": {cache_hit_rate:.4},");
    let _ = writeln!(
        out,
        "    \"negative_candidate_hits\": {},",
        cache.negative_candidate_hits
    );
    let _ = writeln!(
        out,
        "    \"invalidation_bumps\": {},",
        cache.invalidation_bumps
    );
    let _ = writeln!(
        out,
        "    \"invalidated_entries\": {}",
        cache.invalidated_entries
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"latency_split\": {{");
    let _ = writeln!(
        out,
        "    \"uncached_p50_us\": {:.2},",
        cache.uncached.p50_us
    );
    let _ = writeln!(
        out,
        "    \"uncached_p99_us\": {:.2},",
        cache.uncached.p99_us
    );
    let _ = writeln!(out, "    \"warm_hit_p50_us\": {:.2},", cache.warm.p50_us);
    let _ = writeln!(out, "    \"warm_hit_p99_us\": {:.2},", cache.warm.p99_us);
    let _ = writeln!(
        out,
        "    \"speedup_p50_uncached_over_hit\": {:.2}",
        cache.uncached.p50_us / cache.warm.p50_us
    );
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    std::fs::write("BENCH_cache.json", &out).expect("write BENCH_cache.json");
    print!("{out}");

    // ---- BENCH_http.json (HTTP wire dimension) ----
    let http = run_http_overhead(HTTP_ROUNDS);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"http\",");
    let _ = writeln!(
        out,
        "  \"workload\": {{ \"queries\": {}, \"rounds\": {HTTP_ROUNDS} }},",
        GATE_QUERIES.len()
    );
    out.push_str("  \"paths\": {\n");
    json_block(&mut out, "wire", &http.wire, "total_hits", false);
    json_block(&mut out, "direct_gateway", &http.direct, "total_hits", true);
    out.push_str("  },\n");
    let _ = writeln!(
        out,
        "  \"wire_overhead\": {{ \"p50_us\": {:.2}, \"p99_us\": {:.2} }},",
        http.wire.p50_us - http.direct.p50_us,
        http.wire.p99_us - http.direct.p99_us
    );
    let _ = writeln!(out, "  \"requests_served\": {}", http.requests_served);
    out.push_str("}\n");
    std::fs::write("BENCH_http.json", &out).expect("write BENCH_http.json");
    print!("{out}");

    eprintln!(
        "lookup p50: optimized {:.2}µs vs naive {:.2}µs → {lookup_speedup:.2}x",
        optimized.p50_us, naive.p50_us
    );
    eprintln!(
        "normalize p50: optimized {:.2}µs vs naive {:.2}µs → {norm_speedup:.2}x",
        norm_opt.p50_us, norm_naive.p50_us
    );
    for (n, m, walks, skipped) in &sharded_measurements {
        eprintln!(
            "lookup p50 over {n} shard(s): {:.2}µs (skip rate {skipped}/{walks})",
            m.p50_us
        );
    }
    eprintln!(
        "durable ingest: append p50 {append_p50_us:.2}µs vs full persist \
         {full_persist_ms:.1}ms per durability point; compaction mean {compact_mean_ms:.1}ms"
    );
    eprintln!(
        "gateway: admission overhead p50 {:.2}µs ({:.2}µs gated vs {:.2}µs direct); \
         storm shed {}/{}; coalesce {}/{} followers, {} execution(s)",
        svc_gated.p50_us - svc_direct.p50_us,
        svc_gated.p50_us,
        svc_direct.p50_us,
        chor.storm_shed,
        STORM_REQUESTS,
        chor.wave_followers,
        WAVE_REQUESTS,
        chor.wave_executions
    );
    eprintln!(
        "cache: warm hit p50 {:.2}µs vs uncached {:.2}µs ({:.1}x); Zipf replay p99 {:.2}µs \
         at {:.1}% result-hit rate ({} result hits / {} misses; candidates {} hits / {} \
         misses, {} negative)",
        cache.warm.p50_us,
        cache.uncached.p50_us,
        cache.uncached.p50_us / cache.warm.p50_us,
        cache.replay_p99_us,
        cache_hit_rate * 100.0,
        cache.result_hits,
        cache.result_misses,
        cache.candidate_hits,
        cache.candidate_misses,
        cache.negative_candidate_hits
    );
    eprintln!(
        "http: wire p50 {:.2}µs vs direct gateway {:.2}µs → {:.2}µs wire tax \
         ({} requests over one keep-alive connection)",
        http.wire.p50_us,
        http.direct.p50_us,
        http.wire.p50_us - http.direct.p50_us,
        http.requests_served
    );
}
