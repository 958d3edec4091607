//! The serving stack (service → gateway → `HttpServer` on loopback, the
//! shape of `examples/serve_http.rs`), the closed-loop client that drives
//! it, output checks against in-process references, and the layer-replay
//! trace.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cryptext::common::metrics::MetricsSnapshot;
use cryptext::common::{par, SystemClock};
use cryptext::core::database::TokenDatabase;
use cryptext::core::durable::DurableTokenStore;
use cryptext::core::lookup::{look_up_naive, look_up_with, LookupParams, LookupScratch};
use cryptext::core::normalize::{NormalizeParams, NormalizeScratch, Normalizer};
use cryptext::core::perturb::{PerturbParams, Perturber};
use cryptext::core::service::{ApiToken, CryptextService, Served, ServiceConfig};
use cryptext::core::{CrypText, TokenStore};
use cryptext::gateway::{Gateway, GatewayConfig, Request, RouteOutput};
use cryptext::http::{HttpConfig, HttpServer, ServeReport, ShutdownHandle};
use cryptext::lm::NgramLm;

use crate::client::Client;
use crate::gen::{feed_texts, Req, Route, Stream, PERTURB_RATIO};
use crate::procstat::{ProcWindow, WindowCost};
use crate::report::{mean, median, quantile, ratio, Context, Metrics, Tally};
use crate::speed::{factor, Probe, Reading};

/// The serve fixture's feed: fixed, and distinct from every request seed.
pub const FIXTURE_FEED_SEED: u64 = 20_230_403;
/// Posts in the serve fixture (the repo's bench corpus has 4,000).
pub const FIXTURE_POSTS: usize = 20_000;

/// Stores the reference implementations can read directly.
pub trait Reference: TokenStore + Send + Sync + 'static {
    fn reference_db(&self) -> &TokenDatabase;
}

impl Reference for TokenDatabase {
    fn reference_db(&self) -> &TokenDatabase {
        self
    }
}

impl Reference for DurableTokenStore<TokenDatabase> {
    fn reference_db(&self) -> &TokenDatabase {
        self.inner()
    }
}

fn to_io(e: cryptext::common::Error) -> io::Error {
    io::Error::other(e.to_string())
}

/// The serve workloads' system: lexicon plus the fixture feed, with the
/// LM trained on its clean sentences.
pub fn fixture_system() -> CrypText<TokenDatabase> {
    let feed = feed_texts(FIXTURE_FEED_SEED, FIXTURE_POSTS);
    let mut db = TokenDatabase::with_lexicon();
    db.ingest_texts(&feed);
    CrypText::new(db)
}

/// One deployment: service → gateway, optionally behind a bound server.
pub struct Stack<S: Reference> {
    pub gateway: Arc<Gateway<S>>,
    pub token: ApiToken,
    server: Option<(SocketAddr, ShutdownHandle, JoinHandle<ServeReport>)>,
}

impl<S: Reference> Stack<S> {
    /// Every config at its default except the rate limit, raised so no
    /// request is refused (the default 600/minute would return 429s).
    pub fn up(system: CrypText<S>, bind: bool) -> io::Result<Self> {
        let config = ServiceConfig {
            rate_limit_per_minute: u32::MAX,
            ..ServiceConfig::default()
        };
        let service = CryptextService::new(system, config, Arc::new(SystemClock));
        let token = service.issue_token("bench");
        let gateway = Arc::new(Gateway::new(Arc::new(service), GatewayConfig::default()));
        let server = if bind {
            let server =
                HttpServer::bind(Arc::clone(&gateway), HttpConfig::default(), "127.0.0.1:0")
                    .map_err(to_io)?;
            let addr = server.local_addr().map_err(to_io)?;
            let handle = server.handle();
            Some((addr, handle, std::thread::spawn(move || server.serve())))
        } else {
            None
        };
        Ok(Stack {
            gateway,
            token,
            server,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("a bound stack").0
    }

    pub fn service(&self) -> &CryptextService<S> {
        self.gateway.service()
    }
}

/// Dropping a stack shuts its server down and waits for the drain: an
/// idle server left running polls its listener every few milliseconds on
/// the benchmark's CPU.
impl<S: Reference> Drop for Stack<S> {
    fn drop(&mut self) {
        if let Some((_, handle, join)) = self.server.take() {
            handle.shutdown();
            if join.join().is_err() {
                eprintln!("server thread panicked");
            }
        }
    }
}

pub fn perturb_params(seed: u64) -> PerturbParams {
    PerturbParams::with_ratio(PERTURB_RATIO).seeded(seed)
}

/// The reference output of one request, as its wire body.
fn expected_json(db: &TokenDatabase, lm: &NgramLm, route: Route, input: &str, seed: u64) -> String {
    let out = match route {
        Route::Lookup => {
            look_up_naive(db, input, LookupParams::paper_default()).map(RouteOutput::Lookup)
        }
        Route::Normalize => Normalizer::new(lm)
            .normalize_naive(db, input, NormalizeParams::default())
            .map(RouteOutput::Normalize),
        Route::Perturb => Perturber::new(db)
            .perturb(input, perturb_params(seed))
            .map(RouteOutput::Perturb),
    };
    out.map_or_else(|e| format!("reference error: {e}"), |o| o.to_json())
}

/// One answered request: what was asked, how long it took, and a digest
/// of the body for the output check.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub req: Req,
    pub ns: u64,
    /// Send time, µs after the measured window opened.
    pub at_us: u32,
    pub status: u16,
    pub hash: u64,
}

/// One traced layer crossing. `start_ns`/`end_ns` count from the first
/// span of the process.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u32,
    pub layer: Layer,
    pub route: Route,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Http,
    Gateway,
    Service,
    Engine,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Http => "http",
            Layer::Gateway => "gateway",
            Layer::Service => "service",
            Layer::Engine => "engine",
        }
    }
}

/// SipHash digest of a response body: the output check compares digests,
/// not whole bodies, to keep a run's samples small.
fn digest(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

fn since_epoch(t: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// Check every sample against the reference, on two threads. Returns the
/// number of 200 responses whose body differs; non-200s are counted as
/// failures by [`tally`].
fn verify(samples: &[Sample], stream: &Stream, db: &TokenDatabase, lm: &NgramLm) -> u64 {
    let part = |samples: &[Sample]| -> u64 {
        let mut memo: HashMap<(Route, u32), u64> = HashMap::new();
        let mut wrong = 0;
        let expect = |req: &Req| {
            digest(expected_json(db, lm, req.route, stream.input(req), req.seed).as_bytes())
        };
        for s in samples.iter().filter(|s| s.status == 200) {
            let expected = match s.req.route {
                Route::Perturb => expect(&s.req),
                _ => *memo
                    .entry((s.req.route, s.req.input))
                    .or_insert_with(|| expect(&s.req)),
            };
            if expected != s.hash {
                if wrong == 0 {
                    eprintln!(
                        "output mismatch: {} {:?}",
                        s.req.route.name(),
                        stream.input(&s.req)
                    );
                }
                wrong += 1;
            }
        }
        wrong
    };
    let (a, b) = samples.split_at(samples.len() / 2);
    std::thread::scope(|scope| {
        let first = scope.spawn(|| part(a));
        let second = part(b);
        first.join().expect("verifier thread") + second
    })
}

/// Attempted and failed requests among `samples`.
fn tally(samples: &[Sample]) -> Tally {
    Tally {
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| s.status != 200).count() as u64,
        wrong: 0,
    }
}

/// Closed loop over `reqs` on one connection, stopping at `deadline`.
/// With `spans`, also records an HTTP span per request.
fn drive(
    client: &mut Client,
    stream: &Stream,
    reqs: &[Req],
    deadline: Option<Instant>,
    out: &mut Vec<Sample>,
    mut spans: Option<&mut Vec<Span>>,
    mut probe: Option<&mut Probe>,
) -> io::Result<()> {
    let origin = Instant::now();
    if let Some(p) = probe.as_deref_mut() {
        p.reset(origin);
    }
    let mut next_probe = origin;
    for req in reqs {
        let mut t0 = Instant::now();
        if deadline.is_some_and(|d| t0 >= d) {
            break;
        }
        if let Some(p) = probe.as_deref_mut() {
            if t0 >= next_probe {
                p.run();
                t0 = Instant::now();
                next_probe = t0 + PROBE_EVERY;
            }
        }
        let reply = client.call(req.route, stream.input(req), req.seed)?;
        let t1 = Instant::now();
        let (status, hash) = (reply.status, digest(reply.body));
        if let Some(spans) = spans.as_deref_mut() {
            spans.push(Span {
                request: out.len() as u32,
                layer: Layer::Http,
                route: req.route,
                start_ns: since_epoch(t0),
                end_ns: since_epoch(t1),
            });
        }
        out.push(Sample {
            req: *req,
            ns: (t1 - t0).as_nanos() as u64,
            at_us: (t0 - origin).as_micros() as u32,
            status,
            hash,
        });
    }
    Ok(())
}

/// One measured pass over HTTP.
pub struct HttpRun {
    pub warm: Vec<Sample>,
    pub timed: Vec<Sample>,
    pub elapsed: Duration,
    pub cost: WindowCost,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// Speed probe readings taken through the timed window.
    pub probe: Vec<Reading>,
    /// The stream ran out before the window did.
    pub exhausted: bool,
    pub io_error: bool,
}

/// Warm up over `stream.warmup`, then time `reqs` (all of them, or until
/// `window` elapses).
pub fn run_http<S: Reference>(
    stack: &Stack<S>,
    stream: &Stream,
    reqs: &[Req],
    window: Option<Duration>,
    spans: Option<&mut Vec<Span>>,
) -> HttpRun {
    let mut run = HttpRun {
        warm: Vec::with_capacity(stream.warmup.len()),
        timed: Vec::with_capacity(reqs.len()),
        elapsed: Duration::ZERO,
        cost: WindowCost::default(),
        before: MetricsSnapshot::default(),
        after: MetricsSnapshot::default(),
        probe: Vec::new(),
        exhausted: false,
        io_error: false,
    };
    let outcome = (|| -> io::Result<()> {
        let mut client = Client::connect(stack.addr(), stack.token.as_str())?;
        drive(
            &mut client,
            stream,
            &stream.warmup,
            None,
            &mut run.warm,
            None,
            None,
        )?;
        let mut probe = Probe::start()?;
        run.before = stack.gateway.metrics().snapshot();
        let proc_window = ProcWindow::start();
        let started = Instant::now();
        let result = drive(
            &mut client,
            stream,
            reqs,
            window.map(|w| started + w),
            &mut run.timed,
            spans,
            Some(&mut probe),
        );
        run.elapsed = started.elapsed();
        run.cost = proc_window.finish();
        run.after = stack.gateway.metrics().snapshot();
        run.probe = std::mem::take(&mut probe.readings);
        result
    })();
    if let Err(e) = outcome {
        eprintln!("http client error: {e}");
        run.io_error = true;
    }
    run.exhausted = window.is_some() && run.timed.len() == reqs.len();
    run
}

/// A route's latencies in µs, scaled by the speed factor `f` of the pass
/// that measured them.
fn latencies_us(samples: &[Sample], route: Route, f: f64) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.req.route == route)
        .map(|s| s.ns as f64 / 1e3 * f)
        .collect()
}

/// The serving end-to-end metrics of one timed window.
pub struct ServeFigures {
    pub p50_us: [f64; 3],
    pub p99_us: f64,
    pub requests_per_s: f64,
}

/// Gap between speed probes in a timed window.
const PROBE_EVERY: Duration = Duration::from_millis(10);
/// Requests between speed probes in a replay.
const PROBE_EVERY_REQS: usize = 256;

/// Length of the slices a timed window is cut into.
pub const SLICE: Duration = Duration::from_millis(500);

/// Each figure is computed per `SLICE` of the window, scaled to reference
/// speed by the slice's speed probes (see `speed`), and reported as the
/// median over slices, so a burst or a stall that covers a minority of
/// them is ignored.
pub fn serve_figures(run: &HttpRun, ctx: &mut Context) -> ServeFigures {
    let slice_us = SLICE.as_micros() as u32;
    let n_slices = (run.elapsed.as_micros() as u32 / slice_us).max(1) as usize;
    let mut slices: Vec<Vec<&Sample>> = vec![Vec::new(); n_slices];
    for s in &run.timed {
        if let Some(slice) = slices.get_mut((s.at_us / slice_us) as usize) {
            slice.push(s);
        }
    }
    let mut probes: Vec<Vec<Reading>> = vec![Vec::new(); n_slices];
    for r in &run.probe {
        if let Some(slice) = probes.get_mut((r.at_us / slice_us) as usize) {
            slice.push(*r);
        }
    }
    let mut p50: [Vec<f64>; 3] = Default::default();
    let (mut p99, mut rate, mut raw_rate) = (Vec::new(), Vec::new(), Vec::new());
    for (slice, probe) in slices
        .iter()
        .zip(&probes)
        .filter(|(s, p)| !s.is_empty() && !p.is_empty())
    {
        let f = factor(probe);
        let us = |s: &&Sample| s.ns as f64 / 1e3 * f;
        for route in Route::ALL {
            let lat: Vec<f64> = slice
                .iter()
                .filter(|s| s.req.route == route)
                .map(us)
                .collect();
            p50[route as usize].push(quantile(&lat, 0.5));
        }
        p99.push(quantile(&slice.iter().map(us).collect::<Vec<_>>(), 0.99));
        // Requests over the slice's measured span (first send to last
        // reply, less the probes), so the rate keeps all its digits.
        let (first, last) = (slice[0], slice[slice.len() - 1]);
        let probe_us: f64 = probe.iter().map(|r| r.ns as f64 / 1e3).sum();
        let span_us = f64::from(last.at_us - first.at_us) + last.ns as f64 / 1e3 - probe_us;
        raw_rate.push(slice.len() as f64 / (span_us / 1e6));
        rate.push(slice.len() as f64 / (span_us / 1e6) / f);
    }
    let n = run.timed.len().max(1) as f64;
    ctx.put("timed_requests", run.timed.len() as f64);
    ctx.put("slices", p99.len() as f64);
    ctx.put("p99_samples_per_slice", n / p99.len().max(1) as f64);
    ctx.put("stream_exhausted", f64::from(u8::from(run.exhausted)));
    ctx.put("client_cpu_us_per_req", run.cost.client_cpu_us / n);
    ctx.put("sched_wait_us_per_req", run.cost.wait_us / n);
    ctx.put("host_steal_pct", run.cost.steal_pct);
    ctx.put("requests_per_s_raw", median(&raw_rate));
    ctx.put("host_speed_factor", factor(&run.probe));
    ServeFigures {
        p50_us: p50.map(|v| median(&v)),
        p99_us: median(&p99),
        requests_per_s: median(&rate),
    }
}

/// Tier-1 caches: (metric name, registry `tier` label).
const TIERS: [(&str, &str); 3] = [
    ("lookup", "lookup"),
    ("results", "normalize_results"),
    ("candidates", "normalize"),
];

fn tier_delta(run: &HttpRun, counter: &str, tier: &str) -> u64 {
    run.after.counter_labeled(counter, "tier", tier)
        - run.before.counter_labeled(counter, "tier", tier)
}

/// `serve_cold` steady state: every tier-1 cache was evicting before the
/// window began and kept evicting during it.
pub fn cold_guard(run: &HttpRun) -> bool {
    TIERS.iter().all(|&(name, tier)| {
        let before = run
            .before
            .counter_labeled("cryptext_cache_evictions_total", "tier", tier);
        let during = tier_delta(run, "cryptext_cache_evictions_total", tier);
        if before == 0 || during == 0 {
            eprintln!("steady-state guard: {name} cache evictions before={before} during={during}");
        }
        before > 0 && during > 0
    })
}

/// Hot steady state: every cacheable request in the window hit tier-1.
pub fn hot_guard(run: &HttpRun) -> bool {
    TIERS[..2].iter().all(|&(name, tier)| {
        let misses = tier_delta(run, "cryptext_cache_misses_total", tier);
        if misses > 0 {
            eprintln!("hot guard: {misses} {name} cache misses during the window");
        }
        misses == 0
    })
}

/// Run `job` on a worker of the shared pool, where the gateway executes
/// inline exactly as it does under an HTTP connection handler.
fn on_pool_worker<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let job = move || {
        let _ = tx.send(job());
    };
    if let Err(job) = par::spawn(job) {
        job();
    }
    rx.recv().expect("pool job completed")
}

fn gateway_request(stream: &Stream, req: &Req) -> Request {
    let input = stream.input(req);
    match req.route {
        Route::Lookup => Request::lookup(input, LookupParams::paper_default()),
        Route::Normalize => Request::normalize(input, NormalizeParams::default()),
        Route::Perturb => Request::perturb(input, perturb_params(req.seed)),
    }
}

fn sample_of(
    req: &Req,
    t0: Instant,
    t1: Instant,
    out: &cryptext::common::Result<RouteOutput>,
) -> Sample {
    let (status, hash) = match out {
        Ok(o) => (200, digest(o.to_json().as_bytes())),
        Err(e) => (e.status_code(), 0),
    };
    Sample {
        req: *req,
        ns: (t1 - t0).as_nanos() as u64,
        at_us: 0,
        status,
        hash,
    }
}

fn span_of(i: usize, layer: Layer, req: &Req, t0: Instant, t1: Instant) -> Span {
    Span {
        request: i as u32,
        layer,
        route: req.route,
        start_ns: since_epoch(t0),
        end_ns: since_epoch(t1),
    }
}

/// A replay pass's samples and the speed factor of the probes taken
/// through it.
type Pass = (Vec<Sample>, f64);

/// Replay warm-up then the segment through `Gateway::handle`.
fn replay_gateway<S: Reference>(
    stack: &Stack<S>,
    stream: &Arc<Stream>,
    seg: usize,
) -> io::Result<(Pass, Vec<Span>)> {
    let (gateway, token, stream) = (
        Arc::clone(&stack.gateway),
        stack.token.clone(),
        Arc::clone(stream),
    );
    on_pool_worker(move || {
        for req in &stream.warmup {
            let _ = gateway.handle(&token, gateway_request(&stream, req));
        }
        let mut probe = Probe::start()?;
        let mut samples = Vec::with_capacity(seg);
        let mut spans = Vec::with_capacity(seg);
        for (i, req) in stream.reqs[..seg].iter().enumerate() {
            if i % PROBE_EVERY_REQS == 0 {
                probe.run();
            }
            let request = gateway_request(&stream, req);
            let t0 = Instant::now();
            let out = gateway.handle(&token, request).map(|r| r.output);
            let t1 = Instant::now();
            spans.push(span_of(i, Layer::Gateway, req, t0, t1));
            samples.push(sample_of(req, t0, t1, &out));
        }
        probe.run();
        Ok(((samples, factor(&probe.readings)), spans))
    })
}

/// One service-layer call: the authorization gate plus the prechecked
/// endpoint the gateway runs, with tier-1 provenance.
fn service_call<S: Reference>(
    svc: &CryptextService<S>,
    token: &ApiToken,
    stream: &Stream,
    req: &Req,
) -> cryptext::common::Result<(RouteOutput, Served)> {
    svc.authorize_request(token)?;
    let input = stream.input(req);
    match req.route {
        Route::Lookup => svc
            .look_up_prechecked_traced(input, LookupParams::paper_default(), &mut || None)
            .map(|(h, s)| (RouteOutput::Lookup(h), s)),
        Route::Normalize => svc
            .normalize_prechecked_traced(input, NormalizeParams::default())
            .map(|(r, s)| (RouteOutput::Normalize(r), s)),
        Route::Perturb => svc
            .perturb_prechecked(input, perturb_params(req.seed))
            .map(|o| (RouteOutput::Perturb(o), Served::Cold)),
    }
}

/// The service pass, the engine pass over the same requests, and which
/// of them the service handed to the engine (tier-1 misses and perturb).
struct ServiceReplay {
    service: Pass,
    engine: Pass,
    reached: Vec<bool>,
    spans: Vec<Span>,
}

/// Replay warm-up then the segment through the service, then the whole
/// segment through the engine entry points.
fn replay_service_and_engine<S: Reference>(
    stack: &Stack<S>,
    stream: &Arc<Stream>,
    seg: usize,
) -> io::Result<ServiceReplay> {
    let (gateway, token, stream) = (
        Arc::clone(&stack.gateway),
        stack.token.clone(),
        Arc::clone(stream),
    );
    on_pool_worker(move || {
        let svc = gateway.service();
        for req in &stream.warmup {
            let _ = service_call(svc, &token, &stream, req);
        }
        let mut probe = Probe::start()?;
        let mut svc_samples = Vec::with_capacity(seg);
        let mut spans = Vec::with_capacity(2 * seg);
        let mut reached = Vec::with_capacity(seg);
        for (i, req) in stream.reqs[..seg].iter().enumerate() {
            if i % PROBE_EVERY_REQS == 0 {
                probe.run();
            }
            let t0 = Instant::now();
            let out = service_call(svc, &token, &stream, req);
            let t1 = Instant::now();
            reached.push(matches!(out, Ok((_, Served::Cold))));
            spans.push(span_of(i, Layer::Service, req, t0, t1));
            svc_samples.push(sample_of(req, t0, t1, &out.map(|(o, _)| o)));
        }
        probe.run();
        let svc_pass = (svc_samples, factor(&probe.readings));
        probe.reset(Instant::now());
        let system = svc.system();
        let (db, lm) = (system.database(), system.language_model());
        let mut lookup_scratch = LookupScratch::new();
        let mut normalize_scratch = NormalizeScratch::new();
        let mut engine_samples = Vec::with_capacity(seg);
        for (i, req) in stream.reqs[..seg].iter().enumerate() {
            if i % PROBE_EVERY_REQS == 0 {
                probe.run();
            }
            let input = stream.input(req);
            let t0 = Instant::now();
            let out = match req.route {
                Route::Lookup => look_up_with(
                    db,
                    input,
                    LookupParams::paper_default(),
                    &mut lookup_scratch,
                )
                .map(RouteOutput::Lookup),
                Route::Normalize => Normalizer::new(lm)
                    .normalize_with(
                        db,
                        input,
                        NormalizeParams::default(),
                        &mut normalize_scratch,
                    )
                    .map(RouteOutput::Normalize),
                Route::Perturb => Perturber::new(db)
                    .perturb(input, perturb_params(req.seed))
                    .map(RouteOutput::Perturb),
            };
            let t1 = Instant::now();
            spans.push(span_of(i, Layer::Engine, req, t0, t1));
            engine_samples.push(sample_of(req, t0, t1, &out));
        }
        probe.run();
        Ok(ServiceReplay {
            service: svc_pass,
            engine: (engine_samples, factor(&probe.readings)),
            reached,
            spans,
        })
    })
}

fn check<S: Reference>(
    stack: &Stack<S>,
    samples: &[Sample],
    stream: &Stream,
    tally_out: &mut Tally,
) {
    let system = stack.service().system();
    let mut t = tally(samples);
    t.wrong = verify(
        samples,
        stream,
        system.database().reference_db(),
        system.language_model(),
    );
    tally_out.add(t);
}

/// Check every answer of an HTTP pass, warm-up included; a broken
/// connection counts as one failed operation.
pub fn check_run<S: Reference>(
    stack: &Stack<S>,
    run: &HttpRun,
    stream: &Stream,
    tally_out: &mut Tally,
) {
    check(stack, &run.warm, stream, tally_out);
    check(stack, &run.timed, stream, tally_out);
    if run.io_error {
        tally_out.add(Tally {
            attempted: 1,
            failed: 1,
            wrong: 0,
        });
    }
}

fn counter_delta(run: &HttpRun, name: &str) -> f64 {
    (run.after.counter_total(name) - run.before.counter_total(name)) as f64
}

fn histogram_delta(run: &HttpRun, name: &str) -> f64 {
    (run.after.histogram_count(name) - run.before.histogram_count(name)) as f64
}

/// The layer-replay trace of one serve stream: the first `seg` measured
/// requests replayed once per layer boundary, outermost first, each on an
/// identically built fixture warmed with the same warm-up. Every pass is
/// scaled by its own speed probes, so differences between passes that
/// ran seconds apart are not host pace.
pub fn trace_serve<S: Reference>(
    build: &dyn Fn() -> CrypText<S>,
    stream: &Arc<Stream>,
    seg: usize,
    spans: &mut Vec<Span>,
    m: &mut Metrics,
    tally_out: &mut Tally,
) -> io::Result<()> {
    let seg = seg.min(stream.reqs.len());
    let segment = &stream.reqs[..seg];

    // 1. Untraced HTTP: the baseline for the tracing overhead, plus the
    //    registry counts and process costs of the segment.
    let stack = Stack::up(build(), true)?;
    let plain = run_http(&stack, stream, segment, None, None);
    check_run(&stack, &plain, stream, tally_out);
    drop(stack);

    // 2. Traced HTTP round trips.
    let stack = Stack::up(build(), true)?;
    let traced = run_http(&stack, stream, segment, None, Some(spans));
    check_run(&stack, &traced, stream, tally_out);
    drop(stack);

    // 3. Gateway::handle on a pool worker.
    let stack = Stack::up(build(), false)?;
    let ((gw_samples, gw_f), gw_spans) = replay_gateway(&stack, stream, seg)?;
    check(&stack, &gw_samples, stream, tally_out);
    spans.extend(gw_spans);
    drop(stack);

    // 4 + 5. Service entry points, then the engine entry points.
    let stack = Stack::up(build(), false)?;
    let replay = replay_service_and_engine(&stack, stream, seg)?;
    let ((svc_samples, svc_f), (engine_samples, engine_f)) = (&replay.service, &replay.engine);
    check(&stack, svc_samples, stream, tally_out);
    check(&stack, engine_samples, stream, tally_out);
    spans.extend_from_slice(&replay.spans);
    drop(stack);

    let n = plain.timed.len().max(1) as f64;
    for route in Route::ALL {
        let name = route.name();
        let count = segment.iter().filter(|r| r.route == route).count().max(1) as f64;
        let http = latencies_us(&traced.timed, route, factor(&traced.probe));
        let gw = latencies_us(&gw_samples, route, gw_f);
        let svc = latencies_us(svc_samples, route, *svc_f);
        let engine = latencies_us(engine_samples, route, *engine_f);
        // The engine is the innermost layer, so its self time is the mean
        // of its calls, timed on every request. Only the requests the
        // service handed it (tier-1 misses, perturb) spend it, so the
        // service's self time subtracts just their share, and http +
        // gateway + service + reached share × engine sum to the HTTP mean.
        let engine_share = engine_samples
            .iter()
            .zip(&replay.reached)
            .filter(|(s, &reached)| reached && s.req.route == route)
            .map(|(s, _)| s.ns as f64 / 1e3 * engine_f)
            .sum::<f64>()
            / count;
        m.put(
            format!("http.self_us.{name}"),
            mean(&http) - mean(&gw),
            "us",
        );
        m.put(
            format!("gateway.self_us.{name}"),
            mean(&gw) - mean(&svc),
            "us",
        );
        m.put(
            format!("service.self_us.{name}"),
            mean(&svc) - engine_share,
            "us",
        );
        m.put(format!("engine.self_us.{name}"), mean(&engine), "us");
        m.put(format!("http.p50_us.{name}"), quantile(&http, 0.5), "us");
        m.put(format!("gateway.p50_us.{name}"), quantile(&gw, 0.5), "us");
        m.put(format!("service.p50_us.{name}"), quantile(&svc, 0.5), "us");
        m.put(
            format!("engine.p50_us.{name}"),
            quantile(&engine, 0.5),
            "us",
        );
        m.put(
            format!("engine.p99_us.{name}"),
            quantile(&engine, 0.99),
            "us",
        );
    }
    // Both means at reference speed: the two passes run seconds apart,
    // long enough for the host to change pace between them.
    let plain_mean =
        mean(&plain.timed.iter().map(|s| s.ns as f64).collect::<Vec<_>>()) * factor(&plain.probe);
    let traced_mean =
        mean(&traced.timed.iter().map(|s| s.ns as f64).collect::<Vec<_>>()) * factor(&traced.probe);
    m.put(
        "http.trace_overhead_pct",
        100.0 * ratio(traced_mean - plain_mean, plain_mean),
        "%",
    );
    let non200 = [&plain.timed, &traced.timed]
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.status != 200)
        .count();
    m.put("http.non200", non200 as f64, "count");

    m.put(
        "gateway.queue_waits",
        histogram_delta(&plain, "cryptext_gateway_queue_wait_us"),
        "count",
    );
    m.put(
        "gateway.coalesced",
        counter_delta(&plain, "cryptext_gateway_coalesced_followers_total"),
        "count",
    );
    m.put(
        "gateway.shed",
        counter_delta(&plain, "cryptext_gateway_shed_queue_full_total")
            + counter_delta(&plain, "cryptext_gateway_shed_draining_total"),
        "count",
    );
    m.put(
        "gateway.retries",
        counter_delta(&plain, "cryptext_gateway_retries_total"),
        "count",
    );
    for (name, tier) in TIERS {
        let hits = tier_delta(&plain, "cryptext_cache_hits_total", tier) as f64;
        let misses = tier_delta(&plain, "cryptext_cache_misses_total", tier) as f64;
        let evictions = tier_delta(&plain, "cryptext_cache_evictions_total", tier) as f64;
        let inserts = tier_delta(&plain, "cryptext_cache_inserts_total", tier) as f64;
        m.put(
            format!("cache.{name}.hit_ratio"),
            ratio(hits, hits + misses),
            "ratio",
        );
        m.put(
            format!("cache.{name}.evictions_per_insert"),
            ratio(evictions, inserts),
            "ratio",
        );
    }
    m.put(
        "cache.negative_hits",
        counter_delta(&plain, "cryptext_cache_negative_hits_total"),
        "count",
    );
    let candidates = counter_delta(&plain, "cryptext_lookup_filter_candidates_total");
    m.put(
        "lookup.candidates_per_call",
        ratio(
            candidates,
            histogram_delta(&plain, "cryptext_lookup_walk_us"),
        ),
        "count",
    );
    m.put(
        "lookup.hit_yield",
        ratio(
            counter_delta(&plain, "cryptext_lookup_hits_total"),
            candidates,
        ),
        "ratio",
    );
    let normalizes = segment
        .iter()
        .filter(|r| r.route == Route::Normalize)
        .count() as f64;
    m.put(
        "normalize.scored_per_text",
        ratio(
            counter_delta(&plain, "cryptext_normalize_scored_total"),
            normalizes,
        ),
        "count",
    );
    m.put("cpu.server_us_per_req", plain.cost.other_cpu_us / n, "us");
    m.put("cpu.client_us_per_req", plain.cost.client_cpu_us / n, "us");
    m.put("sched.wait_us_per_req", plain.cost.wait_us / n, "us");
    m.put("host.steal_pct", plain.cost.steal_pct, "%");
    Ok(())
}
