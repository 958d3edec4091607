//! The gateway proper: the layer onion assembled over one
//! [`CryptextService`], plus the execution core, which runs each request
//! on its caller's thread, and the graceful-drain path.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cryptext_common::hash::fx_hash_bytes;
use cryptext_common::metrics::{MetricsRegistry, MetricsSnapshot};
use cryptext_common::{failpoint, Error, Result};
use cryptext_core::database::TokenDatabase;
use cryptext_core::service::{ApiToken, CryptextService, Served};
use cryptext_core::TokenStore;

use crate::admission::{Acquired, Permit, RouteAdmission};
use crate::deadline::{Deadline, WAIT_SLICE};
use crate::envelope::{CacheDisposition, Request, Response, RouteParams, SharedOutput};
use crate::singleflight::{FollowerOutcome, Join, SingleFlight};
use crate::{GatewayConfig, GatewayStats, RouteClass};

/// Backoff never exceeds this, so exhausting a retry budget stays cheap
/// even with a large base (and debug-mode tests stay fast).
const MAX_BACKOFF_MS: u64 = 100;

/// Per-call overrides; `Default` inherits the gateway's configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallOptions {
    /// Deadline budget for this call (ms); `None` uses
    /// [`GatewayConfig::default_deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Retry budget for this call; `None` uses
    /// [`GatewayConfig::max_retries`].
    pub max_retries: Option<u32>,
}

impl CallOptions {
    /// Override only the deadline.
    pub fn with_deadline_ms(deadline_ms: u64) -> Self {
        CallOptions {
            deadline_ms: Some(deadline_ms),
            ..CallOptions::default()
        }
    }

    /// Disable retries for this call.
    pub fn no_retries(mut self) -> Self {
        self.max_retries = Some(0);
        self
    }
}

/// A request through the front half of the onion — admission passed,
/// authorization passed — carrying everything the execution core needs:
/// the lane permit, the request deadline, and the remaining retry
/// budget.
struct Admitted {
    permit: Permit,
    deadline: Deadline,
    retries: u32,
}

/// What [`Gateway::drain_with`] observed.
#[derive(Debug)]
pub struct DrainReport {
    /// Every in-flight request finished before the drain deadline.
    pub quiesced: bool,
    /// Requests still running (or queued) when the flush started —
    /// nonzero only when the drain deadline fired first.
    pub in_flight_at_flush: usize,
    /// Real milliseconds spent waiting for quiescence.
    pub waited_ms: u64,
    /// Error from the flush hook (or the `gateway.drain.flush`
    /// failpoint), if any. A failed flush is reported, not swallowed:
    /// recovery then falls back to the durable store's committed prefix.
    pub flush_error: Option<Error>,
    /// Expired cache entries reaped from every tier after the flush —
    /// drain leaves no expired entries behind.
    pub cache_expired_reaped: usize,
}

/// The overload-resilient front-end. See the crate docs for the layer
/// walk; construction wires every layer over one shared service.
pub struct Gateway<S: TokenStore = TokenDatabase> {
    service: Arc<CryptextService<S>>,
    config: GatewayConfig,
    routes: [Arc<RouteAdmission>; 3],
    /// One coalescing group for every cacheable route: keys are prefixed
    /// with the route name, so lanes can't collide. The flight value is
    /// the leader's shared tier-1 entry plus its [`Served`] provenance, so
    /// coalesced followers share the entry and inherit the leader's cache
    /// disposition.
    flights: SingleFlight<(SharedOutput, Served)>,
    draining: AtomicBool,
    stats: GatewayStats,
}

impl<S: TokenStore> std::fmt::Debug for Gateway<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("config", &self.config)
            .field("draining", &self.draining.load(Ordering::Acquire))
            .finish()
    }
}

impl<S: TokenStore> Gateway<S> {
    /// Front `service` with the gateway. The gateway's counters and
    /// queue-wait histograms register with the service's
    /// [`MetricsRegistry`] here — one gateway per service instance
    /// (duplicate registration panics).
    pub fn new(service: Arc<CryptextService<S>>, config: GatewayConfig) -> Self {
        let routes = [
            RouteAdmission::new(config.lookup),
            RouteAdmission::new(config.normalize),
            RouteAdmission::new(config.perturb),
        ];
        let stats = GatewayStats::default();
        stats.register(service.metrics());
        Gateway {
            service,
            config,
            routes,
            flights: SingleFlight::new(),
            draining: AtomicBool::new(false),
            stats,
        }
    }

    /// The fronted service.
    pub fn service(&self) -> &Arc<CryptextService<S>> {
        &self.service
    }

    /// The active configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Every counter of the service's registry, the gateway's
    /// `cryptext_gateway_*` instruments among them, read after the
    /// point-in-time `active_now`/`queued_now` gauges are refreshed. The
    /// same cells `GET /metrics` renders ([`Self::metrics_text`]).
    pub fn stats(&self) -> MetricsSnapshot {
        self.refresh_gauges();
        self.service.metrics().snapshot()
    }

    /// Set the active/queued gauges from the admission lanes.
    fn refresh_gauges(&self) {
        let active_now: usize = self.routes.iter().map(|r| r.active()).sum();
        let queued_now: usize = self.routes.iter().map(|r| r.queued()).sum();
        self.stats.active_now.set(active_now as i64);
        self.stats.queued_now.set(queued_now as i64);
    }

    /// The service's metrics registry — the gateway's instruments live
    /// in it alongside every other layer's.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.service.metrics()
    }

    /// The `GET /metrics` body: every registered instrument in
    /// Prometheus text exposition format, with the point-in-time gauges
    /// (active/queued) refreshed first.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.service.metrics().render_prometheus()
    }

    /// Invalidate coalescing *and* the service's result caches across a
    /// store mutation (call after ingest/reshard). Forwards to
    /// [`CryptextService::bump_generation`]: the service owns the one
    /// generation counter, which every coalescing key embeds, so in-flight
    /// leaders finish and serve their cohort the pre-mutation result, no
    /// *new* request joins them, and every cached result (tier-1 keys +
    /// the tier-2 namespace) is flushed. A bump made directly on the
    /// service has the same effect.
    pub fn bump_generation(&self) {
        self.service.bump_generation();
    }

    /// Is the gateway refusing new admissions?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    // ---- the layer onion ------------------------------------------------

    /// Run `f` through every layer except coalescing: admission on
    /// `route`, authorization for `auth`, then execution on this thread
    /// under a deadline with bounded retries. `f` may run multiple times
    /// (once per retry): it receives the service and the request
    /// deadline each attempt.
    pub fn call<V, F>(
        &self,
        route: RouteClass,
        auth: &ApiToken,
        opts: CallOptions,
        f: F,
    ) -> Result<V>
    where
        V: Clone,
        F: Fn(&CryptextService<S>, &Deadline) -> Result<V>,
    {
        let admitted = self.admit_and_authorize(route, auth, opts)?;
        self.execute(admitted, None, &f)
    }

    /// [`Self::call`] plus single-flight coalescing in `flights` under
    /// `key`: duplicates of an in-flight request attach to its leader
    /// instead of executing. Every caller is admitted and charged
    /// individually *before* attaching — coalescing shares the work, not
    /// the authorization.
    ///
    /// [`Self::handle`] coalesces Look Up and Normalization in the
    /// gateway's internal group; callers with their own coalescable work
    /// bring their own [`SingleFlight`] group and key.
    pub fn call_coalesced<V, F>(
        &self,
        route: RouteClass,
        key: u64,
        auth: &ApiToken,
        opts: CallOptions,
        flights: &SingleFlight<V>,
        f: F,
    ) -> Result<V>
    where
        V: Clone,
        F: Fn(&CryptextService<S>, &Deadline) -> Result<V>,
    {
        let admitted = self.admit_and_authorize(route, auth, opts)?;
        if let Join::Follower(flight) = flights.join(key) {
            self.stats.coalesced_followers.inc();
            match flights.wait(&flight, &admitted.deadline) {
                FollowerOutcome::Settled(result) => {
                    self.count_outcome(&result);
                    return result;
                }
                FollowerOutcome::Promoted => self.stats.promoted_followers.inc(),
                FollowerOutcome::TimedOut => {
                    self.stats.deadline_exceeded.inc();
                    return Err(Error::DeadlineExceeded {
                        budget_ms: admitted.deadline.budget_ms(),
                    });
                }
            }
        }
        self.execute(admitted, Some((key, flights)), &f)
    }

    /// Admission + authorization, the shared front half of every call.
    fn admit_and_authorize(
        &self,
        route: RouteClass,
        auth: &ApiToken,
        opts: CallOptions,
    ) -> Result<Admitted> {
        let deadline = Deadline::new(
            self.service.clock(),
            opts.deadline_ms.unwrap_or(self.config.default_deadline_ms),
        );
        let retries = opts.max_retries.unwrap_or(self.config.max_retries);
        if self.is_draining() {
            self.stats.shed_draining.inc();
            return Err(Error::Overloaded {
                retry_after_ms: self.config.shed_retry_after_ms,
            });
        }
        let acquired = self.routes[route.index()]
            .acquire(&deadline, &self.draining, self.config.shed_retry_after_ms)
            .inspect_err(|e| match e {
                Error::Overloaded { .. } => {
                    if self.is_draining() {
                        self.stats.shed_draining.inc();
                    } else {
                        self.stats.shed_queue_full.inc();
                    }
                }
                Error::DeadlineExceeded { .. } => {
                    self.stats.queue_deadline_expired.inc();
                }
                _ => {}
            })?;
        let Acquired { permit, queue_wait } = acquired;
        self.stats.admitted.inc();
        if let Some(wait) = queue_wait {
            self.stats.queue_wait_us[route.index()].observe(wait.as_micros() as u64);
        }
        // Authorization runs *after* admission (a revocation while the
        // request queued rejects it here, deterministically) and charges
        // the token's rate window exactly once for this call. A refusal is
        // this admitted request's outcome, so it counts as failed.
        self.service
            .authorize_request(auth)
            .inspect_err(|_| self.stats.failed.inc())?;
        Ok(Admitted {
            permit,
            deadline,
            retries,
        })
    }

    /// The execution core, on the caller's thread: the attempt loop (a
    /// panic fails the request cleanly with [`Error::Internal`]), then the
    /// flight settled and the admission slot released, in that order.
    fn execute<V: Clone>(
        &self,
        admitted: Admitted,
        flight: Option<(u64, &SingleFlight<V>)>,
        f: &dyn Fn(&CryptextService<S>, &Deadline) -> Result<V>,
    ) -> Result<V> {
        self.stats.executions.inc();
        let Admitted {
            permit,
            deadline,
            retries,
        } = admitted;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.run_attempts(&deadline, retries, f)
        }))
        .unwrap_or_else(|_| {
            Err(Error::Internal(
                "gateway execution panicked; request failed cleanly".into(),
            ))
        });
        if let Some((key, flights)) = flight {
            flights.settle(key, &result);
        }
        drop(permit);
        self.count_outcome(&result);
        result
    }

    /// One request's attempt loop: deadline check, the `gateway.execute`
    /// failpoint (chaos arm: `delay@N:MS` stalls, `kill@N` injects a
    /// retryable I/O error), the body, then bounded jittered backoff for
    /// retryable failures while deadline budget remains.
    fn run_attempts<V>(
        &self,
        deadline: &Deadline,
        max_retries: u32,
        f: &dyn Fn(&CryptextService<S>, &Deadline) -> Result<V>,
    ) -> Result<V> {
        let mut attempt: u32 = 0;
        loop {
            if let Some(e) = deadline.probe() {
                return Err(e);
            }
            let result = match failpoint::check("gateway.execute") {
                Ok(()) => f(&self.service, deadline),
                Err(e) => Err(e),
            };
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < max_retries && !deadline.expired() => {
                    attempt += 1;
                    self.stats.retries.inc();
                    let nonce = self.stats.retry_nonce.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(backoff_ms(
                        self.config.retry_backoff_ms,
                        attempt,
                        nonce,
                    )));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn count_outcome<V>(&self, result: &Result<V>) {
        let counter = if result.is_ok() {
            &self.stats.completed_ok
        } else {
            &self.stats.failed
        };
        counter.inc();
    }

    // ---- typed endpoints ------------------------------------------------

    /// Coalescing key for one endpoint invocation: `material` (route,
    /// exact input, parameters) and the service's current generation,
    /// hashed field by field with SipHash — no key string is built.
    fn coalesce_key(&self, material: impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        (material, self.service.generation()).hash(&mut h);
        h.finish()
    }

    /// The unified entry point: one [`Request`] in, one [`Response`]
    /// out, for every route. Cacheable routes (Look Up, Normalization)
    /// go through single-flight coalescing keyed on route, exact input,
    /// parameters, and generation; Perturbation runs uncoalesced (the
    /// seeded RNG makes byte-identical duplicates rare enough that
    /// sharing buys nothing) and is marked [`CacheDisposition::Bypass`].
    ///
    /// In-process callers match on [`Response::output`], a copy of the
    /// served value. Wire layers call [`Self::handle_json`] instead, which
    /// runs the request the same way and renders the body without the
    /// copy.
    pub fn handle(&self, auth: &ApiToken, req: Request) -> Result<Response> {
        self.serve(auth, req, SharedOutput::into_owned)
    }

    /// [`Self::handle`] for wire layers: the response's output is the
    /// JSON wire body ([`RouteOutput::to_json`]'s bytes), rendered
    /// straight from the shared tier-1 entry or the fresh Perturbation
    /// outcome, with the same generation and cache disposition.
    ///
    /// [`RouteOutput::to_json`]: crate::RouteOutput::to_json
    pub fn handle_json(&self, auth: &ApiToken, req: Request) -> Result<Response<String>> {
        self.serve(auth, req, |output| output.to_json())
    }

    /// The one execution path behind both entry points: every layer of
    /// the onion, then `project` applied to the served value.
    fn serve<O>(
        &self,
        auth: &ApiToken,
        req: Request,
        project: impl FnOnce(SharedOutput) -> O,
    ) -> Result<Response<O>> {
        // Snapshot before execution: the result is computed under *at
        // least* this generation (a concurrent bump splits the coalesce
        // key, so a stale flight can't serve a post-bump request).
        let generation = self.service.generation();
        let input = req.input;
        let (output, cache) = match req.params {
            RouteParams::Lookup(params) => {
                let key = self.coalesce_key((
                    RouteClass::Lookup,
                    input.as_str(),
                    params.k,
                    params.d,
                    params.exclude_identity,
                    params.observed_only,
                ));
                let (output, served) = self.call_coalesced(
                    RouteClass::Lookup,
                    key,
                    auth,
                    req.opts,
                    &self.flights,
                    |svc, deadline| {
                        let mut probe = || deadline.probe();
                        svc.look_up_shared(&input, params, &mut probe)
                            .map(|(hits, served)| (SharedOutput::Lookup(hits), served))
                    },
                )?;
                (output, CacheDisposition::from_served(served))
            }
            RouteParams::Normalize(params) => {
                let key = self.coalesce_key((
                    RouteClass::Normalize,
                    input.as_str(),
                    params.k,
                    params.d,
                    params.edit_penalty.to_bits(),
                    params.prior_weight.to_bits(),
                    params.max_candidates,
                ));
                let (output, served) = self.call_coalesced(
                    RouteClass::Normalize,
                    key,
                    auth,
                    req.opts,
                    &self.flights,
                    |svc, _| {
                        svc.normalize_shared(&input, params)
                            .map(|(r, served)| (SharedOutput::Normalize(r), served))
                    },
                )?;
                (output, CacheDisposition::from_served(served))
            }
            RouteParams::Perturb(params) => {
                let output = self.call(RouteClass::Perturb, auth, req.opts, |svc, _| {
                    svc.perturb_prechecked(&input, params)
                        .map(SharedOutput::Perturb)
                })?;
                (output, CacheDisposition::Bypass)
            }
        };
        Ok(Response {
            output: project(output),
            generation,
            cache,
        })
    }

    // ---- graceful drain -------------------------------------------------

    /// Stop admitting: new arrivals and queued waiters shed with
    /// [`Error::Overloaded`]; in-flight requests keep their permits and
    /// finish.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        for route in &self.routes {
            route.wake_all();
        }
    }

    /// Re-open admissions (after a completed drain, e.g. in tests that
    /// exercise drain-then-recover).
    pub fn end_drain(&self) {
        self.draining.store(false, Ordering::Release);
    }

    /// Graceful drain: stop admissions, wait for in-flight requests
    /// under the (real-time) drain deadline, then run `flush` — the
    /// durable store's delta-log sync in a durable deployment. The
    /// report says whether quiescence was reached and carries any flush
    /// error; it never panics and never hangs past the deadline.
    pub fn drain_with(&self, flush: impl FnOnce() -> Result<()>) -> DrainReport {
        self.begin_drain();
        // The drain budget is operational wall-clock time (how long the
        // operator waits), not simulated request time — a frozen test
        // clock must not stall shutdown forever.
        let started = std::time::Instant::now();
        let budget = Duration::from_millis(self.config.drain_deadline_ms);
        loop {
            let busy: usize = self.routes.iter().map(|r| r.active() + r.queued()).sum();
            if busy == 0 || started.elapsed() >= budget {
                break;
            }
            std::thread::sleep(WAIT_SLICE);
        }
        let in_flight_at_flush: usize = self.routes.iter().map(|r| r.active() + r.queued()).sum();
        let flush_error = failpoint::check("gateway.drain.flush")
            .and_then(|_| flush())
            .err();
        // A drained service leaves no expired cache entries behind: reap
        // every tier eagerly (after the flush, when traffic has stopped).
        let cache_expired_reaped = self.service.sweep_caches();
        DrainReport {
            quiesced: in_flight_at_flush == 0,
            in_flight_at_flush,
            waited_ms: started.elapsed().as_millis() as u64,
            flush_error,
            cache_expired_reaped,
        }
    }

    /// [`Self::drain_with`] with no flush hook.
    pub fn drain(&self) -> DrainReport {
        self.drain_with(|| Ok(()))
    }
}

/// Exponential backoff with deterministic-per-nonce jitter: attempt `n`
/// waits `base * 2^(n-1)` plus up to one extra `base`, capped at
/// [`MAX_BACKOFF_MS`]. The nonce (the global retry counter) decorrelates
/// concurrent retriers without needing an RNG.
fn backoff_ms(base: u64, attempt: u32, nonce: u64) -> u64 {
    let base = base.max(1);
    let exp = base.saturating_mul(1 << (attempt - 1).min(6));
    let jitter = fx_hash_bytes(&nonce.to_le_bytes()) % base;
    exp.saturating_add(jitter).min(MAX_BACKOFF_MS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteOutput;
    use cryptext_common::{SimClock, SystemClock};
    use cryptext_core::service::ServiceConfig;
    use cryptext_core::{CrypText, LookupParams, NormalizeParams, PerturbParams};
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

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

    fn small_gateway(limit: u32) -> (Arc<Gateway<TokenDatabase>>, SimClock) {
        let (svc, clock) = test_service(limit);
        (Arc::new(Gateway::new(svc, GatewayConfig::default())), clock)
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

    /// A paper-default Look Up of `word` through [`Gateway::handle`].
    fn lookup(gw: &Gateway, token: &ApiToken, word: &str) -> Result<Response> {
        gw.handle(token, Request::lookup(word, LookupParams::paper_default()))
    }

    #[test]
    fn handle_matches_the_direct_service_on_every_route() {
        let (gw, _) = small_gateway(1_000_000);
        let token = gw.service().issue_token("unit");
        let svc = gw.service();

        let direct = svc.look_up(&token, "republicans", LookupParams::paper_default());
        let gated = lookup(&gw, &token, "republicans").unwrap().output;
        assert_eq!(
            gated,
            RouteOutput::Lookup(direct.unwrap()),
            "gateway adds layers, not different bytes"
        );

        let (text, params) = ("the vacc1ne mandates", NormalizeParams::default());
        let direct = svc.normalize(&token, text, params).unwrap();
        let gated = gw.handle(&token, Request::normalize(text, params)).unwrap();
        assert_eq!(gated.output, RouteOutput::Normalize(direct));

        let (text, params) = ("the dirty republicans", PerturbParams::with_ratio(1.0));
        let direct = svc.perturb(&token, text, params).unwrap();
        let gated = gw.handle(&token, Request::perturb(text, params)).unwrap();
        assert_eq!(
            gated.output,
            RouteOutput::Perturb(direct),
            "seeded perturbation is deterministic"
        );

        let stats = gw.stats();
        assert_eq!(count(&stats, "admitted"), 3);
        assert_eq!(count(&stats, "completed_ok"), 3);
        assert_eq!(
            (gauge(&stats, "active_now"), gauge(&stats, "queued_now")),
            (0, 0)
        );
    }

    #[test]
    fn handle_json_renders_the_body_handle_returns() {
        let (gw, _) = small_gateway(1_000_000);
        let token = gw.service().issue_token("wire");
        use CacheDisposition::{Bypass, Cold, Hit};
        let cases = [
            (
                Request::lookup("republicans", LookupParams::paper_default()),
                [Cold, Hit, Hit],
            ),
            (
                Request::normalize("the vacc1ne mandates", NormalizeParams::default()),
                [Cold, Hit, Hit],
            ),
            (
                Request::perturb("the dirty republicans", PerturbParams::with_ratio(1.0)),
                [Bypass; 3],
            ),
        ];
        for (req, dispositions) in cases {
            let cold = gw.handle_json(&token, req.clone()).unwrap();
            let typed = gw.handle(&token, req.clone()).unwrap();
            let hit = gw.handle_json(&token, req.clone()).unwrap();
            let body = typed.output.to_json();
            assert_eq!(cold.output, body, "{:?}", req.route());
            assert_eq!(hit.output, body, "{:?}", req.route());
            assert_eq!([cold.cache, typed.cache, hit.cache], dispositions);
            assert_eq!([cold.generation, typed.generation, hit.generation], [0; 3]);
        }
    }

    #[test]
    fn retryable_failures_consume_the_retry_budget_then_surface() {
        let (gw, _) = small_gateway(1_000_000);
        let token = gw.service().issue_token("retry");
        let calls = AtomicUsize::new(0);

        // Fails retryably twice, succeeds on the third attempt.
        let out: Result<u32> = gw.call(
            RouteClass::Perturb,
            &token,
            CallOptions::default(),
            |_, _| {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(Error::Overloaded { retry_after_ms: 1 })
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(count(&gw.stats(), "retries"), 2);

        // Non-retryable errors surface immediately, no retry spent.
        let before = count(&gw.stats(), "retries");
        let out: Result<u32> = gw.call(
            RouteClass::Perturb,
            &token,
            CallOptions::default(),
            |_, _| Err(Error::InvalidArgument("nope".into())),
        );
        assert!(matches!(out, Err(Error::InvalidArgument(_))));
        assert_eq!(count(&gw.stats(), "retries"), before);
    }

    #[test]
    fn a_body_that_overruns_its_deadline_returns_its_own_result() {
        // Real clock, so the 30ms deadline really passes while the body
        // runs. The deadline is checked before each attempt and probed by
        // the store walk; a body that ignores it runs to the end on the
        // caller's thread and its result is the call's result.
        let svc = Arc::new(CryptextService::new(
            CrypText::new(TokenDatabase::in_memory()),
            ServiceConfig::default(),
            Arc::new(SystemClock),
        ));
        let gw = Gateway::new(svc, GatewayConfig::default());
        let token = gw.service().issue_token("slow");
        let caller = std::thread::current().id();
        let started = Instant::now();
        let out: Result<std::thread::ThreadId> = gw.call(
            RouteClass::Perturb,
            &token,
            CallOptions::with_deadline_ms(30).no_retries(),
            |_, deadline| {
                std::thread::sleep(Duration::from_millis(60));
                assert!(deadline.expired(), "the body outlived its deadline");
                Ok(std::thread::current().id())
            },
        );
        assert_eq!(out.unwrap(), caller, "the body ran on the caller's thread");
        assert!(started.elapsed() >= Duration::from_millis(60));
        let s = gw.stats();
        assert_eq!(count(&s, "deadline_exceeded"), 0);
        assert_eq!(count(&s, "completed_ok"), 1);
        assert_eq!(gauge(&s, "active_now"), 0, "the slot is free on return");
    }

    #[test]
    fn a_panicking_request_fails_cleanly_without_poisoning_the_lane() {
        let (gw, _) = small_gateway(1_000_000);
        let token = gw.service().issue_token("boom");
        let out: Result<u32> = gw.call(
            RouteClass::Perturb,
            &token,
            CallOptions::default(),
            |_, _| panic!("request body exploded"),
        );
        assert!(matches!(out, Err(Error::Internal(_))));
        let ok: Result<u32> = gw.call(
            RouteClass::Perturb,
            &token,
            CallOptions::default(),
            |_, _| Ok(3),
        );
        assert_eq!(ok.unwrap(), 3);
        assert_eq!(gauge(&gw.stats(), "active_now"), 0);
    }

    #[test]
    fn drain_sheds_then_recovers_admissions() {
        let (gw, _) = small_gateway(1_000_000);
        let token = gw.service().issue_token("ops");
        let report = gw.drain_with(|| Ok(()));
        assert!(report.quiesced);
        assert!(report.flush_error.is_none());
        assert!(matches!(
            lookup(&gw, &token, "vaccine"),
            Err(Error::Overloaded { .. })
        ));
        assert!(count(&gw.stats(), "shed_draining") >= 1);

        gw.end_drain();
        assert!(lookup(&gw, &token, "vaccine").is_ok());
    }

    #[test]
    fn bump_generation_splits_coalescing_keys() {
        let (gw, _) = small_gateway(1_000_000);
        let before = gw.coalesce_key((RouteClass::Lookup, "x"));
        gw.bump_generation();
        assert_ne!(before, gw.coalesce_key((RouteClass::Lookup, "x")));
    }

    #[test]
    fn a_bump_made_on_the_service_reaches_the_gateway() {
        let (gw, _) = small_gateway(1_000_000);
        let token = gw.service().issue_token("ingest");
        let before = gw.coalesce_key((RouteClass::Lookup, "x"));
        // An ingest path bumps the service directly, not the gateway.
        assert_eq!(gw.service().bump_generation(), 1);
        assert_ne!(
            before,
            gw.coalesce_key((RouteClass::Lookup, "x")),
            "a post-ingest request must not join a pre-ingest flight"
        );
        let resp = lookup(&gw, &token, "vaccine").unwrap();
        assert_eq!(
            resp.generation, 1,
            "responses report the service generation"
        );
    }

    #[test]
    fn a_lone_coalesced_call_clones_nothing() {
        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, Ordering::SeqCst);
                Counted(Arc::clone(&self.0))
            }
        }
        let (gw, _) = small_gateway(1_000_000);
        let token = gw.service().issue_token("lone");
        let clones = Arc::new(AtomicUsize::new(0));
        let flights = SingleFlight::new();
        let value = Counted(Arc::clone(&clones));
        let out = gw.call_coalesced(
            RouteClass::Lookup,
            42,
            &token,
            CallOptions::default(),
            &flights,
            |_, _| Ok(value.clone()),
        );
        assert!(out.is_ok());
        assert_eq!(
            clones.load(Ordering::SeqCst),
            1,
            "only the body's own clone: admission and settle copy nothing"
        );
        assert_eq!(flights.in_flight(), 0);
    }

    #[test]
    fn bump_generation_forwards_to_service_cache_tiers() {
        let (gw, _) = small_gateway(1_000_000);
        let token = gw.service().issue_token("bump");

        lookup(&gw, &token, "vaccine").unwrap();
        assert_eq!(gw.service().cache_stats().inserts, 1);

        gw.bump_generation();
        assert_eq!(gw.service().generation(), 1, "service version advanced");
        let s = gw.stats();
        let bumps = s.counter_total("cryptext_cache_invalidation_bumps_total");
        assert_eq!(bumps, 1);
        let flushed = s.counter_total("cryptext_cache_invalidated_entries_total");
        assert!(flushed >= 1, "cached lookup flushed");

        // The flushed entry is recomputed, not served stale.
        lookup(&gw, &token, "vaccine").unwrap();
        assert_eq!(gw.service().cache_stats().misses, 2);
        assert_eq!(gw.service().cache_stats().hits, 0);
    }

    #[test]
    fn drain_reaps_expired_cache_entries() {
        let (gw, clock) = small_gateway(1_000_000);
        let token = gw.service().issue_token("drain-sweep");

        lookup(&gw, &token, "vaccine").unwrap();
        let normalize = Request::normalize("the vacc1ne mandates", NormalizeParams::default());
        gw.handle(&token, normalize).unwrap();

        clock.advance(ServiceConfig::default().cache_ttl_ms + 1);
        let report = gw.drain_with(|| Ok(()));
        assert!(report.quiesced);
        assert!(
            report.cache_expired_reaped >= 2,
            "drain leaves no expired entries behind (reaped {})",
            report.cache_expired_reaped
        );
        gw.end_drain();
    }

    #[test]
    fn backoff_is_bounded_and_grows_with_attempts() {
        let a1 = backoff_ms(5, 1, 0);
        let a3 = backoff_ms(5, 3, 0);
        assert!((5..10).contains(&a1));
        assert!((20..25).contains(&a3));
        assert_eq!(backoff_ms(50, 6, 1), MAX_BACKOFF_MS);
        assert_eq!(backoff_ms(0, 1, 0), 1, "zero base still makes progress");
    }

    #[test]
    fn revoked_token_rejects_at_the_auth_layer() {
        let (gw, _) = small_gateway(1);
        let token = gw.service().issue_token("spent");
        assert!(lookup(&gw, &token, "vaccine").is_ok());
        assert!(matches!(
            lookup(&gw, &token, "vaccine"),
            Err(Error::RateLimited { .. })
        ));
        let gone = gw.service().issue_token("gone");
        gw.service().revoke_token(&gone);
        assert!(matches!(
            lookup(&gw, &gone, "vaccine"),
            Err(Error::Unauthorized(_))
        ));

        // Refused after admission, so each refusal is an admitted request
        // that failed: every admitted request has exactly one outcome.
        let s = gw.stats();
        assert_eq!(count(&s, "admitted"), 3);
        assert_eq!((count(&s, "completed_ok"), count(&s, "failed")), (1, 2));
        assert_eq!(
            count(&s, "admitted"),
            count(&s, "completed_ok") + count(&s, "failed") + count(&s, "deadline_exceeded")
        );
    }
}
