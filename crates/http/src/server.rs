//! The server lifecycle: accept loop, one thread per connection, and the
//! SIGTERM-style drain path.
//!
//! The listener runs nonblocking and the accept loop polls it in short
//! sleeps, so [`ShutdownHandle::shutdown`] is observed within
//! milliseconds without signal machinery. Each accepted connection gets
//! a thread of its own for its whole keep-alive life, and the gateway
//! executes that connection's requests on it, so however many clients
//! hold connections open, a new one is served as soon as it is accepted.
//! If the OS refuses a thread, that one connection is closed and the
//! loop keeps accepting.
//!
//! ## Drain lifecycle
//!
//! `shutdown()` flips one flag; [`HttpServer::serve_with_flush`] then:
//!
//! 1. stops accepting (the loop exits; queued SYNs are refused once the
//!    listener drops),
//! 2. waits for open connections to settle — handlers answer their
//!    in-flight request with `Connection: close`, idle keep-alive
//!    connections notice the flag within one read slice and hang up —
//!    bounded by the gateway's `drain_deadline_ms`,
//! 3. runs [`Gateway::drain_with`] with the caller's flush hook (the
//!    durable store's delta-log sync), and only then
//! 4. closes the listener and returns the [`ServeReport`].
//!
//! [`Gateway::drain_with`]: cryptext_gateway::Gateway::drain_with

use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cryptext_common::failpoint::{self, FailAction};
use cryptext_common::metrics::{self, Counter, Histogram, MetricsRegistry};
use cryptext_common::{Error, Result};
use cryptext_core::database::TokenDatabase;
use cryptext_core::TokenStore;
use cryptext_gateway::{CacheDisposition, DrainReport, Gateway};

use crate::router::{self, Routed};
use crate::wire::{self, Conn, HttpRequest, ReadOutcome, WireResponse, READ_SLICE};
use crate::HttpConfig;

/// Failpoint at the response-write boundary of **API routes** (lookup /
/// normalize / perturb — never stats, health, or wire rejects, so an
/// armed process can still be probed). `torn@N:K` writes K bytes of the
/// N-th response and drops the connection — the torn-write CI arm proves
/// a poisoned connection can't poison the listener.
pub const WRITE_FAILPOINT: &str = "http.write";

/// How long the accept loop sleeps when the listener has nothing.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Cross-thread server state.
struct Shared {
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    requests_served: AtomicU64,
    metrics: HttpMetrics,
}

/// The wire layer's instruments, registered with the gateway's (i.e. the
/// service's) registry at bind time: one request-handling latency
/// histogram plus per-status response counters.
struct HttpMetrics {
    registry: Arc<MetricsRegistry>,
    request_us: Histogram,
    /// Status-labelled counters, one slot per status 100–599, each
    /// registered on first use of its status: a response reads its slot
    /// without a lock and counts through it without cloning a handle.
    by_status: [OnceLock<Counter>; 500],
}

impl HttpMetrics {
    fn new(registry: &Arc<MetricsRegistry>) -> Self {
        HttpMetrics {
            registry: Arc::clone(registry),
            request_us: registry.histogram(
                "cryptext_http_request_us",
                "Wire request handling time, routing to serialized response (microseconds)",
            ),
            by_status: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The counter for `status`. Statuses outside 100–599, which the
    /// server never writes, count at the nearer end of that range.
    fn status_counter(&self, status: u16) -> &Counter {
        let status = status.clamp(100, 599);
        self.by_status[usize::from(status - 100)].get_or_init(|| {
            self.registry.counter_with(
                "cryptext_http_responses_total",
                "HTTP responses written, by status code (wire rejects included)",
                &[("status", metrics::label_value(&status.to_string()))],
            )
        })
    }
}

/// Clonable remote control for a running server; `shutdown()` starts the
/// drain lifecycle described in the module docs.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Begin shutdown: stop accepting, drain in-flight work, flush, exit.
    /// Idempotent; returns immediately (the serve loop does the work).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }
}

/// What a completed serve loop hands back.
#[derive(Debug)]
pub struct ServeReport {
    /// The gateway's drain outcome (quiescence + flush result).
    pub drain: DrainReport,
    /// Total requests answered over the server's lifetime (including
    /// wire-level rejects).
    pub requests_served: u64,
    /// Connections still open at the moment shutdown was observed.
    pub connections_at_drain: usize,
}

/// A bound-but-not-yet-serving HTTP front over a [`Gateway`].
pub struct HttpServer<S: TokenStore + Send + Sync + 'static = TokenDatabase> {
    gateway: Arc<Gateway<S>>,
    config: HttpConfig,
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl<S: TokenStore + Send + Sync + 'static> HttpServer<S> {
    /// Bind `addr` (use port 0 for an ephemeral test port). The listener
    /// is nonblocking; nothing is served until [`Self::serve_with_flush`].
    pub fn bind(
        gateway: Arc<Gateway<S>>,
        config: HttpConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let metrics = HttpMetrics::new(gateway.metrics());
        Ok(HttpServer {
            gateway,
            config,
            listener,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                open_conns: AtomicUsize::new(0),
                requests_served: AtomicU64::new(0),
                metrics,
            }),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        self.listener.local_addr().map_err(Error::Io)
    }

    /// A handle for stopping the server from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until [`ShutdownHandle::shutdown`], then drain with a no-op
    /// flush. In-memory deployments use this; durable ones use
    /// [`Self::serve_with_flush`].
    pub fn serve(self) -> ServeReport {
        self.serve_with_flush(|| Ok(()))
    }

    /// Serve until shutdown, then run the drain lifecycle with `flush`
    /// as the durable sync hook (see the module docs for the ordering
    /// guarantees). Blocks the calling thread for the server's lifetime.
    pub fn serve_with_flush(self, flush: impl FnOnce() -> Result<()>) -> ServeReport {
        let shared = Arc::clone(&self.shared);
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    shared.open_conns.fetch_add(1, Ordering::AcqRel);
                    let gateway = Arc::clone(&self.gateway);
                    let config = self.config;
                    let conn_shared = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .name("cryptext-http-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &gateway, &config, &conn_shared);
                            conn_shared.open_conns.fetch_sub(1, Ordering::AcqRel);
                        });
                    // No thread (resource exhaustion): the refused closure
                    // drops the stream, closing that one connection.
                    if spawned.is_err() {
                        shared.open_conns.fetch_sub(1, Ordering::AcqRel);
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    // Transient accept failure (e.g. aborted handshake,
                    // fd pressure): the listener itself is still good.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }

        // Shutdown observed. In-flight connections settle first …
        let connections_at_drain = shared.open_conns.load(Ordering::Acquire);
        let budget = Duration::from_millis(self.gateway.config().drain_deadline_ms);
        let started = Instant::now();
        while shared.open_conns.load(Ordering::Acquire) > 0 && started.elapsed() < budget {
            std::thread::sleep(Duration::from_millis(2));
        }
        // … then the gateway drains and the durable flush runs …
        let drain = self.gateway.drain_with(flush);
        // … and only now does the listener close (self drops here).
        ServeReport {
            drain,
            requests_served: shared.requests_served.load(Ordering::Relaxed),
            connections_at_drain,
        }
    }
}

/// Wire-level reject labels (the gateway's errors carry their own
/// [`Error::kind_label`]; these cover refusals born in the wire layer).
fn reject_label(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        408 => "request_timeout",
        413 => "body_too_large",
        431 => "headers_too_large",
        501 => "not_implemented",
        _ => "rejected",
    }
}

/// One connection's lifetime: read requests off the carry buffer until
/// close/reject/shutdown, answering each in order (pipelining preserved
/// because reading and writing stay on this one thread). Each request's
/// buffer goes back to the connection once its response is written.
fn handle_connection<S: TokenStore>(
    stream: TcpStream,
    gateway: &Gateway<S>,
    config: &HttpConfig,
    shared: &Shared,
) {
    // The read slice bounds every blocking read so the handler can
    // re-check budgets and the shutdown flag; nodelay because responses
    // are single small writes.
    if stream.set_read_timeout(Some(READ_SLICE)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut conn = Conn::new(stream);
    loop {
        match wire::read_request(&mut conn, config, &shared.shutdown) {
            ReadOutcome::Closed => return,
            ReadOutcome::Reject(reject) => {
                // A refused request closes the connection: framing may be
                // lost (oversized/torn/timed-out input), so the carry
                // buffer can't be trusted for a next request.
                let mut resp = WireResponse::error(
                    reject.status,
                    reject_label(reject.status),
                    &reject.message,
                );
                resp.close = true;
                shared.requests_served.fetch_add(1, Ordering::Relaxed);
                shared.metrics.status_counter(resp.status).inc();
                let _ = conn.write(&resp, usize::MAX);
                return;
            }
            ReadOutcome::Request(request) => {
                let started = Instant::now();
                let draining = shared.shutdown.load(Ordering::Acquire);
                let (mut resp, api_route) = respond(gateway, &request);
                if !request.keep_alive() || draining {
                    resp.close = true;
                }
                shared.requests_served.fetch_add(1, Ordering::Relaxed);
                shared.metrics.status_counter(resp.status).inc();
                let written = write_response(&mut conn, &resp, api_route);
                shared
                    .metrics
                    .request_us
                    .observe(started.elapsed().as_micros() as u64);
                conn.recycle(request);
                if !written || resp.close {
                    return;
                }
            }
        }
    }
}

/// Route + execute one request. The bool is "API route" — the only
/// writes [`WRITE_FAILPOINT`] applies to.
fn respond<S: TokenStore>(gateway: &Gateway<S>, request: &HttpRequest) -> (WireResponse, bool) {
    let routed = match router::route(request) {
        Ok(routed) => routed,
        Err(resp) => return (*resp, false),
    };
    match routed {
        Routed::Health => (WireResponse::text(200, "ok\n"), false),
        Routed::Stats => {
            let service = gateway.service();
            let body = router::stats_json(
                &gateway.stats(),
                service.generation(),
                service.tier2_attached(),
                gateway.is_draining(),
            );
            let mut resp = WireResponse::json(200, body);
            resp.header("Cache-Control", "no-store");
            (resp, false)
        }
        Routed::Metrics => {
            let mut resp = WireResponse::text(200, &gateway.metrics_text());
            // The Prometheus text exposition content type; scrapes must
            // always see live counters.
            resp.content_type = "text/plain; version=0.0.4";
            resp.header("Cache-Control", "no-store");
            (resp, false)
        }
        Routed::Api(api) => {
            let auth = match router::bearer_token(request) {
                Ok(token) => token,
                Err(resp) => return (*resp, false),
            };
            match gateway.handle_json(&auth, api) {
                Ok(response) => {
                    let mut resp = WireResponse::json(200, response.output);
                    resp.header_uint("X-Cryptext-Generation", "", response.generation);
                    resp.header("X-Cryptext-Cache", response.cache.label());
                    if response.cache.cacheable() {
                        // Freshness horizon = the tier-1 TTL: a fronting
                        // cache may hold the response as long as tier-1
                        // itself would.
                        let max_age = gateway.service().config().cache_ttl_ms / 1000;
                        resp.header_uint("Cache-Control", "public, max-age=", max_age);
                        if response.cache == CacheDisposition::Cold {
                            resp.header("Age", "0");
                        }
                    } else {
                        resp.header("Cache-Control", "no-store");
                    }
                    (resp, true)
                }
                Err(e) => {
                    let mut resp =
                        WireResponse::error(e.status_code(), e.kind_label(), &e.to_string());
                    if let Some(seconds) = e.retry_after() {
                        resp.header_uint("Retry-After", "", seconds);
                    }
                    (resp, true)
                }
            }
        }
    }
}

/// Write one response, honoring [`WRITE_FAILPOINT`] on API routes.
/// Returns false when the connection must close (write error or injected
/// fault) — the caller's loop exits, the listener never notices.
fn write_response(conn: &mut Conn, resp: &WireResponse, api_route: bool) -> bool {
    if api_route {
        match failpoint::trigger(WRITE_FAILPOINT) {
            Some(FailAction::Kill) => return false,
            Some(FailAction::Torn(k)) => {
                let _ = conn.write(resp, k);
                return false;
            }
            Some(FailAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            None => {}
        }
    }
    conn.write(resp, usize::MAX).is_ok()
}
